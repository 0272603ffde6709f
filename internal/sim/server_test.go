package sim

import (
	"math/rand"
	"testing"
)

// naiveCalendar is the reference first-fit calendar: every reservation
// kept forever, a linear scan from the start per request. The ring
// calendar must grant exactly what it grants while no arrival is late.
type naiveCalendar struct{ busy []interval }

func (c *naiveCalendar) acquire(at, dur Time) Time {
	start := at
	i := 0
	for ; i < len(c.busy); i++ {
		iv := c.busy[i]
		if iv.end <= start {
			continue
		}
		if start+dur <= iv.start {
			break
		}
		start = iv.end
	}
	c.busy = append(c.busy, interval{})
	copy(c.busy[i+1:], c.busy[i:])
	c.busy[i] = interval{start, start + dur}
	return start
}

// TestServerMatchesUnprunedCalendar drives the ring calendar with
// randomized near-monotone arrival streams — mostly appends, with
// backfills landing from a few entries to thousands of entries behind
// the tail, all inside the prune window — and checks every grant
// against the never-pruned reference. It pins the gallop search, the
// cached prune threshold and the Late counter together: grants are
// identical, pruning really ran, and no arrival was late.
func TestServerMatchesUnprunedCalendar(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewServer("x")
		var ref naiveCalendar
		now := Time(0)
		for i := 0; i < 6000; i++ {
			now += Time(rng.Intn(120)) * Nanosecond
			at := now
			switch r := rng.Intn(10); {
			case r < 3:
				at -= Time(rng.Intn(2000)) * Nanosecond // near the tail
			case r < 4:
				at -= Time(rng.Intn(150)) * Microsecond // deep, inside the window
			}
			if at > now { // underflow near the start
				at = 0
			}
			dur := Time(1+rng.Intn(80)) * Nanosecond
			got, want := s.Acquire(at, dur), ref.acquire(at, dur)
			if got != want {
				t.Fatalf("seed %d op %d: Acquire(%v, %v) = %v, reference %v", seed, i, at, dur, got, want)
			}
		}
		var m ServerMetrics
		s.AddMetrics(&m)
		if m.Pruned == 0 {
			t.Fatalf("seed %d: nothing pruned; the stream never left the window", seed)
		}
		if m.Late != 0 {
			t.Fatalf("seed %d: %d late arrivals in a stream kept inside the window", seed, m.Late)
		}
	}
}

// TestServerCountsLateArrivals: an arrival below the last prune cut is
// counted, one at or above it is not.
func TestServerCountsLateArrivals(t *testing.T) {
	s := NewServer("x")
	s.Acquire(0, 10*Nanosecond)
	s.Acquire(300*Microsecond, Nanosecond) // prunes [0, 10ns); cut 100us
	s.Acquire(100*Microsecond, Nanosecond)
	var m ServerMetrics
	s.AddMetrics(&m)
	if m.Pruned != 1 || m.Late != 0 {
		t.Fatalf("after an arrival at the cut: %+v, want 1 pruned, 0 late", m)
	}
	s.Acquire(50*Microsecond, Nanosecond)
	m = ServerMetrics{}
	s.AddMetrics(&m)
	if m.Late != 1 {
		t.Fatalf("after an arrival below the cut: %+v, want 1 late", m)
	}
}
