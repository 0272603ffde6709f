package sim

// Server models a contended resource (a bus, a cache port, a DRAM
// channel) as a busy-interval calendar. A request arriving at time t is
// granted the first gap of sufficient length starting no earlier than t.
//
// Transactions in this simulator reserve their whole resource chain when
// they are handled (e.g. a cache miss books the response bus slot at its
// future fill time), so a resource sees arrivals at non-monotone times.
// A single next-free-time scalar would let those future bookings block
// earlier requests; the calendar instead backfills gaps, which is what a
// real arbiter does with requests that are actually present at the time.
//
// The calendar is kept as a ring: busy[head:] are the live reservations,
// sorted by start and disjoint. Pruning advances head instead of copying
// the slice, and the dead prefix is reclaimed in one amortized
// compaction once it dominates, so both the dominant append-at-end
// Acquire and prune are O(1) amortized; only the backfill insert still
// shifts elements. Backfills land near the tail (in art-orig on 16 CC
// cores, all within 75 entries of it while the live window averages 8k
// reservations), so their search gallops back from the tail instead of
// bisecting the whole window.
type Server struct {
	name string
	// busy[head:] holds the live, non-overlapping reservations sorted by
	// start time; busy[:head] is pruned garbage awaiting compaction.
	busy    []interval
	head    int
	busyAcc Time // total reserved time, for utilization
	uses    uint64
	maxAt   Time // latest arrival seen, for safe pruning
	// pruneAt caches busy[head].end + pruneWindow: only an arrival later
	// than it can make prune discard anything, so the hot path compares
	// against this field instead of loading the cold head reservation.
	// It may sit below the true value (an insert merged into the head
	// leaves it low), never above; an empty ring holds the maximum.
	pruneAt Time
	// cut is the horizon of the last prune: every discarded reservation
	// ended before it.
	cut Time
	// lastEnd is the end of the latest-ending reservation ever granted.
	// Unlike the ring it survives pruning, so NextFree stays truthful
	// after old bookings are discarded.
	lastEnd Time
	// Calendar-maintenance counters (see ServerMetrics): how many
	// reservations pruning discarded, how often the ring compacted, and
	// how many arrivals landed below cut.
	pruned      uint64
	compactions uint64
	late        uint64
}

// ServerMetrics aggregates calendar-maintenance counters across a set of
// servers. The model layers (noc, dram, uncore) sum their servers into
// one value per run so the ring calendar's behavior — how much history
// it sheds and how often it pays a compaction copy — is visible in every
// report, not just in microbenchmarks.
type ServerMetrics struct {
	Pruned      uint64 // reservations discarded past the prune window
	Compactions uint64 // amortized copies reclaiming the dead prefix
	// Late counts arrivals below their server's last prune cut. Such an
	// arrival's backfill search cannot see the reservations already
	// discarded, so a grant is exact only while Late is 0. Omitted from
	// JSON when 0, so reports that never see one encode as before.
	Late uint64 `json:",omitempty"`
}

// AddMetrics accumulates this server's calendar counters into m.
func (s *Server) AddMetrics(m *ServerMetrics) {
	m.Pruned += s.pruned
	m.Compactions += s.compactions
	m.Late += s.late
}

// Snapshot emits the aggregated counters in a fixed order (probe layer).
func (m ServerMetrics) Snapshot(put func(name string, value float64)) {
	put("pruned", float64(m.Pruned))
	put("compactions", float64(m.Compactions))
}

type interval struct{ start, end Time }

// pruneWindow bounds how far in the past a new arrival may land relative
// to the latest arrival seen. Arrivals carry times no earlier than the
// engine's current event time, and future bookings extend at most one
// transaction latency (far below this) ahead, so reservations older than
// the window can never interact with new arrivals.
const pruneWindow = 200 * Microsecond

// acquireTap, when non-nil, observes every Acquire before it is served.
// Only the calendar replay benchmark sets it (export_test.go), to record
// the arrival stream of a real simulation; unset it costs one nil
// compare per Acquire.
var acquireTap func(s *Server, at, dur Time)

// NewServer returns a named idle server.
func NewServer(name string) *Server { return &Server{name: name} }

// Name returns the server's name.
func (s *Server) Name() string { return s.name }

// Acquire reserves the server for dur starting no earlier than at,
// returning the grant time. Zero-duration acquisitions return at.
func (s *Server) Acquire(at, dur Time) (start Time) {
	if acquireTap != nil {
		acquireTap(s, at, dur)
	}
	s.uses++
	s.busyAcc += dur
	if at < s.cut {
		s.late++
	}
	if at > s.maxAt {
		s.maxAt = at
		if at > s.pruneAt {
			s.prune()
		}
		if s.head > 64 && 2*s.head >= len(s.busy) {
			s.compact()
		}
	}
	if dur == 0 {
		return at
	}
	n := len(s.busy)
	if s.head == n {
		// Ring empty (fresh server, or everything pruned): restart it.
		s.busy = append(s.busy[:0], interval{at, at + dur})
		s.head = 0
		s.pruneAt = at + dur + pruneWindow
		s.grow(at + dur)
		return at
	}
	// Fast path: the request lands at or after the calendar's last
	// reservation — the dominant case on a busy resource with (mostly)
	// monotone arrivals. Append, merging when contiguous.
	if last := &s.busy[n-1]; at >= last.end {
		if at == last.end {
			last.end = at + dur
		} else {
			s.busy = append(s.busy, interval{at, at + dur})
		}
		s.grow(at + dur)
		return at
	}
	// General path: find the first gap of length dur at or after `at`,
	// starting from the first interval ending after `at`. Ends ascend,
	// and busy[n-1].end > at. Gallop back from the tail in doubling
	// steps to bracket that interval in [lo, hi], then bisect the
	// bracket: O(log d) for a backfill d entries from the tail.
	lo, hi := s.head, n-1
	for step := 1; hi-step > lo; step <<= 1 {
		if s.busy[hi-step].end <= at {
			lo = hi - step + 1
			break
		}
		hi -= step
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.busy[mid].end <= at {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	start = at
	idx := lo
	for idx < n {
		iv := s.busy[idx]
		if start+dur <= iv.start {
			break // fits in the gap before this interval
		}
		if iv.end > start {
			start = iv.end
		}
		idx++
	}
	if idx == s.head && start+dur+pruneWindow < s.pruneAt {
		s.pruneAt = start + dur + pruneWindow // the insert becomes the head
	}
	s.insert(idx, interval{start, start + dur})
	s.grow(start + dur)
	return start
}

// grow records a new reservation end time for NextFree.
func (s *Server) grow(end Time) {
	if end > s.lastEnd {
		s.lastEnd = end
	}
}

// insert places iv at position idx of busy (idx >= head), merging with
// contiguous neighbors. When the ring has pruned slack at the front and
// the insertion point is nearer the head, the shorter head side shifts
// left into the slack instead of memmoving the tail right.
func (s *Server) insert(idx int, iv interval) {
	mergeLeft := idx > s.head && s.busy[idx-1].end == iv.start
	mergeRight := idx < len(s.busy) && s.busy[idx].start == iv.end
	switch {
	case mergeLeft && mergeRight:
		s.busy[idx-1].end = s.busy[idx].end
		s.busy = append(s.busy[:idx], s.busy[idx+1:]...)
	case mergeLeft:
		s.busy[idx-1].end = iv.end
	case mergeRight:
		s.busy[idx].start = iv.start
	case s.head > 0 && idx-s.head < len(s.busy)-idx:
		copy(s.busy[s.head-1:], s.busy[s.head:idx])
		s.head--
		s.busy[idx-1] = iv
	default:
		s.busy = append(s.busy, interval{})
		copy(s.busy[idx+1:], s.busy[idx:])
		s.busy[idx] = iv
	}
}

// prune advances the ring head past reservations that ended long before
// any possible future arrival and refreshes the pruneAt cache. Acquire
// calls it only when the latest arrival has passed pruneAt, so every
// call discards at least the head — except on a fresh server, whose
// empty ring only needs the cache set.
func (s *Server) prune() {
	if s.maxAt >= pruneWindow {
		cut := s.maxAt - pruneWindow
		h := s.head
		for h < len(s.busy) && s.busy[h].end < cut {
			h++
		}
		s.pruned += uint64(h - s.head)
		s.head = h
		s.cut = cut
	}
	if s.head < len(s.busy) {
		s.pruneAt = s.busy[s.head].end + pruneWindow
	} else {
		s.pruneAt = ^Time(0)
	}
}

// compact reclaims the dead prefix in one copy; Acquire calls it once
// the prefix is both large and the majority of the slice.
func (s *Server) compact() {
	live := copy(s.busy, s.busy[s.head:])
	s.busy = s.busy[:live]
	s.head = 0
	s.compactions++
}

// NextFree returns the time the server falls idle after every
// reservation granted so far: the end of the latest-ending booking.
// Unlike Reservations it is not affected by pruning — the answer is
// remembered even after the booking itself has been discarded — so a
// fresh server returns 0 and a used one never forgets its last grant.
func (s *Server) NextFree() Time { return s.lastEnd }

// BusyTime returns the total time reserved on the server.
func (s *Server) BusyTime() Time { return s.busyAcc }

// Uses returns the number of acquisitions.
func (s *Server) Uses() uint64 { return s.uses }

// Utilization returns reserved time divided by the window [0, end].
func (s *Server) Utilization(end Time) float64 {
	if end == 0 {
		return 0
	}
	return float64(s.busyAcc) / float64(end)
}

// Reservations returns the currently tracked busy intervals (tests).
// Reservations older than the prune window may already have been
// dropped; aggregate accounting (BusyTime, Uses, NextFree) survives
// pruning, the interval list does not.
func (s *Server) Reservations() [][2]Time {
	live := s.busy[s.head:]
	out := make([][2]Time, len(live))
	for i, iv := range live {
		out[i] = [2]Time{iv.start, iv.end}
	}
	return out
}

// Pipe models a pipelined link: each transfer occupies the server for an
// occupancy proportional to its size, and completes a fixed latency
// after service starts. Transfers of different requests overlap in the
// pipeline.
type Pipe struct {
	Server
	// BytesPerCycle is the link width; Clock gives the cycle time.
	BytesPerCycle uint64
	Clock         Clock
	// Latency is the pipeline depth: time from service start to delivery.
	Latency Time
}

// NewPipe returns a pipelined link.
func NewPipe(name string, bytesPerCycle uint64, clock Clock, latency Time) *Pipe {
	return &Pipe{
		Server:        Server{name: name},
		BytesPerCycle: bytesPerCycle,
		Clock:         clock,
		Latency:       latency,
	}
}

// Transfer moves nbytes through the pipe starting no earlier than at.
// It returns the time the last byte is delivered.
func (p *Pipe) Transfer(at Time, nbytes uint64) (done Time) {
	done, _ = p.TransferTracked(at, nbytes)
	return done
}

// TransferTracked is Transfer, additionally returning the arbitration
// wait: time from arrival at the link to service start (zero when the
// link was free). The latency-distribution layer records it as the NoC
// acquire wait.
func (p *Pipe) TransferTracked(at Time, nbytes uint64) (done, wait Time) {
	if nbytes == 0 {
		return at + p.Latency, 0
	}
	cycles := (nbytes + p.BytesPerCycle - 1) / p.BytesPerCycle
	start := p.Acquire(at, p.Clock.Cycles(cycles))
	return start + p.Clock.Cycles(cycles) + p.Latency, start - at
}
