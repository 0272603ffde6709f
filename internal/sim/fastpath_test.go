package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// TestDeadlockMessageNamesBlockedTasks pins the deadlock diagnostic: the
// panic must name every blocked task, sorted, so a model bug is
// attributable without a debugger.
func TestDeadlockMessageNamesBlockedTasks(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected deadlock panic")
		}
		msg := fmt.Sprint(r)
		want := "sim: deadlock: blocked tasks: alpha, beta"
		if !strings.Contains(msg, want) {
			t.Fatalf("deadlock panic = %q, want it to contain %q", msg, want)
		}
	}()
	e := NewEngine()
	e.Spawn("beta", 5, func(tk *Task) { tk.Block() })
	e.Spawn("alpha", 0, func(tk *Task) { tk.Block() })
	e.Run()
}

// TestDeadlockMessageNamesServerAndSyncTime pins the labeled deadlock
// diagnostic: a task parked on a resource via BlockOn — here waiting for
// a Server, the pattern the model layers use for contended hardware —
// must show up with the server's name and the task's last sync time, so
// a resource deadlock is attributable to the resource, not just the
// tasks. Unlabeled blockers must keep rendering as bare names alongside.
func TestDeadlockMessageNamesServerAndSyncTime(t *testing.T) {
	srv := NewServer("dram.ch0")
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected deadlock panic")
		}
		msg := fmt.Sprint(r)
		want := "sim: deadlock: blocked tasks: plain, waiter (awaiting server dram.ch0, last sync 300.000ns)"
		if !strings.Contains(msg, want) {
			t.Fatalf("deadlock panic = %q, want it to contain %q", msg, want)
		}
		de, ok := r.(*DeadlockError)
		if !ok {
			t.Fatalf("deadlock panic value = %T, want *DeadlockError", r)
		}
		for _, ts := range de.State.Tasks {
			if ts.Name == "waiter" {
				if ts.WaitingOn != "server dram.ch0" || ts.Time != 300*Nanosecond {
					t.Fatalf("waiter snapshot = %+v, want WaitingOn=%q Time=300ns", ts, "server dram.ch0")
				}
			}
		}
	}()
	e := NewEngine()
	e.Spawn("waiter", 0, func(tk *Task) {
		tk.Advance(300 * Nanosecond)
		tk.Sync()
		srv.Acquire(tk.Time(), 100*Nanosecond)
		tk.BlockOn("server " + srv.Name())
	})
	e.Spawn("plain", 10, func(tk *Task) { tk.Block() })
	e.Run()
}

// step is one observable scheduling event: a task returning from Sync at
// a local time. The sequence of steps is the engine's event order.
type step struct {
	id int
	tm Time
}

// runInterleaveStress runs two twin tasks in lockstep (every Sync is a
// tiebreak on equal timestamps, forcing the slow path) alongside a
// fine-grained task that stays behind them (its Syncs are all fast-path
// eligible), so both dispatch paths interleave constantly.
func runInterleaveStress(disableFastPath bool) []step {
	e := NewEngine()
	e.noFastPath = disableFastPath
	var order []step
	for i := 0; i < 2; i++ {
		id := i
		e.Spawn("twin", 0, func(tk *Task) {
			for j := 0; j < 500; j++ {
				tk.Advance(10)
				tk.Sync()
				order = append(order, step{id, tk.Time()})
			}
		})
	}
	e.Spawn("fine", 0, func(tk *Task) {
		for j := 0; j < 5000; j++ {
			tk.Advance(1)
			tk.Sync()
			order = append(order, step{2, tk.Time()})
		}
	})
	e.Run()
	return order
}

// TestFastSlowPathInterleave asserts the stress schedule is deterministic
// and identical with the fast path enabled and disabled, including the
// equal-timestamp id tiebreak between the twins.
func TestFastSlowPathInterleave(t *testing.T) {
	fast := runInterleaveStress(false)
	again := runInterleaveStress(false)
	slow := runInterleaveStress(true)
	if len(fast) != 2*500+5000 {
		t.Fatalf("recorded %d steps, want %d", len(fast), 2*500+5000)
	}
	for i := range fast {
		if fast[i] != again[i] {
			t.Fatalf("step %d differs across identical runs: %v vs %v", i, fast[i], again[i])
		}
		if fast[i] != slow[i] {
			t.Fatalf("step %d differs with fast path off: fast %v, slow %v", i, fast[i], slow[i])
		}
	}
	// The twins' mutual order at equal timestamps must follow spawn id.
	var twins []step
	for _, s := range fast {
		if s.id < 2 {
			twins = append(twins, s)
		}
	}
	for i := 0; i < len(twins); i += 2 {
		if twins[i].tm != twins[i+1].tm {
			t.Fatalf("twin steps %d,%d at different times: %v", i, i+1, twins[i:i+2])
		}
	}
}

// dispatchMode is one setting of the fast-path switch for coroutine-only
// schedules; inline_test.go crosses it with the inline representation.
type dispatchMode struct {
	name       string
	noFastPath bool
}

// dispatchModes enumerates both dispatch configurations. The first
// entry is the production default; the other must produce the same
// simulated timestamps.
var dispatchModes = []dispatchMode{
	{"fastpath", false},
	{"dispatch loop only", true},
}

// TestFastPathScheduleEquivalence is the randomized-schedule oracle: for
// many random task sets (random start times, random per-step advances
// including zero, so equal timestamps are common), the observable event
// order must be byte-for-byte identical with the Sync fast path on and
// off. This is the determinism proof obligation of the fast path (see
// the Engine doc comment).
func TestFastPathScheduleEquivalence(t *testing.T) {
	runSchedule := func(seed int64, mode dispatchMode) []step {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		e.noFastPath = mode.noFastPath
		var order []step
		nTasks := 2 + rng.Intn(6)
		for i := 0; i < nTasks; i++ {
			id := i
			steps := 20 + rng.Intn(80)
			deltas := make([]Time, steps)
			for j := range deltas {
				deltas[j] = Time(rng.Intn(5)) // zeros exercise the tiebreak
			}
			e.Spawn(fmt.Sprintf("t%d", i), Time(rng.Intn(3)), func(tk *Task) {
				for _, d := range deltas {
					tk.Advance(d)
					tk.Sync()
					order = append(order, step{id, tk.Time()})
				}
			})
		}
		e.Run()
		return order
	}
	for seed := int64(0); seed < 50; seed++ {
		ref := runSchedule(seed, dispatchModes[0])
		for _, mode := range dispatchModes[1:] {
			got := runSchedule(seed, mode)
			if len(got) != len(ref) {
				t.Fatalf("seed %d: %d steps in %s, %d in %s",
					seed, len(ref), dispatchModes[0].name, len(got), mode.name)
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("seed %d: step %d diverges: %s %v, %s %v",
						seed, i, dispatchModes[0].name, ref[i], mode.name, got[i])
				}
			}
		}
	}
}

// TestHandoffBlockScheduleEquivalence extends the oracle to the
// Block/Unblock edges (the name is from the task-to-task handoff it was
// first written against): tasks randomly block themselves on a FIFO
// wait list that the next runner drains, so blocks with runnable peers
// and wake ordering interleave with plain Syncs. Both fast-path
// settings must produce the identical step sequence, including each
// task's wake times.
func TestHandoffBlockScheduleEquivalence(t *testing.T) {
	runSchedule := func(seed int64, mode dispatchMode) []step {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		e.noFastPath = mode.noFastPath
		var order []step
		var waiting []*Task // FIFO of blocked tasks; engine is single-threaded
		liveWorkers := 0
		nTasks := 3 + rng.Intn(5)
		for i := 0; i < nTasks; i++ {
			id := i
			steps := 30 + rng.Intn(50)
			choices := make([]int, steps)
			for j := range choices {
				choices[j] = rng.Intn(10)
			}
			liveWorkers++
			e.Spawn(fmt.Sprintf("t%d", i), Time(rng.Intn(3)), func(tk *Task) {
				for _, c := range choices {
					tk.Advance(Time(c % 5))
					tk.Sync()
					// Wake every current waiter now and then so blocked
					// tasks drain from inside the schedule too.
					for len(waiting) > 0 && c%3 == 0 {
						w := waiting[0]
						waiting = waiting[1:]
						w.Unblock(tk.Time() + Time(c%4))
					}
					// Task 0 never blocks, so the wait list always has a
					// potential drainer among the workers.
					if id != 0 && c%4 == 1 {
						waiting = append(waiting, tk)
						tk.BlockOn("test wait list")
					}
					order = append(order, step{id, tk.Time()})
				}
				liveWorkers--
			})
		}
		// A sweeper in the far future unblocks leftover waiters until every
		// worker has finished (a worker may re-block after a wake, so the
		// sweeper must outlive them all, not just drain the list once).
		e.Spawn("sweeper", 1_000_000, func(tk *Task) {
			for liveWorkers > 0 {
				if len(waiting) > 0 {
					w := waiting[0]
					waiting = waiting[1:]
					w.Unblock(tk.Time())
				}
				tk.Advance(1)
				tk.Sync()
			}
		})
		e.Run()
		return order
	}
	for seed := int64(0); seed < 30; seed++ {
		ref := runSchedule(seed, dispatchModes[0])
		for _, mode := range dispatchModes[1:] {
			got := runSchedule(seed, mode)
			if len(got) != len(ref) {
				t.Fatalf("seed %d: %d steps in %s, %d in %s",
					seed, len(ref), dispatchModes[0].name, len(got), mode.name)
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("seed %d: step %d diverges: %s %v, %s %v",
						seed, i, dispatchModes[0].name, ref[i], mode.name, got[i])
				}
			}
		}
	}
}

// TestTaskHeapOrdering drives the specialized 4-ary heap directly with
// interleaved pushes and pops and checks it against a sorted reference.
func TestTaskHeapOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h taskHeap
	var ref []*Task
	popRef := func() *Task {
		sort.SliceStable(ref, func(i, j int) bool { return ref[i].before(ref[j]) })
		m := ref[0]
		ref = ref[1:]
		return m
	}
	id := 0
	for round := 0; round < 2000; round++ {
		if len(ref) == 0 || rng.Intn(3) != 0 {
			tk := &Task{id: id, time: Time(rng.Intn(50))}
			id++
			h.push(tk)
			ref = append(ref, tk)
		} else {
			want := popRef()
			if got := h.peek(); got != want {
				t.Fatalf("round %d: peek = (%d,%d), want (%d,%d)", round, got.time, got.id, want.time, want.id)
			}
			if got := h.pop(); got != want {
				t.Fatalf("round %d: pop = (%d,%d), want (%d,%d)", round, got.time, got.id, want.time, want.id)
			}
		}
	}
	for len(ref) > 0 {
		want := popRef()
		if got := h.pop(); got != want {
			t.Fatalf("drain: pop = (%d,%d), want (%d,%d)", got.time, got.id, want.time, want.id)
		}
	}
	if h.len() != 0 {
		t.Fatalf("heap not empty after drain: %d left", h.len())
	}
}

// TestTaskHeapReplaceMin drives replaceMin (the dispatch loop's carry
// single-sift push+pop) against the plain push-then-pop reference on a
// second heap fed the identical operation stream: the returned minimum
// and the surviving key set must match at every step.
func TestTaskHeapReplaceMin(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var h, ref taskHeap
	id := 0
	mk := func() *Task {
		tk := &Task{id: id, time: Time(rng.Intn(40))}
		id++
		return tk
	}
	drain := func(h *taskHeap) []*Task {
		var out []*Task
		for h.len() > 0 {
			out = append(out, h.pop())
		}
		for _, tk := range out { // restore
			h.push(tk)
		}
		return out
	}
	for round := 0; round < 3000; round++ {
		switch {
		case h.len() == 0 || rng.Intn(4) == 0:
			tk := mk()
			h.push(tk)
			ref.push(tk)
		case rng.Intn(3) == 0:
			got, want := h.pop(), ref.pop()
			if got != want {
				t.Fatalf("round %d: pop = (%d,%d), want (%d,%d)", round, got.time, got.id, want.time, want.id)
			}
		default:
			tk := mk()
			got := h.replaceMin(tk)
			ref.push(tk)
			want := ref.pop()
			if got != want {
				t.Fatalf("round %d: replaceMin = (%d,%d), want (%d,%d)", round, got.time, got.id, want.time, want.id)
			}
		}
		a, b := drain(&h), drain(&ref)
		if len(a) != len(b) {
			t.Fatalf("round %d: heap sizes diverge: %d vs %d", round, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("round %d: pop order diverges at %d", round, i)
			}
		}
	}
	// Empty-heap and wins-outright cases: replaceMin must return the
	// pushed task untouched and leave the heap alone.
	var empty taskHeap
	tk := &Task{id: 9999, time: 5}
	if got := empty.replaceMin(tk); got != tk || empty.len() != 0 {
		t.Fatalf("replaceMin on empty heap = %v (len %d), want the task back, len 0", got, empty.len())
	}
	empty.push(&Task{id: 10000, time: 50})
	if got := empty.replaceMin(tk); got != tk || empty.len() != 1 {
		t.Fatalf("replaceMin with winning task = %v (len %d), want the task back, len 1", got, empty.len())
	}
}

// TestServerNextFreeSurvivesPruning pins the post-prune semantics: the
// interval ring may forget old bookings (Reservations shrinks), but
// NextFree keeps answering with the end of the latest-ending reservation
// ever granted.
func TestServerNextFreeSurvivesPruning(t *testing.T) {
	s := NewServer("x")
	if s.NextFree() != 0 {
		t.Fatalf("fresh server NextFree = %v, want 0", s.NextFree())
	}
	s.Acquire(0, 10)
	if s.NextFree() != 10 {
		t.Fatalf("NextFree = %v, want 10", s.NextFree())
	}
	// A zero-duration arrival far in the future books nothing but
	// advances the prune horizon past the only reservation.
	s.Acquire(5*pruneWindow, 0)
	if n := len(s.Reservations()); n != 0 {
		t.Fatalf("%d reservations tracked after pruning, want 0", n)
	}
	if s.NextFree() != 10 {
		t.Fatalf("NextFree after pruning = %v, want 10 (pruning must not forget bookings)", s.NextFree())
	}
	// A real booking after the wipe restarts the ring and NextFree moves.
	at := 5*pruneWindow + 3
	s.Acquire(at, 7)
	if s.NextFree() != at+7 {
		t.Fatalf("NextFree = %v, want %v", s.NextFree(), at+7)
	}
	if n := len(s.Reservations()); n != 1 {
		t.Fatalf("%d reservations tracked, want 1", n)
	}
}

// TestServerBackfillWithPrunedSlack exercises the middle-insert path that
// shifts the short head side into pruned slack instead of memmoving the
// tail.
func TestServerBackfillWithPrunedSlack(t *testing.T) {
	s := NewServer("x")
	// 1us bookings every 2us: the live window holds ~100 of them and the
	// ring accumulates pruned slack at the front as arrivals march on.
	for i := Time(0); i < 200; i++ {
		s.Acquire(i*2*Microsecond, Microsecond)
	}
	ivs := s.Reservations()
	live := len(ivs)
	if live >= 200 {
		t.Fatalf("pruning kept %d reservations, want far fewer", live)
	}
	// Backfill a sliver into the gap right after the first live interval.
	// The insertion point is one slot past the ring head with pruned
	// slack in front, so this takes the head-shift branch of insert.
	at := ivs[0][1] + 100 // strictly inside the gap, touching neither neighbor
	got := s.Acquire(at, 100)
	if got != at {
		t.Fatalf("backfill grant = %v, want %v", got, at)
	}
	ivs = s.Reservations()
	if len(ivs) != live+1 {
		t.Fatalf("%d reservations after backfill, want %d", len(ivs), live+1)
	}
	// The calendar must remain sorted and disjoint after the shift.
	for i := 1; i < len(ivs); i++ {
		if ivs[i][0] < ivs[i-1][1] {
			t.Fatalf("intervals overlap after head-shift insert: %v then %v", ivs[i-1], ivs[i])
		}
	}
}
