package sim

import (
	"testing"
	"time"
)

// BenchmarkSyncFastPath measures a lone task repeatedly advancing and
// syncing. With no peer at an earlier timestamp the task is always
// globally minimal, so this is the pure cost of one Sync in the common
// streaming case: a heap-head compare, no yield.
func BenchmarkSyncFastPath(b *testing.B) {
	e := NewEngine()
	e.Spawn("solo", 0, func(t *Task) {
		for i := 0; i < b.N; i++ {
			t.Advance(10 * Nanosecond)
			t.Sync()
		}
	})
	b.ResetTimer()
	e.Run()
}

// BenchmarkSyncFastPathWatchdog is BenchmarkSyncFastPath with a watchdog
// armed but never firing: the Abort request never arrives, so the only
// extra work on the fast path is the strided abort poll — a decrement and
// branch, with one atomic abort-flag load every abortStride Syncs. The
// bench-check gate compares this against BenchmarkSyncFastPath's
// baseline to prove the watchdog's disabled cost stays one branch.
func BenchmarkSyncFastPathWatchdog(b *testing.B) {
	e := NewEngine()
	watchdog := time.AfterFunc(time.Hour, func() { e.Abort("bench watchdog") })
	defer watchdog.Stop()
	e.Spawn("solo", 0, func(t *Task) {
		for i := 0; i < b.N; i++ {
			t.Advance(10 * Nanosecond)
			t.Sync()
		}
	})
	b.ResetTimer()
	e.Run()
	if e.abortFlag.Load() {
		b.Fatal("watchdog fired during benchmark")
	}
}

// BenchmarkDispatch measures the contended dispatch path: 8 tasks in
// lockstep, so every Sync finds a peer at an earlier timestamp and must
// yield. Per event that is one coroutine switch to the dispatch loop,
// one replaceMin sift carrying the yielder, and one switch into the
// next task — no channel operation and no scheduler park/wake.
func BenchmarkDispatch(b *testing.B) {
	e := NewEngine()
	const tasks = 8
	per := b.N/tasks + 1
	for i := 0; i < tasks; i++ {
		e.Spawn("w", 0, func(t *Task) {
			for j := 0; j < per; j++ {
				t.Advance(10 * Nanosecond)
				t.Sync()
			}
		})
	}
	b.ResetTimer()
	e.Run()
}

// BenchmarkDispatchLockstep is the batched-wake case: 64 tasks all at
// the same timestamp, every dispatch an equal-time id tiebreak, so the
// loop walks the whole run queue each round — the N-cores-in-lockstep
// pattern of a barrier-synchronized multicore simulation, with a deeper
// heap behind every sift.
func BenchmarkDispatchLockstep(b *testing.B) {
	e := NewEngine()
	const tasks = 64
	per := b.N/tasks + 1
	for i := 0; i < tasks; i++ {
		e.Spawn("w", 0, func(t *Task) {
			for j := 0; j < per; j++ {
				t.Advance(10 * Nanosecond)
				t.Sync()
			}
		})
	}
	b.ResetTimer()
	e.Run()
}

// benchStepper is the inline twin of BenchmarkDispatch's worker body:
// advance 10ns per step until per steps have run.
type benchStepper struct{ n, per int }

func (s *benchStepper) Step(t *Task) Status {
	if s.n >= s.per {
		return StatusDone
	}
	s.n++
	t.Advance(10 * Nanosecond)
	return StatusRunning
}

// BenchmarkDispatchInline is BenchmarkDispatch with the 8 lockstep
// workers as inline state machines: every dispatch is a heap sift plus a
// plain function call on the dispatch loop — no coroutine switch. The
// gap between this and BenchmarkDispatchInlineGoroutine is the measured
// value of the inline representation, and bench-check pins the pair as
// a same-run ratio so host drift cannot fake a result.
func BenchmarkDispatchInline(b *testing.B) {
	e := NewEngine()
	const tasks = 8
	per := b.N/tasks + 1
	for i := 0; i < tasks; i++ {
		e.SpawnInline("w", 0, &benchStepper{per: per})
	}
	b.ResetTimer()
	e.Run()
}

// BenchmarkDispatchInlineGoroutine is BenchmarkDispatchInline with the
// identical Runnables forced onto coroutines (the noInline escape
// hatch): the same-day A/B control measuring exactly what the inline
// representation removes — the dispatch-path difference with zero
// workload-code difference.
func BenchmarkDispatchInlineGoroutine(b *testing.B) {
	e := NewEngine()
	e.noInline = true
	const tasks = 8
	per := b.N/tasks + 1
	for i := 0; i < tasks; i++ {
		e.SpawnInline("w", 0, &benchStepper{per: per})
	}
	b.ResetTimer()
	e.Run()
}

// BenchmarkSyncFastPathInline is BenchmarkSyncFastPath for a lone inline
// task: always globally minimal, so every step takes the inline spin —
// no heap traffic at all, just the Step call and the clock bump.
func BenchmarkSyncFastPathInline(b *testing.B) {
	e := NewEngine()
	e.SpawnInline("solo", 0, &benchStepper{per: b.N})
	b.ResetTimer()
	e.Run()
}

// BenchmarkFlightRecorderDisabled is BenchmarkDispatchInline with the
// flight recorder explicitly disarmed: the record sites compile to one
// always-false nil compare per dispatch. bench-check pins this against
// BenchmarkDispatchInline as a same-run ratio to prove the disabled
// recorder costs nothing on the hot dispatch path.
func BenchmarkFlightRecorderDisabled(b *testing.B) {
	e := NewEngine()
	e.SetFlightRecorder(0)
	const tasks = 8
	per := b.N/tasks + 1
	for i := 0; i < tasks; i++ {
		e.SpawnInline("w", 0, &benchStepper{per: per})
	}
	b.ResetTimer()
	e.Run()
}

// BenchmarkFlightRecorderEnabled arms a 256-event ring on the same
// workload: per dispatch, the extra work is one masked ring store — the
// price every fresh paperbench simulation pays for crash forensics.
func BenchmarkFlightRecorderEnabled(b *testing.B) {
	e := NewEngine()
	e.SetFlightRecorder(256)
	const tasks = 8
	per := b.N/tasks + 1
	for i := 0; i < tasks; i++ {
		e.SpawnInline("w", 0, &benchStepper{per: per})
	}
	b.ResetTimer()
	e.Run()
	if e.fr == nil || e.fr.n == 0 {
		b.Fatal("recorder armed but no events recorded")
	}
}
