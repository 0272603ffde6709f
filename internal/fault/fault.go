// Package fault provides deterministic failure injection for the run
// layer's robustness tests: workloads that deadlock, stall forever,
// panic, fail verification, fail transiently, or move a core's clock
// without charging its cycle ledger, plus deliberately
// corrupted configurations. Every fault fires from the simulation's own
// deterministic state (task IDs, attempt counters) — never the clock —
// so an injected failure reproduces identically on every run.
//
// The fault workloads are NOT registered by package init: call
// RegisterWorkloads from a test so production binaries never see them.
package fault

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/sim"
	"repro/internal/syncprim"
	"repro/internal/workload"
)

// Workload names injected by RegisterWorkloads.
const (
	Deadlock  = "fault-deadlock"  // core 0 exits holding the lock the rest acquire
	Stall     = "fault-stall"     // every core advances simulated time forever
	Panic     = "fault-panic"     // panics on every core except core 0
	Flaky     = "fault-flaky"     // panics while the SetFlakyFailures budget lasts
	BadVerify = "fault-badverify" // computes fine, fails verification
	Uncharged = "fault-uncharged" // core 0 moves its clock without charging a class
)

var registerOnce sync.Once

// RegisterWorkloads adds the fault workloads to the workload registry.
// Safe to call from multiple tests; registration happens once per
// process.
func RegisterWorkloads() {
	registerOnce.Do(func() {
		workload.Register(Deadlock, func(workload.Scale) core.Workload { return &deadlockWorkload{} })
		workload.Register(Stall, func(workload.Scale) core.Workload { return stallWorkload{} })
		workload.Register(Panic, func(workload.Scale) core.Workload { return panicWorkload{} })
		workload.Register(Flaky, func(workload.Scale) core.Workload { return flakyWorkload{} })
		workload.Register(BadVerify, func(workload.Scale) core.Workload { return badVerifyWorkload{} })
		workload.Register(Uncharged, func(workload.Scale) core.Workload { return unchargedWorkload{} })
	})
}

// deadlockWorkload drives the machine into a true synchronization
// deadlock: core 0 wins the lock race and finishes without releasing,
// every other core blocks in Acquire. On one core it degenerates to a
// clean (if useless) run, so use at least two cores to inject.
type deadlockWorkload struct{ lock *syncprim.Lock }

func (w *deadlockWorkload) Name() string           { return Deadlock }
func (w *deadlockWorkload) Setup(sys *core.System) { w.lock = syncprim.NewLock("fault.poison") }
func (w *deadlockWorkload) Run(p *cpu.Proc) {
	if p.ID() == 0 {
		w.lock.Acquire(p)
		return // exits still holding the lock
	}
	p.WaitUntil(100 * sim.Nanosecond) // let core 0 win the race
	w.lock.Acquire(p)
	w.lock.Release(p)
}
func (w *deadlockWorkload) Verify() error { return nil }

// stallWorkload never finishes: simulated time advances forever. With
// MaxSimTime disabled it runs until something outside the simulation
// (the per-job watchdog) aborts it; with MaxSimTime set it trips the
// livelock net instead.
type stallWorkload struct{}

func (stallWorkload) Name() string           { return Stall }
func (stallWorkload) Setup(sys *core.System) {}
func (stallWorkload) Run(p *cpu.Proc) {
	for {
		p.Work(1000)
		p.Task().Sync()
	}
}
func (stallWorkload) Verify() error { return nil }

// panicWorkload panics in workload code on every core but core 0, so a
// one-core baseline succeeds while any parallel configuration fails —
// exactly one poisoned region of a figure grid.
type panicWorkload struct{}

func (panicWorkload) Name() string           { return Panic }
func (panicWorkload) Setup(sys *core.System) {}
func (panicWorkload) Run(p *cpu.Proc) {
	if p.ID() != 0 {
		panic(fmt.Sprintf("fault: injected panic on core %d", p.ID()))
	}
	p.Work(1000)
}
func (panicWorkload) Verify() error { return nil }

// flakyBudget is the number of upcoming fault-flaky runs that will
// panic. It is process-global (each attempt constructs a fresh workload
// instance, so per-instance state cannot survive a retry); tests using
// Flaky must not run fault-flaky jobs concurrently.
var flakyBudget atomic.Int64

// SetFlakyFailures arms fault-flaky: the next n runs panic, subsequent
// runs succeed. The retry loop is its consumer — a job with a retry
// budget of at least n recovers, one with less fails.
func SetFlakyFailures(n int) { flakyBudget.Store(int64(n)) }

type flakyWorkload struct{}

func (flakyWorkload) Name() string           { return Flaky }
func (flakyWorkload) Setup(sys *core.System) {}
func (flakyWorkload) Run(p *cpu.Proc) {
	if p.ID() == 0 && flakyBudget.Add(-1) >= 0 {
		panic("fault: injected transient failure")
	}
	p.Work(1000)
}
func (flakyWorkload) Verify() error { return nil }

// badVerifyWorkload simulates cleanly and then reports a wrong answer.
type badVerifyWorkload struct{}

func (badVerifyWorkload) Name() string           { return BadVerify }
func (badVerifyWorkload) Setup(sys *core.System) {}
func (badVerifyWorkload) Run(p *cpu.Proc)        { p.Work(1000) }
func (badVerifyWorkload) Verify() error {
	return fmt.Errorf("fault: injected verification failure (checksum mismatch)")
}

// UnchargedGap is how far fault-uncharged moves core 0's clock without
// charging its cycle ledger.
const UnchargedGap = sim.Microsecond

// unchargedWorkload is a charge-site bug in miniature: core 0 moves its
// clock straight on the task, so its cycle classes fall UnchargedGap
// short of its finish time.
type unchargedWorkload struct{}

func (unchargedWorkload) Name() string           { return Uncharged }
func (unchargedWorkload) Setup(sys *core.System) {}
func (unchargedWorkload) Run(p *cpu.Proc) {
	p.Work(1000)
	if p.ID() == 0 {
		p.Task().Advance(UnchargedGap)
	}
}
func (unchargedWorkload) Verify() error { return nil }

// CorruptedConfigs returns configurations corrupted one field at a time,
// keyed by the Config field that Validate must report. The run layer's
// tests prove each fails typed, synchronously, and before any simulation
// goroutine spawns.
func CorruptedConfigs() map[string]core.Config {
	out := map[string]core.Config{}
	mk := func(field string, mutate func(*core.Config)) {
		cfg := core.DefaultConfig(core.CC, 4)
		mutate(&cfg)
		out[field] = cfg
	}
	mk("Cores", func(c *core.Config) { c.Cores = -4 })
	mk("CoreMHz", func(c *core.Config) { c.CoreMHz = 0 })
	mk("Model", func(c *core.Config) { c.Model = core.Model(42) })
	mk("PrefetchDepth", func(c *core.Config) { c.Model = core.STR; c.PrefetchDepth = 4 })
	mk("StoreBuffer", func(c *core.Config) { c.StoreBuffer = -1 })
	return out
}
