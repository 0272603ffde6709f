// End-to-end robustness proof: every injected fault must come back from
// the run layer as a structured, typed failure — never a crashed
// process, a hung pool or a silently wrong figure. The suite runs under
// the race detector in CI (make fault).
package fault_test

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestMain(m *testing.M) {
	fault.RegisterWorkloads()
	m.Run()
}

// recorder collects Records concurrency-safely.
type recorder struct {
	mu   sync.Mutex
	recs []bench.Record
}

func (c *recorder) add(r bench.Record) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.recs = append(c.recs, r)
}

func newRunner(rec *recorder) *bench.Runner {
	r := bench.NewRunner(workload.ScaleSmall)
	r.Workers = 2
	if rec != nil {
		r.OnRecord = rec.add
	}
	return r
}

// TestDeadlockProducesTypedRecord injects a synchronization deadlock and
// checks the whole failure path: typed JobError, engine-state snapshot
// naming the contended lock, and a manifest record carrying both.
func TestDeadlockProducesTypedRecord(t *testing.T) {
	rec := &recorder{}
	r := newRunner(rec)
	defer r.Close()
	rep, err := r.Run(core.DefaultConfig(core.CC, 4), fault.Deadlock)
	if rep != nil || err == nil {
		t.Fatalf("rep=%v err=%v, want typed failure", rep, err)
	}
	var jerr *bench.JobError
	if !errors.As(err, &jerr) {
		t.Fatalf("err = %#v, want *bench.JobError", err)
	}
	if jerr.Kind != bench.ErrDeadlock {
		t.Fatalf("kind = %q, want deadlock", jerr.Kind)
	}
	if jerr.State == nil || len(jerr.State.Tasks) == 0 {
		t.Fatalf("deadlock JobError carries no engine state: %+v", jerr)
	}
	if len(jerr.State.Recent) == 0 || jerr.State.EventsRecorded == 0 {
		t.Fatalf("deadlock state has no flight-recorder tail: %+v", jerr.State)
	}
	for _, ev := range jerr.State.Recent {
		if ev.Kind == "" || ev.Task == "" {
			t.Fatalf("flight event missing kind or task name: %+v", ev)
		}
	}
	if !strings.Contains(jerr.Error(), "awaiting lock fault.poison") {
		t.Fatalf("error %q does not name the contended lock", jerr.Error())
	}
	if jerr.Retryable() {
		t.Fatal("deadlock must not be retryable: it is deterministic")
	}
	if len(rec.recs) != 1 {
		t.Fatalf("got %d records, want 1", len(rec.recs))
	}
	rc := rec.recs[0]
	if rc.ErrKind != "deadlock" || rc.EngineState == nil || rc.Attempts != 1 {
		t.Fatalf("record = %+v, want deadlock kind with engine state", rc)
	}
}

// TestWatchdogAbortsStall proves the wall-clock watchdog end to end: a
// simulation that would run forever is cancelled cooperatively and
// fails as a timeout with a progress dump.
func TestWatchdogAbortsStall(t *testing.T) {
	r := newRunner(nil)
	defer r.Close()
	r.JobTimeout = 50 * time.Millisecond
	cfg := core.DefaultConfig(core.CC, 2)
	cfg.MaxSimTime = 0 // disable the livelock net; the watchdog must act
	_, err := r.Run(cfg, fault.Stall)
	var jerr *bench.JobError
	if !errors.As(err, &jerr) {
		t.Fatalf("err = %#v, want *bench.JobError", err)
	}
	if jerr.Kind != bench.ErrTimeout {
		t.Fatalf("kind = %q, want timeout", jerr.Kind)
	}
	var ae *sim.AbortError
	if !errors.As(jerr.Err, &ae) {
		t.Fatalf("underlying err = %#v, want *sim.AbortError", jerr.Err)
	}
	if !strings.Contains(ae.Reason, "watchdog: job exceeded 50ms") {
		t.Fatalf("abort reason = %q", ae.Reason)
	}
	if jerr.State == nil || len(jerr.State.Tasks) == 0 || jerr.State.HeapDepth < 0 {
		t.Fatalf("timeout carries no progress dump: %+v", jerr.State)
	}
	if len(jerr.State.Recent) == 0 {
		t.Fatalf("timeout state has no flight-recorder tail: %+v", jerr.State)
	}
}

// TestWatchdogAbortMidHandoff is the slow-path dispatch regression at
// the run layer (named for the task-to-task handoff the dispatch loop
// replaced): with 8 cores advancing in lockstep, every Sync yields to
// the loop, so the watchdog's Abort necessarily lands between a yield
// and the loop's next pop. It must still surface as a typed timeout
// record whose EngineState snapshot is coherent — all stalled cores
// accounted for, none stuck "running" — and whose engine metrics prove
// the loop was resuming yielded cores when it died.
func TestWatchdogAbortMidHandoff(t *testing.T) {
	rec := &recorder{}
	r := newRunner(rec)
	defer r.Close()
	r.JobTimeout = 50 * time.Millisecond
	cfg := core.DefaultConfig(core.CC, 8)
	cfg.MaxSimTime = 0 // disable the livelock net; the watchdog must act
	_, err := r.Run(cfg, fault.Stall)
	var jerr *bench.JobError
	if !errors.As(err, &jerr) {
		t.Fatalf("err = %#v, want *bench.JobError", err)
	}
	if jerr.Kind != bench.ErrTimeout {
		t.Fatalf("kind = %q, want timeout", jerr.Kind)
	}
	var ae *sim.AbortError
	if !errors.As(jerr.Err, &ae) {
		t.Fatalf("underlying err = %#v, want *sim.AbortError", jerr.Err)
	}
	st := ae.EngineState()
	if st.Metrics.Handoffs != 0 || st.Metrics.SyncSlow == 0 || st.Metrics.Dispatches <= 8 {
		t.Fatalf("stall aborted without slow-path dispatches by the loop: %+v", st.Metrics)
	}
	cores := 0
	for _, ts := range st.Tasks {
		if ts.State == "running" {
			t.Fatalf("task %q snapshotted as running after abort: the loop lost its carried task (%+v)", ts.Name, st.Tasks)
		}
		if strings.HasPrefix(ts.Name, "core") {
			cores++
		}
	}
	if cores != 8 {
		t.Fatalf("snapshot accounts for %d core tasks, want 8: %+v", cores, st.Tasks)
	}
	if len(rec.recs) != 1 || rec.recs[0].ErrKind != "timeout" || rec.recs[0].EngineState == nil {
		t.Fatalf("manifest record = %+v, want one timeout record with engine state", rec.recs)
	}
	// The loop was resuming cores when it died, so the recorded tail
	// must say so: flight events are ordered by the same coroutine
	// switches as the scheduler state, making this snapshot coherent
	// without locks.
	dispatches := 0
	for _, ev := range rec.recs[0].EngineState.Recent {
		if ev.Kind == "dispatch" {
			dispatches++
		}
	}
	if dispatches == 0 {
		t.Fatalf("stall recorded no dispatch events: %+v", rec.recs[0].EngineState.Recent)
	}
}

// TestLivelockNetCatchesStall is the same stall under MaxSimTime: the
// engine's own bound fires instead of the watchdog.
func TestLivelockNetCatchesStall(t *testing.T) {
	r := newRunner(nil)
	defer r.Close()
	cfg := core.DefaultConfig(core.CC, 1)
	cfg.MaxSimTime = 10 * sim.Microsecond
	_, err := r.Run(cfg, fault.Stall)
	var jerr *bench.JobError
	if !errors.As(err, &jerr) || jerr.Kind != bench.ErrLivelock {
		t.Fatalf("err = %v, want livelock JobError", err)
	}
}

// TestRetryRecoversFlaky arms one transient failure and gives the job a
// retry budget: the first attempt panics, the second succeeds, and the
// pool reports one clean fresh simulation.
func TestRetryRecoversFlaky(t *testing.T) {
	rec := &recorder{}
	r := newRunner(rec)
	defer r.Close()
	r.Retries = 2
	fault.SetFlakyFailures(1)
	rep, err := r.Run(core.DefaultConfig(core.CC, 1), fault.Flaky)
	if err != nil || rep == nil {
		t.Fatalf("rep=%v err=%v, want recovered success", rep, err)
	}
	ok, failed := r.Outcome()
	if ok != 1 || failed != 0 {
		t.Fatalf("outcome = %d ok / %d failed, want 1/0", ok, failed)
	}
	if len(rec.recs) != 1 || rec.recs[0].Err != "" {
		t.Fatalf("records = %+v, want one clean record", rec.recs)
	}
}

// TestRetryBudgetExhausted injects more failures than the budget covers:
// the job fails as a panic after retries, and Attempts counts them all.
func TestRetryBudgetExhausted(t *testing.T) {
	r := newRunner(nil)
	defer r.Close()
	r.Retries = 1
	fault.SetFlakyFailures(10)
	defer fault.SetFlakyFailures(0)
	_, err := r.Run(core.DefaultConfig(core.CC, 1), fault.Flaky)
	var jerr *bench.JobError
	if !errors.As(err, &jerr) {
		t.Fatalf("err = %#v, want *bench.JobError", err)
	}
	if jerr.Kind != bench.ErrPanic || jerr.Attempts != 2 {
		t.Fatalf("kind=%q attempts=%d, want panic after 2 attempts", jerr.Kind, jerr.Attempts)
	}
	if !jerr.Retryable() {
		t.Fatal("panic kind must be retryable")
	}
}

// TestCorruptConfigsFailTyped proves config corruption is caught by
// validation — synchronously, with the corrupted field named, before
// any simulation goroutine spawns.
func TestCorruptConfigsFailTyped(t *testing.T) {
	r := newRunner(nil)
	defer r.Close()
	r.Retries = 3 // must not matter: config errors are never retried
	for field, cfg := range fault.CorruptedConfigs() {
		_, err := r.Run(cfg, fault.BadVerify)
		var jerr *bench.JobError
		if !errors.As(err, &jerr) {
			t.Fatalf("%s: err = %#v, want *bench.JobError", field, err)
		}
		if jerr.Kind != bench.ErrConfig || jerr.Attempts != 1 {
			t.Fatalf("%s: kind=%q attempts=%d, want config/1", field, jerr.Kind, jerr.Attempts)
		}
		fes := core.FieldErrors(jerr.Err)
		if len(fes) == 0 {
			t.Fatalf("%s: no field errors in %v", field, jerr.Err)
		}
		found := false
		for _, fe := range fes {
			if fe.Field == field {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s: field not named in %v", field, jerr.Err)
		}
	}
}

// TestBadVerifyNotRetried: a wrong answer is deterministic, so the
// retry budget must not burn attempts on it.
func TestBadVerifyNotRetried(t *testing.T) {
	r := newRunner(nil)
	defer r.Close()
	r.Retries = 3
	_, err := r.Run(core.DefaultConfig(core.CC, 2), fault.BadVerify)
	var jerr *bench.JobError
	if !errors.As(err, &jerr) {
		t.Fatalf("err = %#v, want *bench.JobError", err)
	}
	if jerr.Kind != bench.ErrVerify || jerr.Attempts != 1 {
		t.Fatalf("kind=%q attempts=%d, want verify/1", jerr.Kind, jerr.Attempts)
	}
	if !strings.Contains(jerr.Error(), "checksum mismatch") {
		t.Fatalf("error %q lost the verification detail", jerr.Error())
	}
}

// TestFigureRendersWithErrCells is the graceful-degradation proof: a
// figure whose parallel runs all fail still renders — failed cells
// marked ERR, a summary line, and a typed GridError — instead of
// aborting on the first bad cell.
func TestFigureRendersWithErrCells(t *testing.T) {
	r := newRunner(nil)
	defer r.Close()
	var buf bytes.Buffer
	// fault-panic succeeds on 1 core (the baseline) and panics on every
	// parallel configuration: 1 ok cell, 8 ERR cells.
	out, err := r.Figure2(&buf, []string{fault.Panic})
	var gerr *bench.GridError
	if !errors.As(err, &gerr) {
		t.Fatalf("err = %#v, want *bench.GridError", err)
	}
	if gerr.OK != 1 || gerr.Failed != 8 {
		t.Fatalf("grid = %d ok / %d failed, want 1/8", gerr.OK, gerr.Failed)
	}
	bars := out[fault.Panic]
	if len(bars) != 8 {
		t.Fatalf("got %d bars, want all 8 rendered", len(bars))
	}
	for _, b := range bars {
		if !b.Err {
			t.Fatalf("bar %q not marked Err", b.Label)
		}
	}
	text := buf.String()
	if !strings.Contains(text, "ERR") {
		t.Fatal("figure output has no ERR cells")
	}
	if !strings.Contains(text, "# Figure 2: 1 ok / 8 failed") {
		t.Fatalf("missing summary line in output:\n%s", text)
	}
	var jerr *bench.JobError
	if !errors.As(gerr, &jerr) || jerr.Kind != bench.ErrPanic {
		t.Fatalf("GridError does not expose per-cell JobErrors: %v", err)
	}
}

// TestSeedSkipsSimulation proves resume: a seeded result is a cache hit
// — returned as-is, no fresh simulation, no record, no counter change.
func TestSeedSkipsSimulation(t *testing.T) {
	rec := &recorder{}
	r := newRunner(rec)
	defer r.Close()
	cfg := core.DefaultConfig(core.CC, 4)
	seeded := &core.Report{Wall: 12345}
	if !r.Seed(cfg, fault.Deadlock, seeded) {
		t.Fatal("first Seed rejected")
	}
	if r.Seed(cfg, fault.Deadlock, &core.Report{}) {
		t.Fatal("second Seed for the same key accepted")
	}
	rep, err := r.Run(cfg, fault.Deadlock) // would deadlock if simulated
	if err != nil || rep != seeded {
		t.Fatalf("rep=%v err=%v, want the seeded report", rep, err)
	}
	ok, failed := r.Outcome()
	if ok != 0 || failed != 0 || len(rec.recs) != 0 {
		t.Fatalf("seeded hit produced side effects: ok=%d failed=%d recs=%d", ok, failed, len(rec.recs))
	}
}

// TestFlightRecorderTailCoverage sweeps the remaining typed-failure
// kinds — livelock and task panic — plus the opt-out: every failure
// whose engine produced a snapshot must carry the scheduler-event tail
// that led there, and a negative Runner.FlightRecorder must disarm it.
func TestFlightRecorderTailCoverage(t *testing.T) {
	t.Run("livelock", func(t *testing.T) {
		r := newRunner(nil)
		defer r.Close()
		cfg := core.DefaultConfig(core.CC, 1)
		cfg.MaxSimTime = 10 * sim.Microsecond
		_, err := r.Run(cfg, fault.Stall)
		var jerr *bench.JobError
		if !errors.As(err, &jerr) || jerr.Kind != bench.ErrLivelock {
			t.Fatalf("err = %v, want livelock JobError", err)
		}
		if jerr.State == nil || len(jerr.State.Recent) == 0 {
			t.Fatalf("livelock state has no flight-recorder tail: %+v", jerr.State)
		}
	})
	t.Run("panic", func(t *testing.T) {
		r := newRunner(nil)
		defer r.Close()
		fault.SetFlakyFailures(10)
		defer fault.SetFlakyFailures(0)
		_, err := r.Run(core.DefaultConfig(core.CC, 1), fault.Flaky)
		var jerr *bench.JobError
		if !errors.As(err, &jerr) || jerr.Kind != bench.ErrPanic {
			t.Fatalf("err = %v, want panic JobError", err)
		}
		if jerr.State == nil || len(jerr.State.Recent) == 0 {
			t.Fatalf("panic state has no flight-recorder tail: %+v", jerr.State)
		}
	})
	t.Run("disabled", func(t *testing.T) {
		r := newRunner(nil)
		defer r.Close()
		r.FlightRecorder = -1
		_, err := r.Run(core.DefaultConfig(core.CC, 4), fault.Deadlock)
		var jerr *bench.JobError
		if !errors.As(err, &jerr) || jerr.Kind != bench.ErrDeadlock {
			t.Fatalf("err = %v, want deadlock JobError", err)
		}
		if jerr.State == nil {
			t.Fatalf("deadlock lost its engine state: %+v", jerr)
		}
		if len(jerr.State.Recent) != 0 || jerr.State.EventsRecorded != 0 {
			t.Fatalf("disabled recorder still captured events: %+v", jerr.State)
		}
	})
}
