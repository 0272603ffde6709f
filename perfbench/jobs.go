package main

import (
	"fmt"
	"time"

	memsys "repro"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/sim"
)

// job is one simulation of a workload set: a registered application on
// one machine configuration, always at the default dataset scale.
type job struct {
	name string
	cfg  core.Config
}

func (j job) String() string {
	s := fmt.Sprintf("%s/%v/%d", j.name, j.cfg.Model, j.cfg.Cores)
	if j.cfg.PrefetchDepth > 0 {
		s += fmt.Sprintf("/pf%d", j.cfg.PrefetchDepth)
	}
	if j.cfg.SnoopFilter {
		s += "/sf"
	}
	return s
}

// scale is the dataset scale of every benchmark simulation.
const scale = memsys.ScaleDefault

// shapeApps are the applications of the STR set: two data-parallel
// kernels, a sort network and a merge tree.
var shapeApps = []string{"art-orig", "bitonicsort", "mergesort", "fir"}

// strJobs is the str-dma set: every shapeApps application on STR at 8
// and 16 cores.
func strJobs() []job {
	var jobs []job
	for _, app := range shapeApps {
		for _, n := range []int{8, 16} {
			jobs = append(jobs, job{app, core.DefaultConfig(core.STR, n)})
		}
	}
	return jobs
}

// ccSharedJobs is the cc-shared set: the same applications on CC, plus
// one prefetching, one snoop-filtered and one incoherent machine.
// art-orig at 16 cores is the handoff-heavy job (about 2.3 M goroutine
// handoffs). art-orig and bitonicsort at 8 cores are left out: each
// costs over 4 s of host time, and without them a run fits two passes
// of the set. The campaign runs both.
func ccSharedJobs() []job {
	cc := func(app string, n int) job { return job{app, core.DefaultConfig(core.CC, n)} }
	pf := cc("fir", 16)
	pf.cfg.PrefetchDepth = 4
	sf := cc("mergesort", 16)
	sf.cfg.SnoopFilter = true
	return []job{
		cc("art-orig", 16), cc("bitonicsort", 16),
		cc("mergesort", 8), cc("mergesort", 16), cc("fir", 8), cc("fir", 16),
		pf, sf, {"bitonicsort", core.DefaultConfig(core.INC, 16)},
	}
}

// observedJobs is the observed set: two CC and two STR jobs with the
// cycle ledger on; each run also arms the other observers (arm).
func observedJobs() []job {
	jobs := []job{
		{"fir", core.DefaultConfig(core.CC, 8)},
		{"bitonicsort", core.DefaultConfig(core.CC, 16)},
		{"art-orig", core.DefaultConfig(core.STR, 16)},
		{"mergesort", core.DefaultConfig(core.STR, 8)},
	}
	for i := range jobs {
		jobs[i].cfg.CycleLedger = true
	}
	return jobs
}

// observers are the run-scoped observers armed on an observed job.
type observers struct {
	trace *memsys.Trace
	probe *memsys.Probe
	txn   *memsys.TxnTrace
}

// obsCounts is what a job's observers recorded: the counts are kept and
// the observers themselves dropped, so a run holds at most one job's
// traces in memory.
type obsCounts struct {
	Txns, Retained, Samples, Spans uint64
}

// counts summarizes the observers; all zero when none were armed.
func (o observers) counts() obsCounts {
	var c obsCounts
	for _, s := range o.txn.Summary() {
		c.Txns += s.Count
	}
	if o.txn != nil {
		c.Retained = uint64(o.txn.Trees())
	}
	if o.probe != nil {
		c.Samples = uint64(o.probe.Epochs())
	}
	if o.trace != nil {
		c.Spans = uint64(o.trace.Len()) + o.trace.Dropped()
	}
	return c
}

// probeInterval is the observed set's probe epoch in simulated time.
const probeInterval = sim.Microsecond

// arm attaches fresh run-scoped observers to cfg: a 1-in-64 sampled
// transaction tracer, a probe and a span collector.
func arm(cfg *core.Config) observers {
	o := observers{trace: memsys.NewTrace(), probe: memsys.NewProbe(probeInterval), txn: memsys.NewTxnTrace()}
	o.txn.SampleEvery, o.txn.Seed = 64, 1
	cfg.Trace = o.trace
	cfg.Probe = o.probe
	cfg.TxnTrace = o.txn
	return o
}

// timed wraps a workload to time the Setup and Verify calls System.Run
// makes. It forwards InlineBody, so an STR core of a workload with an
// inline body still runs inline; for any other workload it returns nil,
// which System.Run treats as "no inline body".
type timed struct {
	core.Workload
	setupAt, verifyAt time.Time
	setup, verify     time.Duration
}

func (w *timed) Setup(s *core.System) {
	w.setupAt = time.Now()
	w.Workload.Setup(s)
	w.setup = time.Since(w.setupAt)
}

func (w *timed) Verify() error {
	w.verifyAt = time.Now()
	err := w.Workload.Verify()
	w.verify = time.Since(w.verifyAt)
	return err
}

func (w *timed) InlineBody(p *cpu.Proc) sim.Runnable {
	if iw, ok := w.Workload.(core.InlineWorkload); ok {
		return iw.InlineBody(p)
	}
	return nil
}

// jobTiming is the host time of one simulation, split at the calls the
// benchmark makes or wraps. Run is System.Run's self time: Setup and
// Verify are excluded.
type jobTiming struct {
	NewWorkload, Build, Setup, Run, Verify time.Duration
}

// setupTime is the set-up share: NewWorkload, NewSystem and Setup.
func (t jobTiming) setupTime() time.Duration { return t.NewWorkload + t.Build + t.Setup }

// total is the simulation's whole host time.
func (t jobTiming) total() time.Duration { return t.setupTime() + t.Run + t.Verify }

// jobRun is the outcome of one simulation, with the spans of the calls
// the benchmark made or wrapped.
type jobRun struct {
	job    job
	rep    *core.Report
	err    error
	timing jobTiming
	spans  []span
	obs    obsCounts
}

// runJob simulates j through the public entry points, timing each call.
func runJob(j job, observe bool) jobRun {
	out := jobRun{job: j}
	t0 := time.Now()
	w, err := memsys.NewWorkload(j.name, scale)
	t1 := time.Now()
	if err != nil {
		out.err = err
		return out
	}
	cfg := j.cfg
	var obs observers
	if observe {
		obs = arm(&cfg)
	}
	sys := memsys.NewSystem(cfg)
	t2 := time.Now()
	tw := &timed{Workload: w}
	out.rep, out.err = sys.Run(tw)
	run := time.Since(t2)
	out.timing = jobTiming{
		NewWorkload: t1.Sub(t0), Build: t2.Sub(t1),
		Setup: tw.setup, Verify: tw.verify, Run: run - tw.setup - tw.verify,
	}
	out.obs = obs.counts()
	out.spans = []span{
		newSpan("workload", "NewWorkload", t0, t1.Sub(t0)),
		newSpan("core", "NewSystem", t1, t2.Sub(t1)),
		newSpan("core", "System.Run", t2, run),
		newSpan("workload", "Setup", tw.setupAt, tw.setup),
		newSpan("workload", "Verify", tw.verifyAt, tw.verify),
	}
	return out
}

// setupOnce builds every job of a set up to the point System.Run would
// start the cores — NewWorkload, NewSystem and Setup — and returns the
// summed host time of each call.
func setupOnce(jobs []job, observe bool) (jobTiming, error) {
	var t jobTiming
	for _, j := range jobs {
		t0 := time.Now()
		w, err := memsys.NewWorkload(j.name, scale)
		if err != nil {
			return t, err
		}
		t1 := time.Now()
		cfg := j.cfg
		if observe {
			arm(&cfg)
		}
		sys := memsys.NewSystem(cfg)
		t2 := time.Now()
		w.Setup(sys)
		t.NewWorkload += t1.Sub(t0)
		t.Build += t2.Sub(t1)
		t.Setup += time.Since(t2)
	}
	return t, nil
}
