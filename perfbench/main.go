// Command perfbench measures the simulator's host cost: end-to-end
// metrics for a named workload, or, with -trace 1, per-layer metrics
// from a separate traced run (spans around its own calls, Report
// counters, and a CPU profile folded by layer). It prints each metric by
// name and unit, then one JSON line with the result.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload cc-shared --seed 1 --seconds 24 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"syscall"
	"time"

	"repro/internal/resultstore"
)

// workloadSpec is one benchmark workload. jobs is nil for the campaign.
type workloadSpec struct {
	jobs    func() []job
	observe bool
}

var workloads = map[string]workloadSpec{
	"cc-shared": {jobs: ccSharedJobs},
	"str-dma":   {jobs: strJobs},
	"observed":  {jobs: observedJobs, observe: true},
	"campaign":  {},
}

// End-to-end metrics (every workload, -trace 0).
var endToEnd = []string{"wall_s", "setup_s", "sim_mips", "job_p50_s", "job_p90_s", "warm_wall_s", "peak_rss_mb"}

// perLayer are the per-layer metrics of the result line (-trace 1): the
// ones measured the same way on every workload. A traced run prints more
// above the result line (the host_s of layers idle on some workloads,
// and workload-specific spans).
var perLayer = []string{
	"core.instructions",
	"sim.engine.handoffs", "sim.engine.dispatches", "sim.engine.inline_steps",
	"sim.engine.sync_fast", "sim.engine.sync_slow", "sim.engine.heap_pushes", "sim.engine.heap_max",
	"sim.engine.inline_rate", "sim.engine.fast_path_rate",
	"sim.calendar.pruned", "sim.calendar.compactions",
	"cache.l1_reads", "cache.l1_hit_ratio", "cache.snoop_lookups", "cache.l2_hit_ratio",
	"coher.read_misses", "coher.write_misses", "coher.upgrades", "coher.c2c",
	"coher.filtered_snoops", "coher.gather_flushes",
	"prefetch.fills", "prefetch.useful_ratio",
	"noc.bus_bytes", "noc.xbar_msgs", "uncore.l2_refills",
	"dram.reads", "dram.writes", "dram.row_hit_ratio", "dram.channel_util",
	"dma.commands", "dma.get_bytes", "dma.put_bytes", "stream.ls_accesses",
	"txntrace.txns", "txntrace.retained", "probe.samples", "trace.spans",
	"workload.new_s", "workload.setup_s", "core.build_s",
	"workload.host_s", "sim.engine.host_s", "sim.calendar.host_s",
	"cache.host_s", "noc.host_s", "uncore.host_s", "dram.host_s", "runtime.host_s",
	"other.host_s", "profile.total_s",
	"resultstore.put_s", "resultstore.get_s", "resultstore.puts", "resultstore.put_errors",
	"resultstore.hits", "resultstore.misses", "resultstore.hit_ratio",
	"bench.jobs", "bench.memo_hits",
	"runtime.gc_cycles", "runtime.alloc_mb", "tracing.overhead_s",
}

// setupReps is the least number of times a run sets its job set up for
// setup_s; it keeps setting up until a fortieth of the run is spent.
const setupReps = 9

// outDir holds the benchmark's stores, profiles and result files.
var outDir = filepath.Join(".bench_build", "perfbench")

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: cc-shared, str-dma, observed or campaign")
	seed := fs.Int64("seed", 1, "shuffles the job order of every pass (the section order of the campaign's warm passes)")
	seconds := fs.Int("seconds", 24, "measuring time per run; a campaign pass runs to completion")
	traced := fs.Int("trace", 0, "1 = traced run: per-layer metrics and the tracing overhead")
	refsOut := fs.String("write-refs", "", "run every job once, write the reference digests to this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *refsOut != "" {
		if err := regenerateRefs(*refsOut, stderr); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	spec, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (cc-shared, str-dma, observed, campaign), -seconds >= 1, -trace 0|1\n")
		return 2
	}
	refs, err := loadRefs()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	work := filepath.Join(outDir, fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := os.MkdirAll(filepath.Join(outDir, "results"), 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)

	b := &benchRun{
		name: *name, spec: spec, rng: rand.New(rand.NewSource(*seed)),
		budget: time.Duration(*seconds) * time.Second, traced: *traced == 1,
		refs: refs, work: work, stderr: stderr, metrics: map[string]metric{},
	}
	if spec.jobs == nil {
		err = b.campaign()
	} else {
		err = b.simSet()
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}

	host := newHostRecord()
	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d seconds=%d trace=%d\n", *name, *seed, *seconds, *traced)
	fmt.Fprintf(stdout, "# host nproc=%d gomaxprocs=%d go=%s cpu=%q commit=%s source_sha256=%s\n",
		host.NProc, host.GOMAXPROCS, host.GoVersion, host.CPU, host.Commit, host.Source)
	for _, n := range b.notes {
		fmt.Fprintf(stdout, "# %s\n", n)
	}
	for _, n := range b.order {
		fmt.Fprintf(stdout, "%-28s %16.6f %s\n", n, b.metrics[n].Value, b.metrics[n].Unit)
	}
	if err := b.writeResult(host, *seed); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}

	want := endToEnd
	if b.traced {
		want = perLayer
	}
	out := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	for _, n := range want {
		m, ok := b.metrics[n]
		if !ok {
			fmt.Fprintf(stderr, "perfbench: metric %s was not measured\n", n)
			return 1
		}
		out.Metrics[n] = m
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// span is one timed call perfbench made into a layer. Spans are kept in
// memory and written out at the end, with start times relative to the
// start of the process.
type span struct {
	Layer   string `json:"layer"`
	Op      string `json:"op"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
}

var processStart = time.Now()

func newSpan(layer, op string, at time.Time, d time.Duration) span {
	return span{layer, op, at.Sub(processStart).Nanoseconds(), d.Nanoseconds()}
}

// benchRun is one invocation's state: its measurements, the ops it
// attempted and failed, and the spans it recorded.
type benchRun struct {
	name   string
	spec   workloadSpec
	rng    *rand.Rand
	budget time.Duration
	traced bool
	refs   map[string]string
	work   string
	stderr io.Writer

	metrics   map[string]metric
	order     []string
	notes     []string
	spans     []span
	attempted int
	failed    int
}

func (b *benchRun) put(name string, value float64, unit string) {
	if _, dup := b.metrics[name]; !dup {
		b.order = append(b.order, name)
	}
	b.metrics[name] = metric{value, unit}
}

func (b *benchRun) seconds(name string, d time.Duration) { b.put(name, d.Seconds(), "s") }

func (b *benchRun) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// op counts one attempted operation; fail marks it failed.
func (b *benchRun) op() { b.attempted++ }

func (b *benchRun) fail(what string) {
	b.failed++
	if b.failed <= 20 {
		fmt.Fprintf(b.stderr, "perfbench: FAILED: %s\n", what)
	}
}

// span records a call that started at t0 and ends now.
func (b *benchRun) span(layer, op string, t0 time.Time) {
	b.spans = append(b.spans, newSpan(layer, op, t0, time.Since(t0)))
}

// measureSetup sets jobs up repeatedly (see setupReps) and reports the
// median set-up as setup_s, with its NewWorkload/NewSystem/Setup split.
func (b *benchRun) measureSetup(jobs []job) error {
	var reps []jobTiming
	var totals []float64
	start := time.Now()
	for len(reps) < setupReps || time.Since(start) < b.budget/40 {
		t0 := time.Now()
		t, err := setupOnce(jobs, b.spec.observe)
		if err != nil {
			return err
		}
		b.span("workload", "setup-rep", t0)
		reps, totals = append(reps, t), append(totals, t.setupTime().Seconds())
	}
	mid := medianIndex(totals)
	b.note("setup_s is the median of %d set-ups of %d jobs", len(reps), len(jobs))
	b.put("setup_s", totals[mid], "s")
	b.seconds("workload.new_s", reps[mid].NewWorkload)
	b.seconds("workload.setup_s", reps[mid].Setup)
	b.seconds("core.build_s", reps[mid].Build)
	return nil
}

// simSet runs the cc-shared, str-dma and observed workloads.
func (b *benchRun) simSet() error {
	start := time.Now()
	jobs := b.spec.jobs()
	if err := b.measureSetup(jobs); err != nil {
		return err
	}
	measure := b.budget - time.Since(start)
	warmBudget := b.budget / 40
	var passes, untraced []passResult
	var prof *profiler
	if b.traced {
		// Half the time untraced, for the overhead baseline; half traced.
		untraced = runPasses(jobs, b.spec.observe, b.rng, (measure-warmBudget)/2)
		var err error
		if prof, err = startProfile(b.work); err != nil {
			return err
		}
		passes = runPasses(jobs, b.spec.observe, b.rng, (measure-warmBudget)/2)
	} else {
		passes = runPasses(jobs, b.spec.observe, b.rng, measure-warmBudget)
	}
	all := append(append([]passResult(nil), untraced...), passes...)
	for _, p := range all {
		b.attempted += len(jobs)
		p.check(b.refs, b.fail)
		for _, r := range p.runs {
			b.spans = append(b.spans, r.spans...)
		}
	}
	first := all[0].counts()
	for _, p := range all[1:] {
		b.op()
		if p.counts() != first {
			b.fail("Report-derived counts differ between two passes of the same job set")
		}
	}

	dir, err := newStoreDir(b.work, "store")
	if err != nil {
		return err
	}
	t0 := time.Now()
	st, err := storeRoundTrip(dir, jobs, passes[0], b.refs, warmBudget, b.fail)
	if err != nil {
		return err
	}
	b.span("resultstore", "round-trip", t0)
	b.attempted += 2 * len(jobs) // one lookup per job, and its warm-pass job

	// Timings are medians over the run's passes (each job's median run
	// for the per-job percentiles). A warm pass takes about a
	// millisecond, where a single preemption weighs, so warm_wall_s is
	// the fastest of the hundreds a run makes.
	perJob := make([]float64, len(jobs))
	for j := range jobs {
		runs := make([]float64, len(passes))
		for i, p := range passes {
			runs[i] = p.runs[j].timing.total().Seconds()
		}
		perJob[j] = median(runs)
	}
	mips := make([]float64, len(passes))
	for i, p := range passes {
		mips[i] = p.mips()
	}
	b.note("passes=%d jobs/pass=%d warm_passes=%d", len(passes), len(jobs), len(st.warm))
	b.put("wall_s", median(walls(passes)), "s")
	b.put("sim_mips", median(mips), "1/s")
	b.putJobPercentiles(perJob)
	b.put("warm_wall_s", slices.Min(st.warm).Seconds(), "s")
	b.put("peak_rss_mb", peakRSSMB(), "MB")

	if b.traced {
		b.put("tracing.overhead_s", median(walls(passes))-median(walls(untraced)), "s")
		n := time.Duration(len(passes))
		t := jobTiming{}
		for _, p := range passes {
			pt := p.timing()
			t.Run += pt.Run
			t.Verify += pt.Verify
		}
		b.seconds("core.run_s", t.Run/n)
		b.seconds("workload.verify_s", t.Verify/n)
		c := passes[0].counts()
		c.metrics(b.put)
		b.put("sim.engine.events_per_s", float64(c.Handoffs+c.Dispatches+c.InlineSteps)/(t.Run/n).Seconds(), "1/s")
		b.putStore(st)
		// The warm pass asks bench.Runner for each job exactly once.
		b.put("bench.jobs", float64(len(jobs)), "count")
		b.put("bench.memo_hits", 0, "count")
		return prof.stop(b, len(passes))
	}
	return nil
}

// putStore reports perfbench's own store round trip.
func (b *benchRun) putStore(st storeResult) {
	b.seconds("resultstore.put_s", st.put)
	b.seconds("resultstore.get_s", st.get)
	b.put("resultstore.puts", float64(st.puts), "count")
	b.put("resultstore.put_errors", float64(st.putErrors), "count")
	b.put("resultstore.hits", float64(st.hits), "count")
	b.put("resultstore.misses", float64(st.misses), "count")
	b.put("resultstore.hit_ratio", ratio(uint64(st.hits), uint64(st.hits+st.misses)), "ratio")
}

// putJobPercentiles reports per-simulation host time, stating n.
func (b *benchRun) putJobPercentiles(perJob []float64) {
	b.note("job_p50_s/job_p90_s over n=%d simulations (%d beyond p90)", len(perJob), len(perJob)-int(0.9*float64(len(perJob))))
	b.put("job_p50_s", percentile(perJob, 0.5), "s")
	b.put("job_p90_s", percentile(perJob, 0.9), "s")
}

// campaign runs the default paperbench figure set: a cold pass into a
// fresh result store, then warm passes that only read it.
func (b *benchRun) campaign() error {
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		return err
	}
	if err := b.measureSetup(campaignSetupJobs()); err != nil {
		return err
	}
	cold := func(tele bool) (campaignPass, string, error) {
		dir, err := newStoreDir(b.work, "store")
		if err != nil {
			return campaignPass{}, "", err
		}
		st, err := openStore(dir)
		if err != nil {
			return campaignPass{}, "", err
		}
		// The cold pass keeps paperbench's own section order, so wall_s
		// is the time a user's campaign takes; the seed orders the warm
		// passes.
		order := make([]int, len(sections))
		for i := range order {
			order[i] = i
		}
		t0 := time.Now()
		p, err := runCampaign(st, order, tele)
		b.span("bench", "cold-pass", t0)
		if cerr := st.Close(); err == nil {
			err = cerr
		}
		b.attempted += 1 + len(p.records)
		p.check(golden, b.refs, false, b.fail)
		return p, dir, err
	}

	var untraced campaignPass
	var prof *profiler
	if b.traced {
		if untraced, _, err = cold(false); err != nil {
			return err
		}
		if prof, err = startProfile(b.work); err != nil {
			return err
		}
	}
	p, dir, err := cold(b.traced)
	if err != nil {
		return err
	}
	if b.traced {
		b.op()
		if untraced.counts() != p.counts() {
			b.fail("Report-derived counts differ between the two cold passes")
		}
	}
	var warm []time.Duration
	var firstWarm campaignPass
	var warmMisses int
	warmStart := time.Now()
	for len(warm) < warmPasses || time.Since(warmStart) < b.budget/5 {
		t0 := time.Now()
		st, err := openStore(dir)
		if err != nil {
			return err
		}
		w, err := runCampaign(st, b.rng.Perm(len(sections)), false)
		if len(warm) == 0 {
			warmMisses = int(st.Stats().Misses)
		}
		if cerr := st.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		warm = append(warm, time.Since(t0))
		b.span("bench", "warm-pass", t0)
		if len(warm) == 1 {
			firstWarm = w
			b.attempted++
			w.check(golden, b.refs, true, b.fail)
		}
	}

	var perJob []float64
	var instr uint64
	var attemptNS, busyNS, waitNS int64
	for _, rec := range p.records {
		perJob = append(perJob, float64(rec.HostNS)/1e9)
		busyNS += rec.HostNS
		waitNS += rec.QueueWaitNS
		for _, a := range rec.AttemptsNS {
			attemptNS += a
		}
		if rec.Report != nil {
			instr += rec.Report.Instructions
		}
	}
	b.note("cold pass: %d fresh simulations on %d workers; warm passes=%d, first served %d jobs from the store",
		p.fresh, p.workers, len(warm), firstWarm.storeHits)
	b.put("wall_s", p.wall.Seconds(), "s")
	b.put("sim_mips", float64(instr)/(float64(attemptNS)/1e9)/1e6, "1/s")
	b.putJobPercentiles(perJob)
	b.put("warm_wall_s", slices.Min(warm).Seconds(), "s")
	b.put("peak_rss_mb", peakRSSMB(), "MB")
	if !b.traced {
		return nil
	}

	b.put("tracing.overhead_s", p.wall.Seconds()-untraced.wall.Seconds(), "s")
	// The Runner makes the per-job calls itself; only its attempt totals
	// (NewWorkload through Verify) are visible from here.
	b.seconds("bench.attempt_s", time.Duration(attemptNS))
	c := p.counts()
	c.metrics(b.put)
	b.put("sim.engine.events_per_s", float64(c.Handoffs+c.Dispatches+c.InlineSteps)/(float64(attemptNS)/1e9), "1/s")
	st, err := replayStore(filepath.Join(b.work, "replay"), p)
	if err != nil {
		return err
	}
	st.hits, st.misses = firstWarm.storeHits, warmMisses
	b.putStore(st)
	b.put("bench.jobs", float64(p.fresh), "count")
	b.put("bench.memo_hits", float64(p.memoHits), "count")
	b.put("bench.slot_wait_s", float64(waitNS)/1e9, "s")
	b.put("bench.busy_s", float64(busyNS)/1e9, "s")
	b.put("bench.parallel_eff", float64(busyNS)/1e9/(p.wall.Seconds()*float64(p.workers)), "ratio")
	return prof.stop(b, 1)
}

func openStore(dir string) (*resultstore.Store, error) {
	return resultstore.Open(resultstore.Options{Dir: dir, Version: "perfbench"})
}

// replayStore times perfbench's own Put and Get of every report of a
// campaign pass against a fresh store: the Runner's calls into the store
// are not visible from outside it.
func replayStore(dir string, p campaignPass) (storeResult, error) {
	var res storeResult
	st, err := openStore(dir)
	if err != nil {
		return res, err
	}
	defer st.Close()
	for _, rec := range p.records {
		t0 := time.Now()
		err := st.Put(rec.Cfg, rec.Name, scale.String(), rec.Report)
		res.put += time.Since(t0)
		if err != nil {
			return res, err
		}
	}
	for _, rec := range p.records {
		t0 := time.Now()
		_, ok := st.Get(rec.Cfg, rec.Name, scale.String())
		res.get += time.Since(t0)
		if !ok {
			return res, errors.New("store replay: a record just written was not found")
		}
	}
	s := st.Stats()
	res.puts, res.putErrors = s.Puts, s.PutErrors
	return res, nil
}

// profiler is the CPU profile of a traced run's traced phase.
type profiler struct {
	path   string
	f      *os.File
	before runtime.MemStats
}

func startProfile(work string) (*profiler, error) {
	p := &profiler{path: filepath.Join(work, "cpu.pprof")}
	f, err := os.Create(p.path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	p.f = f
	runtime.ReadMemStats(&p.before)
	return p, nil
}

// stop ends the profile, folds it by layer and reports every layer's
// host_s, and the runtime's GC and allocation counts, per traced pass.
func (p *profiler) stop(b *benchRun, passes int) error {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	pprof.StopCPUProfile()
	if err := p.f.Close(); err != nil {
		return err
	}
	byLayer, total, err := foldProfile(p.path, filepath.Join(outDir, "results", b.name+"-pprof-top.txt"))
	if err != nil {
		return err
	}
	n := float64(passes)
	for _, l := range layers {
		b.put(l+".host_s", byLayer[l]/n, "s")
	}
	b.put("profile.total_s", total/n, "s")
	b.put("runtime.gc_cycles", float64(after.NumGC-p.before.NumGC)/n, "count")
	b.put("runtime.alloc_mb", float64(after.TotalAlloc-p.before.TotalAlloc)/n/(1<<20), "MB")
	b.note("per-layer times are per traced pass (%d traced passes)", passes)
	return nil
}

// writeResult writes the host record, every metric and the spans.
func (b *benchRun) writeResult(host hostRecord, seed int64) error {
	dir := filepath.Join(outDir, "results")
	rec := struct {
		Workload  string            `json:"workload"`
		Seed      int64             `json:"seed"`
		Traced    bool              `json:"traced"`
		Host      hostRecord        `json:"host"`
		Notes     []string          `json:"notes"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
		Spans     []span            `json:"spans"`
	}{b.name, seed, b.traced, host, b.notes, b.attempted, b.failed, b.metrics, b.spans}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	trace := 0
	if b.traced {
		trace = 1
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", b.name, seed, trace)), data, 0o644)
}

// regenerateRefs runs every job of every workload once and writes the
// digests of their reports.
func regenerateRefs(path string, stderr io.Writer) error {
	refs := map[string]string{}
	for _, name := range []string{"cc-shared", "str-dma", "observed"} {
		spec := workloads[name]
		for _, j := range spec.jobs() {
			r := runJob(j, spec.observe)
			if r.err != nil {
				return fmt.Errorf("%v: %w", j, r.err)
			}
			refs[refKey(j.name, j.cfg)] = digest(r.rep)
		}
	}
	dir := filepath.Join(outDir, "refs-store")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	st, err := openStore(dir)
	if err != nil {
		return err
	}
	p, err := runCampaign(st, rand.Perm(len(sections)), false)
	st.Close()
	os.RemoveAll(dir)
	if err != nil {
		return err
	}
	for _, rec := range p.records {
		if rec.Err != "" {
			return fmt.Errorf("%s: %s", rec.Name, rec.Err)
		}
		refs[refKey(rec.Name, rec.Cfg)] = digest(rec.Report)
	}
	fmt.Fprintf(stderr, "perfbench: %d reference digests\n", len(refs))
	return writeRefs(path, refs)
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// walls lists the wall time of each pass.
func walls(passes []passResult) []float64 {
	w := make([]float64, len(passes))
	for i, p := range passes {
		w[i] = p.wall.Seconds()
	}
	return w
}

func median(v []float64) float64 { return percentile(v, 0.5) }

// percentile interpolates linearly between the closest ranks.
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// medianIndex returns the index of the median element (the lower middle
// for an even count).
func medianIndex(v []float64) int {
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return v[idx[a]] < v[idx[b]] })
	return idx[(len(v)-1)/2]
}
