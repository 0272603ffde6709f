// Command paperbench regenerates every table and figure of the paper's
// evaluation section on the simulator and prints them as text tables.
//
// Usage:
//
//	paperbench [-scale small|default|paper] [-only table3,fig2,...] [-apps fir,depth] [-j N]
//	           [-job-timeout 2m] [-retries 2] [-artifacts DIR] [-resume] [-manifest-sync]
//	           [-store DIR] [-store-max-bytes N] [-txn-trace FILE.jsonl]
//	           [-cpuprofile cpu.pprof] [-blockprofile block.pprof]
//	           [-http :9090] [-http-linger 60s] [-flightrec 256]
//
// The default scale runs the same workload shapes as the paper at
// reduced dataset sizes; -scale paper uses paper-sized inputs (slow).
//
// Simulations run -j at a time (default: GOMAXPROCS) on a deduplicating
// worker pool. Every simulation is an isolated deterministic engine and
// results are collected in a fixed order, so table and figure output is
// byte-identical at any -j; only the stderr progress interleaving varies.
//
// A failing simulation does not kill the campaign: its cells render as
// ERR, the figure gains a "N ok / M failed" summary line, and the
// manifest records the typed failure with the engine's state dump.
// -resume replays an existing manifest.jsonl (requires -artifacts),
// seeding every previously successful run so only missing and failed
// jobs simulate again.
//
// -store DIR attaches a persistent, crash-safe result store shared
// across campaigns: each job probes it before simulating and a verified
// hit (matching config hash, workload, dataset -scale and code version)
// is recalled instead of re-run, while fresh results are journaled back
// with CRC32C checksums. Corrupt or stale records are quarantined to
// quarantine.jsonl and re-simulated — never served; results stored at
// one -scale never answer a campaign at another. One process owns a
// store directory at a time (a concurrent open fails with "in use").
// Figure output is byte-identical with or without the store.
//
// -http serves live campaign telemetry while the figures run: GET
// /metrics (Prometheus text), GET /progress (JSON span table with
// per-figure completion and a rate-based ETA), and net/http/pprof under
// /debug/pprof. -http-linger keeps the endpoint up after the campaign
// finishes (until the duration passes or /quit is hit) so scrapers can
// collect the final state. When stderr is a terminal, a single in-place
// status line summarizes the pool; pipes get the plain progress lines,
// byte-identical to previous releases. Every fresh simulation also arms
// an engine flight recorder (-flightrec events), so failure records
// carry the scheduler-event tail that led to the deadlock or abort.
//
// Exit codes (shared with memsim): 0 success, 1 runtime/IO failure,
// 2 flag or configuration validation error, 3 grid completed partially
// (at least one cell failed).
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/ledger"
	"repro/internal/resultstore"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/txntrace"
	"repro/internal/workload"
)

// gitDescribe identifies the tree the artifacts were produced from;
// "unknown" when git or the repository is unavailable (e.g. a released
// binary run outside a checkout).
func gitDescribe() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// manifestRun is one simulation's record in manifest.jsonl: the bench
// record (full config, report, host duration) plus the headline
// numbers a reader wants without digging into the report.
type manifestRun struct {
	Kind string `json:"kind"` // "run"
	bench.Record
	WallFS       uint64  `json:"wall_fs"`
	FastPathRate float64 `json:"fastpath_rate"`
	InlineRate   float64 `json:"inline_rate"`
}

// manifestWriter serializes concurrent OnRecord callbacks into one
// append-only JSONL stream. The header is fsynced at open so a
// powerloss mid-campaign can never lose the whole journal; -manifest-sync
// extends that to every record. Write errors surface once (the first),
// then are suppressed — a dead disk would otherwise print one error per
// simulation.
type manifestWriter struct {
	mu       sync.Mutex
	f        *os.File
	enc      *json.Encoder
	syncEach bool
	stderr   io.Writer
	failed   bool
}

// newManifestWriter opens dir/manifest.jsonl and writes this
// invocation's header. With resume the journal is appended to, keeping
// the prior campaign's records; otherwise it is truncated.
func newManifestWriter(dir string, scale string, resume, syncEach bool, stderr io.Writer) (*manifestWriter, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	mode := os.O_CREATE | os.O_WRONLY | os.O_TRUNC
	if resume {
		mode = os.O_CREATE | os.O_WRONLY | os.O_APPEND
	}
	f, err := os.OpenFile(filepath.Join(dir, "manifest.jsonl"), mode, 0o644)
	if err != nil {
		return nil, err
	}
	m := &manifestWriter{f: f, enc: json.NewEncoder(f), syncEach: syncEach, stderr: stderr}
	header := struct {
		Kind    string `json:"kind"` // "header"
		Git     string `json:"git"`
		Scale   string `json:"scale"`
		Started string `json:"started"`
	}{"header", gitDescribe(), scale, time.Now().UTC().Format(time.RFC3339)}
	if err := m.enc.Encode(header); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	return m, nil
}

// record is the bench.Runner.OnRecord callback.
func (m *manifestWriter) record(rec bench.Record) {
	run := manifestRun{Kind: "run", Record: rec}
	if rec.Report != nil {
		run.WallFS = uint64(rec.Report.Wall)
		run.FastPathRate = rec.Report.Engine.FastPathRate()
		run.InlineRate = rec.Report.Engine.InlineRate()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	err := m.enc.Encode(run)
	if err == nil && m.syncEach {
		err = m.f.Sync()
	}
	if err != nil && !m.failed {
		m.failed = true
		fmt.Fprintf(m.stderr, "paperbench: manifest: write failed (suppressing further errors): %v\n", err)
	}
}

// close syncs and closes the journal; a write failure anywhere in the
// campaign surfaces here too, so the exit code reflects a bad manifest
// even when the one-time warning scrolled away.
func (m *manifestWriter) close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	serr := m.f.Sync()
	cerr := m.f.Close()
	switch {
	case m.failed:
		return errors.New("one or more records failed to write (see first error above)")
	case serr != nil:
		return serr
	default:
		return cerr
	}
}

// txnSink gathers each fresh simulation's transaction tracer from the
// OnRecord stream and writes one deterministic JSONL file at campaign
// end: per run a header line (workload, config, tail_exemplars digest)
// followed by that run's retained transaction trees. Runs are sorted by
// (workload, config) so the file is byte-identical at any -j; store
// hits and resume-seeded jobs carry no tracer and are skipped.
type txnSink struct {
	mu   sync.Mutex
	recs []bench.Record
}

func (s *txnSink) record(rec bench.Record) {
	if rec.Txn == nil {
		return
	}
	s.mu.Lock()
	s.recs = append(s.recs, rec)
	s.mu.Unlock()
}

func (s *txnSink) write(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	type keyed struct {
		key string
		rec bench.Record
	}
	ks := make([]keyed, 0, len(s.recs))
	for _, rec := range s.recs {
		cj, err := json.Marshal(rec.Cfg)
		if err != nil {
			return err
		}
		ks = append(ks, keyed{rec.Name + "\x00" + string(cj), rec})
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].key < ks[j].key })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, k := range ks {
		// A map marshals with sorted keys, keeping the header stable.
		hdr := map[string]any{
			"kind":     "run",
			"workload": k.rec.Name,
			"config":   k.rec.Cfg,
		}
		if len(k.rec.TailExemplars) > 0 {
			hdr["tail_exemplars"] = k.rec.TailExemplars
		}
		if err := enc.Encode(hdr); err != nil {
			f.Close()
			return err
		}
		if err := k.rec.Txn.WriteJSONL(f); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// seedFromManifest replays a previous campaign's journal into the
// runner's memo table: every "run" record that completed cleanly is
// seeded (first record wins), so the resumed campaign simulates only
// missing and failed jobs. Replay is per line and skip-and-warn: a
// malformed record anywhere in the journal costs that record, never the
// valid ones after it. A torn final line — a campaign killed mid-write —
// is tolerated with its own warning, matching append-only journal
// semantics (a torn line that still parses is seeded normally).
func seedFromManifest(path string, r *bench.Runner, stderr io.Writer) (seeded, failed int, err error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	for line := 1; ; line++ {
		raw, rerr := br.ReadBytes('\n')
		if len(bytes.TrimSpace(raw)) > 0 {
			var rec manifestRun
			if jerr := json.Unmarshal(raw, &rec); jerr != nil {
				if rerr == nil {
					fmt.Fprintf(stderr, "# paperbench: resume: skipping malformed manifest line %d: %v\n", line, jerr)
				} else {
					fmt.Fprintf(stderr, "# paperbench: resume: ignoring torn final manifest line %d (campaign killed mid-write?)\n", line)
				}
			} else if rec.Kind == "run" {
				if rec.Err != "" || rec.Report == nil {
					failed++
				} else if r.Seed(rec.Cfg, rec.Name, rec.Report) {
					seeded++
				}
			}
		}
		if rerr != nil {
			if rerr != io.EOF {
				return seeded, failed, rerr
			}
			return seeded, failed, nil
		}
	}
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("paperbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scaleFlag := fs.String("scale", "default", "dataset scale: small, default or paper")
	onlyFlag := fs.String("only", "", "comma-separated subset: table2,table3,fig2,...,fig10,breakdown")
	appsFlag := fs.String("apps", "", "restrict fig2 to these comma-separated apps")
	quiet := fs.Bool("q", false, "suppress per-run progress lines")
	csvDir := fs.String("csv", "", "also write each figure's series as CSV files into this directory")
	artifactsDir := fs.String("artifacts", "", "write a machine-readable manifest.jsonl (one record per simulation) into this directory")
	jobs := fs.Int("j", runtime.GOMAXPROCS(0), "max concurrent simulations (output is identical at any -j)")
	jobTimeout := fs.Duration("job-timeout", 0, "wall-clock watchdog per simulation (0 = off); timed-out jobs fail with a progress dump")
	retries := fs.Int("retries", 0, "retry budget per job for retryable failures (timeouts, panics)")
	resume := fs.Bool("resume", false, "seed completed jobs from an existing manifest.jsonl (requires -artifacts) and re-run only missing/failed ones")
	storeDir := fs.String("store", "", "persistent cross-campaign result store directory: verified results are recalled instead of re-simulated (crash-safe; corrupt records are quarantined and re-run)")
	storeMax := fs.Int64("store-max-bytes", 0, "cap the -store journal at this many bytes via LRU compaction (0 = unbounded)")
	manifestSync := fs.Bool("manifest-sync", false, "fsync manifest.jsonl after every record (slower; survives powerloss, not just process death)")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the whole campaign to this file")
	blockProfile := fs.String("blockprofile", "", "write a pprof blocking profile (rate 1) to this file; shows where goroutines wait")
	httpAddr := fs.String("http", "", "serve live campaign telemetry on this address: GET /metrics, /progress, /debug/pprof (empty = off)")
	httpLinger := fs.Duration("http-linger", 0, "keep -http serving this long after the campaign finishes (ends early on /quit)")
	flightRec := fs.Int("flightrec", 0, "per-job flight-recorder depth: last K scheduler events in failure dumps (0 = default 256, negative = off)")
	txnTrace := fs.String("txn-trace", "", "arm per-run transaction tracing with worst-K tail exemplars, write every retained tree as JSONL to this file, and record tail_exemplars blocks in the manifest")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var scale workload.Scale
	switch *scaleFlag {
	case "small":
		scale = workload.ScaleSmall
	case "default":
		scale = workload.ScaleDefault
	case "paper":
		scale = workload.ScalePaper
	default:
		fmt.Fprintf(stderr, "paperbench: unknown scale %q\n", *scaleFlag)
		return 2
	}
	if *jobTimeout < 0 {
		fmt.Fprintln(stderr, "paperbench: -job-timeout must be non-negative")
		return 2
	}
	if *retries < 0 {
		fmt.Fprintln(stderr, "paperbench: -retries must be non-negative")
		return 2
	}
	if *resume && *artifactsDir == "" {
		fmt.Fprintln(stderr, "paperbench: -resume requires -artifacts (the manifest.jsonl to replay)")
		return 2
	}
	if *httpLinger < 0 {
		fmt.Fprintln(stderr, "paperbench: -http-linger must be non-negative")
		return 2
	}
	if *httpLinger > 0 && *httpAddr == "" {
		fmt.Fprintln(stderr, "paperbench: -http-linger requires -http")
		return 2
	}
	if *manifestSync && *artifactsDir == "" {
		fmt.Fprintln(stderr, "paperbench: -manifest-sync requires -artifacts")
		return 2
	}
	if *storeMax < 0 {
		fmt.Fprintln(stderr, "paperbench: -store-max-bytes must be non-negative")
		return 2
	}
	if *storeMax > 0 && *storeDir == "" {
		fmt.Fprintln(stderr, "paperbench: -store-max-bytes requires -store")
		return 2
	}

	// Profiling wraps the whole campaign: start before any simulation
	// spawns, flush via defer so every return path (including partial
	// and fatal exits) still writes usable profiles.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(stderr, "paperbench: -cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "paperbench: -cpuprofile: %v\n", err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *blockProfile != "" {
		runtime.SetBlockProfileRate(1)
		defer func() {
			runtime.SetBlockProfileRate(0)
			f, err := os.Create(*blockProfile)
			if err != nil {
				fmt.Fprintf(stderr, "paperbench: -blockprofile: %v\n", err)
				return
			}
			if err := pprof.Lookup("block").WriteTo(f, 0); err != nil {
				fmt.Fprintf(stderr, "paperbench: -blockprofile: %v\n", err)
			}
			f.Close()
		}()
	}

	want := map[string]bool{}
	if *onlyFlag != "" {
		for _, k := range strings.Split(*onlyFlag, ",") {
			want[strings.TrimSpace(k)] = true
		}
	}
	sel := func(k string) bool { return len(want) == 0 || want[k] }

	var apps []string
	if *appsFlag != "" {
		apps = strings.Split(*appsFlag, ",")
		for _, app := range apps {
			if _, err := workload.Get(app); err != nil {
				fmt.Fprintf(stderr, "paperbench: -apps: %v\n", err)
				return 2
			}
		}
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "paperbench: %v\n", err)
			return 1
		}
	}
	var ioFail error
	writeCSV := func(name string, tb *stats.Table) {
		if *csvDir == "" || ioFail != nil {
			return
		}
		f, err := os.Create(filepath.Join(*csvDir, name+".csv"))
		if err != nil {
			ioFail = err
			return
		}
		tb.WriteCSV(f)
		f.Close()
	}
	barsCSV := func(name string, bars []bench.Bar) {
		tb := stats.NewTable("", "config", "useful", "sync", "load", "store", "total")
		for _, b := range bars {
			if b.Err {
				tb.Row(b.Label, "ERR", "ERR", "ERR", "ERR", "ERR")
				continue
			}
			tb.Row(b.Label, b.Useful, b.Sync, b.Load, b.Store, b.Total)
		}
		writeCSV(name, tb)
	}
	trafficCSV := func(name string, bars []bench.TrafficBar) {
		tb := stats.NewTable("", "config", "read", "write")
		for _, b := range bars {
			if b.Err {
				tb.Row(b.Label, "ERR", "ERR")
				continue
			}
			tb.Row(b.Label, b.Read, b.Write)
		}
		writeCSV(name, tb)
	}
	breakdownCSV := func(name string, bars []bench.BreakdownBar) {
		names := ledger.ClassNames()
		tb := stats.NewTable("", append([]string{"config"}, names...)...)
		for _, b := range bars {
			row := []interface{}{b.Label}
			for c := range b.Classes {
				if b.Err {
					row = append(row, "ERR")
				} else {
					row = append(row, b.Classes[c])
				}
			}
			tb.Row(row...)
		}
		writeCSV(name, tb)
	}
	energyCSV := func(name string, bars []bench.EnergyBar) {
		tb := stats.NewTable("", "config", "core", "icache", "dcache", "lmem", "net", "l2", "dram")
		for _, b := range bars {
			if b.Err {
				tb.Row(b.Label, "ERR", "ERR", "ERR", "ERR", "ERR", "ERR", "ERR")
				continue
			}
			tb.Row(b.Label, b.Core, b.ICache, b.DCache, b.LMem, b.Net, b.L2, b.DRAM)
		}
		writeCSV(name, tb)
	}

	r := bench.NewRunner(scale)
	r.Workers = *jobs
	r.JobTimeout = *jobTimeout
	r.Retries = *retries
	r.FlightRecorder = *flightRec
	var txns *txnSink
	if *txnTrace != "" {
		r.TxnExemplars = txntrace.DefaultK
		txns = &txnSink{}
	}

	// The persistent result store: verified results from any previous
	// campaign of this code version are recalled instead of re-simulated.
	// Opening recovers from whatever a crash left behind (torn tails are
	// truncated, corrupt records quarantined), so -store after a SIGKILL
	// just works.
	var store *resultstore.Store
	if *storeDir != "" {
		var err error
		store, err = resultstore.Open(resultstore.Options{
			Dir: *storeDir, Version: gitDescribe(), MaxBytes: *storeMax, Log: stderr,
		})
		if err != nil {
			fmt.Fprintf(stderr, "paperbench: -store: %v\n", err)
			return 1
		}
		defer store.Close()
		r.Store = store
	}

	// Campaign telemetry: allocated when anything will read it (-http, or
	// the in-place status line on an interactive stderr). With neither,
	// r.Telemetry stays nil and every span call is a no-op — figure
	// output is byte-identical regardless.
	useStatus := !*quiet && telemetry.IsTerminal(stderr)
	var tele *telemetry.Campaign
	if *httpAddr != "" || useStatus {
		tele = telemetry.NewCampaign()
		r.Telemetry = tele
		if store != nil {
			tele.SetStoreStats(func() telemetry.StoreStats {
				s := store.Stats()
				return telemetry.StoreStats{
					Records: s.Records, Bytes: s.Bytes,
					Hits: s.Hits, Misses: s.Misses, Puts: s.Puts, PutErrors: s.PutErrors,
					Evictions: s.Evictions, Compactions: s.Compactions,
					Recovered: s.Recovered, Corrupt: s.Corrupt, TruncatedBytes: s.TruncatedBytes,
				}
			})
		}
	}
	var srv *telemetry.Server
	if *httpAddr != "" {
		var err error
		if srv, err = telemetry.Serve(*httpAddr, tele); err != nil {
			fmt.Fprintf(stderr, "paperbench: -http: %v\n", err)
			return 1
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "# paperbench: telemetry on http://%s (/metrics, /progress, /debug/pprof)\n", srv.Addr())
	}
	var sl *telemetry.StatusLine
	if !*quiet {
		if useStatus {
			// Interactive terminal: progress lines scroll above a single
			// redrawn-in-place campaign summary line.
			sl = telemetry.NewStatusLine(stderr, tele)
			sl.Start(0)
			r.Progress = sl.Writer()
		} else {
			r.Progress = stderr
		}
	}
	if *resume {
		seeded, prevFailed, err := seedFromManifest(filepath.Join(*artifactsDir, "manifest.jsonl"), r, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "paperbench: resume: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "# paperbench: resume: %d completed jobs seeded, %d prior failures will re-run\n",
			seeded, prevFailed)
	}
	var manifest *manifestWriter
	if *artifactsDir != "" {
		var err error
		if manifest, err = newManifestWriter(*artifactsDir, *scaleFlag, *resume, *manifestSync, stderr); err != nil {
			fmt.Fprintf(stderr, "paperbench: %v\n", err)
			return 1
		}
		r.OnRecord = manifest.record
	}
	if txns != nil {
		prev := r.OnRecord
		r.OnRecord = func(rec bench.Record) {
			if prev != nil {
				prev(rec)
			}
			txns.record(rec)
		}
	}
	out := stdout
	start := time.Now()

	// check lets a partially-failed grid keep the campaign going: ERR
	// cells and the summary line are already rendered, the exit code
	// becomes 3. Any other error is fatal.
	partial := false
	fatal := false
	check := func(what string, err error) bool {
		if err == nil {
			return true
		}
		var gerr *bench.GridError
		if errors.As(err, &gerr) {
			fmt.Fprintf(stderr, "# paperbench: %s: %v\n", what, gerr)
			partial = true
			return true
		}
		fmt.Fprintf(stderr, "paperbench: %s: %v\n", what, err)
		fatal = true
		return false
	}

	if sel("table2") {
		bench.Table2(out)
		fmt.Fprintln(out)
	}
	if sel("table3") && !fatal {
		tele.BeginGroup("table3")
		rows, err := r.Table3(out)
		if check("table3", err) {
			tb := stats.NewTable("", "app", "l1miss", "l2miss", "instrPerL1Miss", "cycPerL2Miss", "offchipMBps")
			for _, row := range rows {
				if row.Err {
					tb.Row(row.App, "ERR", "ERR", "ERR", "ERR", "ERR")
					continue
				}
				tb.Row(row.App, row.L1MissRate, row.L2MissRate, row.InstrPerL1Miss, row.CyclesPerL2, row.OffChipMBps)
			}
			writeCSV("table3", tb)
			fmt.Fprintln(out)
		}
	}
	if sel("fig2") && !fatal {
		tele.BeginGroup("fig2")
		series, err := r.Figure2(out, apps)
		if check("fig2", err) {
			for _, app := range bench.SortedKeys(series) {
				barsCSV("fig2-"+app, series[app])
			}
			fmt.Fprintln(out)
		}
	}
	if sel("fig3") && !fatal {
		tele.BeginGroup("fig3")
		series, err := r.Figure3(out)
		if check("fig3", err) {
			for _, app := range bench.SortedKeys(series) {
				trafficCSV("fig3-"+app, series[app])
			}
			fmt.Fprintln(out)
		}
	}
	if sel("fig4") && !fatal {
		tele.BeginGroup("fig4")
		series, err := r.Figure4(out)
		if check("fig4", err) {
			for _, app := range bench.SortedKeys(series) {
				energyCSV("fig4-"+app, series[app])
			}
			fmt.Fprintln(out)
		}
	}
	if sel("fig5") && !fatal {
		tele.BeginGroup("fig5")
		series, err := r.Figure5(out)
		if check("fig5", err) {
			for _, app := range bench.SortedKeys(series) {
				barsCSV("fig5-"+app, series[app])
			}
			fmt.Fprintln(out)
		}
	}
	if sel("fig6") && !fatal {
		tele.BeginGroup("fig6")
		bars, err := r.Figure6(out)
		if check("fig6", err) {
			barsCSV("fig6-fir", bars)
			fmt.Fprintln(out)
		}
	}
	if sel("fig7") && !fatal {
		tele.BeginGroup("fig7")
		series, err := r.Figure7(out)
		if check("fig7", err) {
			for _, app := range bench.SortedKeys(series) {
				barsCSV("fig7-"+app, series[app])
			}
			fmt.Fprintln(out)
		}
	}
	if sel("fig8") && !fatal {
		tele.BeginGroup("fig8")
		traffic, energy, err := r.Figure8(out)
		if check("fig8", err) {
			for _, app := range bench.SortedKeys(traffic) {
				trafficCSV("fig8-"+app, traffic[app])
			}
			energyCSV("fig8-fir-energy", energy)
			fmt.Fprintln(out)
		}
	}
	if sel("fig9") && !fatal {
		tele.BeginGroup("fig9")
		bars, traffic, err := r.Figure9(out)
		if check("fig9", err) {
			barsCSV("fig9-mpeg2-time", bars)
			trafficCSV("fig9-mpeg2-traffic", traffic)
			fmt.Fprintln(out)
		}
	}
	if sel("fig10") && !fatal {
		tele.BeginGroup("fig10")
		bars, err := r.Figure10(out)
		if check("fig10", err) {
			barsCSV("fig10-art", bars)
			fmt.Fprintln(out)
		}
	}
	if sel("breakdown") && !fatal {
		tele.BeginGroup("breakdown")
		series, err := r.FigureBreakdown(out, apps)
		if check("breakdown", err) {
			for _, app := range bench.SortedKeys(series) {
				breakdownCSV("breakdown-"+app, series[app])
			}
			fmt.Fprintln(out)
		}
	}
	r.Close() // drain pending progress lines before the summary
	sl.Stop() // clear the status line; summary lines below scroll normally

	// finish seals the campaign for scrapers — the completion gauge flips
	// so /progress reports "complete": true with the final counts — then
	// lingers on -http-linger so an external collector (CI) can take its
	// last scrape before the process exits.
	finish := func(code int) int {
		tele.SetComplete()
		if srv != nil {
			srv.WaitQuit(*httpLinger)
			srv.Close()
		}
		return code
	}
	if manifest != nil {
		if err := manifest.close(); err != nil {
			fmt.Fprintf(stderr, "paperbench: manifest: %v\n", err)
			return finish(1)
		}
	}
	if txns != nil {
		if err := txns.write(*txnTrace); err != nil {
			fmt.Fprintf(stderr, "paperbench: -txn-trace: %v\n", err)
			return finish(1)
		}
	}
	if ioFail != nil {
		fmt.Fprintf(stderr, "paperbench: csv: %v\n", ioFail)
		return finish(1)
	}
	if store != nil {
		// Seal the journal before reporting: Close syncs pending records,
		// so everything this campaign simulated is durable by the time
		// the summary prints.
		if err := store.Close(); err != nil {
			fmt.Fprintf(stderr, "paperbench: -store: %v\n", err)
			return finish(1)
		}
		st := store.Stats()
		fmt.Fprintf(stderr, "# paperbench: store: %d hits, %d misses, %d results persisted (%d records, %d bytes)\n",
			st.Hits, st.Misses, st.Puts, st.Records, st.Bytes)
	}
	fmt.Fprintf(stderr, "# paperbench finished in %v\n", time.Since(start).Round(time.Millisecond))
	if fatal {
		return finish(1)
	}
	if partial {
		ok, failed := r.Outcome()
		fmt.Fprintf(stderr, "# paperbench: partial results: %d ok / %d failed\n", ok, failed)
		return finish(3)
	}
	return finish(0)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
