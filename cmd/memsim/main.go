// Command memsim runs one workload on one machine configuration and
// prints the measurement report: the quickest way to poke at the
// simulator.
//
// Usage:
//
//	memsim -w fir -model str -cores 16 -mhz 3200 -bw 6400 -pf 4 -scale default
//	memsim -w fir -model str -sample 1us          # per-epoch time series
//	memsim -w fir -model str -breakdown           # cycle accounting + latency distributions
//	memsim -w fir -http :9090 -http-linger 30s    # live /metrics, /progress, /debug/pprof
//	memsim -w fir -store ~/.memsim-store          # reuse verified results across runs
//	memsim -list
//
// With -store DIR the run first looks its exact configuration up in the
// crash-safe result store shared with paperbench; a hit prints the
// stored report byte-identically and skips the simulation, a miss
// simulates and persists the fresh report. Store keys include the
// dataset -scale, so one store directory can hold results at every
// scale without ever serving one as another. One process owns a store
// directory at a time (a concurrent open fails with "in use"). Runs
// that collect artifacts only a live simulation can produce (-trace,
// -sample) always simulate, but still persist their reports.
//
// Every run arms an engine flight recorder (-flightrec events, default
// 256): when the simulation dies with a typed failure — deadlock,
// livelock, panic — the last scheduler events that led there are printed
// to stderr along with the error.
//
// Exit codes (shared with paperbench): 0 success, 1 runtime or
// simulation failure, 2 flag or configuration validation error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"

	memsys "repro"
	"repro/internal/probe"
	"repro/internal/resultstore"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/warnonce"
)

// gitDescribe identifies the running code for the result store's record
// keys; "unknown" outside a checkout (matching paperbench).
func gitDescribe() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// flagOf maps Config fields validated by Config.Validate to the memsim
// flags that set them.
var flagOf = map[string]string{
	"Model":           "-model",
	"Cores":           "-cores",
	"CoreMHz":         "-mhz",
	"PrefetchDepth":   "-pf",
	"NoWriteAllocate": "-nwa",
	"SnoopFilter":     "-snoopfilter",
}

// flagErrors rewrites Config.Validate's typed field errors in terms of
// the flags that set them. Requests for CC-only hardware on other
// models — the prefetcher, the no-write-allocate policy, the snoop
// filter — are gathered into one message because they share a fix.
func flagErrors(err error, m memsys.Model) error {
	if err == nil {
		return nil
	}
	var ccOnly, rest []string
	for _, fe := range memsys.FieldErrors(err) {
		fl, ok := flagOf[fe.Field]
		if !ok {
			fl = "config." + fe.Field
		}
		if strings.Contains(fe.Reason, "only applies to model CC") {
			ccOnly = append(ccOnly, fl)
			continue
		}
		rest = append(rest, fl+" "+fe.Reason)
	}
	var msgs []string
	if len(ccOnly) > 0 {
		msgs = append(msgs, fmt.Sprintf("%s only applies to -model cc (got -model %s)",
			strings.Join(ccOnly, ", "), strings.ToLower(m.String())))
	}
	msgs = append(msgs, rest...)
	return errors.New(strings.Join(msgs, "; "))
}

// ccOnlyFlags validates flag combinations that silently do nothing
// outside the cache-coherent model. It is Config.Validate seen through
// memsim's flags; kept as a named check because the wording is pinned
// by tests and documentation.
func ccOnlyFlags(m memsys.Model, pf int, nwa, snoopFilter bool) error {
	cfg := memsys.DefaultConfig(m, 1)
	cfg.PrefetchDepth = pf
	cfg.NoWriteAllocate = nwa
	cfg.SnoopFilter = snoopFilter
	return flagErrors(cfg.Validate(), m)
}

// headlineSeries are the probe metrics rendered as text and merged into
// the Chrome trace as counter tracks. Counters are differentiated into
// per-epoch increments; levels are plotted as-is. Metrics absent from a
// run (model-specific sources) are skipped.
var headlineSeries = []string{
	"dram.read_bytes",
	"dram.write_bytes",
	"cpu.instructions",
	"cpu.storebuf",
	"engine.heap_depth",
	"dma.get_bytes",
	"dma.put_bytes",
	"dma.queued",
	"coher.c2c_cluster",
	"coher.c2c_remote",
}

// seriesOf returns a headline metric's plottable view: the per-epoch
// delta for counters, the raw samples for levels. nil if absent.
func seriesOf(pr *probe.Recorder, name string) []float64 {
	for i, n := range pr.Names() {
		if n == name {
			return pr.Delta(i)
		}
	}
	return nil
}

// writeProbeText renders the headline series as sparklines and a
// heatmap, one intensity row per metric.
func writeProbeText(w io.Writer, pr *probe.Recorder) {
	fmt.Fprintf(w, "probe: %d epochs of %v", pr.Epochs(), memsys.Time(pr.Interval()))
	if d := pr.Dropped(); d > 0 {
		fmt.Fprintf(w, " (%d dropped past cap)", d)
	}
	fmt.Fprintln(w)
	hm := stats.Heatmap{Width: 72}
	for _, name := range headlineSeries {
		if s := seriesOf(pr, name); s != nil {
			hm.AddRow(name, s)
		}
	}
	hm.Write(w)
}

// mergeProbeCounters adds the headline series to the trace as Chrome
// "C" counter events, so Perfetto draws them above the span timeline.
func mergeProbeCounters(tr *trace.Collector, pr *probe.Recorder) {
	times := pr.Times()
	for _, name := range headlineSeries {
		s := seriesOf(pr, name)
		for k, v := range s {
			tr.AddCounter(name, times[k], v)
		}
	}
}

// writeBreakdownText renders the cycle-accounting ledger (per-core
// averages, as fractions of the wall time) and the service-time
// distributions' headline quantiles.
func writeBreakdownText(w io.Writer, rep *memsys.Report) {
	wall := float64(rep.Wall)
	tb := stats.NewTable("cycle accounting (per-core average)", "class", "time", "share")
	for c, name := range rep.Cycles.Classes {
		v := rep.Cycles.Avg[c]
		share := 0.0
		if wall > 0 {
			share = float64(v) / wall
		}
		tb.Row(name, v.String(), fmt.Sprintf("%5.1f%%", 100*share))
	}
	tb.WriteText(w)
	lt := stats.NewTable("latency distributions", "metric", "count", "mean", "p50", "p95", "p99", "max")
	rep.Latency.Each(func(name string, d *memsys.LatencyDist) {
		lt.Row(name, d.Count, d.MeanFS.String(), d.P50FS.String(), d.P95FS.String(), d.P99FS.String(), d.MaxFS.String())
	})
	lt.WriteText(w)
}

// writeFlightTail prints the flight recorder's last scheduler events
// from a typed failure's EngineState: the concrete dispatch/inline-step/
// block sequence that led into a deadlock or watchdog abort.
func writeFlightTail(w io.Writer, st memsys.EngineState) {
	if len(st.Recent) == 0 {
		return
	}
	tail := st.Recent
	const max = 16
	if len(tail) > max {
		tail = tail[len(tail)-max:]
	}
	fmt.Fprintf(w, "memsim: flight recorder: last %d of %d scheduler events:\n", len(tail), st.EventsRecorded)
	for _, ev := range tail {
		fmt.Fprintf(w, "  %12v  %-11s %s (task %d)\n", ev.Time, ev.Kind, ev.Task, ev.ID)
	}
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("memsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("w", "fir", "workload name (see -list)")
	model := fs.String("model", "cc", "memory model: cc, str or inc")
	cores := fs.Int("cores", 4, "number of cores (1-16)")
	mhz := fs.Uint64("mhz", 800, "core clock in MHz (800, 1600, 3200, 6400)")
	bw := fs.Uint64("bw", 1600, "DRAM bandwidth in MB/s (1600, 3200, 6400, 12800)")
	pf := fs.Int("pf", 0, "hardware prefetch depth (0 = off; CC only)")
	nwa := fs.Bool("nwa", false, "no-write-allocate L1 policy (CC only)")
	filter := fs.Bool("snoopfilter", false, "RegionScout-style snoop filter (CC only)")
	scaleName := fs.String("scale", "small", "dataset scale: small, default, paper")
	list := fs.Bool("list", false, "list available workloads")
	verbose := fs.Bool("v", false, "print detailed counters")
	asJSON := fs.Bool("json", false, "print the full report as JSON")
	traceOut := fs.String("trace", "", "write a Chrome trace-event JSON timeline to this file")
	txnTraceOut := fs.String("txn-trace", "", "write sampled and worst-K exemplar transaction trees as JSONL to this file")
	txnSample := fs.Uint64("txn-sample", 0, "keep the full tree of ~1-in-N transactions, selected by a deterministic hash of (serial, -txn-seed) (0 = exemplars only; requires -txn-trace or -explain-tail)")
	txnSeed := fs.Uint64("txn-seed", 0, "sampling-hash seed for -txn-sample (requires -txn-trace or -explain-tail)")
	explainTail := fs.Bool("explain-tail", false, "print the worst-K transaction trees per latency class with per-hop cycle attribution")
	sample := fs.String("sample", "", "sample the machine every simulated interval (e.g. 1us, 500ns)")
	sampleCSV := fs.String("sample-csv", "", "write the per-epoch samples as CSV to this file (requires -sample)")
	breakdown := fs.Bool("breakdown", false, "enable the cycle ledger and print cycle-accounting and latency-distribution tables")
	latencyCSV := fs.String("latency-csv", "", "write the latency histogram buckets as CSV to this file (requires -breakdown)")
	httpAddr := fs.String("http", "", "serve run telemetry on this address: GET /metrics, /progress, /debug/pprof (empty = off)")
	httpLinger := fs.Duration("http-linger", 0, "keep -http serving this long after the run finishes (ends early on /quit)")
	flightRec := fs.Int("flightrec", 256, "flight-recorder depth: last K scheduler events printed with a typed failure (0 = off)")
	storeDir := fs.String("store", "", "reuse verified results from this persistent store directory, creating it if missing (empty = off)")
	storeMax := fs.Int64("store-max-bytes", 0, "evict the oldest store records once the journal exceeds this size (0 = unlimited; requires -store)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		fmt.Fprintln(stdout, strings.Join(memsys.Workloads(), "\n"))
		return 0
	}
	m, err := memsys.ParseModel(*model)
	if err != nil {
		fmt.Fprintln(stderr, "memsim:", err)
		return 2
	}
	scale, err := memsys.ParseScale(*scaleName)
	if err != nil {
		fmt.Fprintln(stderr, "memsim:", err)
		return 2
	}
	if _, err := memsys.NewWorkload(*name, scale); err != nil {
		fmt.Fprintln(stderr, "memsim:", err)
		return 2
	}
	if *sampleCSV != "" && *sample == "" {
		fmt.Fprintln(stderr, "memsim: -sample-csv requires -sample")
		return 2
	}
	if *latencyCSV != "" && !*breakdown {
		fmt.Fprintln(stderr, "memsim: -latency-csv requires -breakdown")
		return 2
	}
	if *flightRec < 0 {
		fmt.Fprintln(stderr, "memsim: -flightrec must be non-negative")
		return 2
	}
	if (*txnSample != 0 || *txnSeed != 0) && *txnTraceOut == "" && !*explainTail {
		fmt.Fprintln(stderr, "memsim: -txn-sample/-txn-seed require -txn-trace or -explain-tail")
		return 2
	}
	if *httpLinger < 0 {
		fmt.Fprintln(stderr, "memsim: -http-linger must be non-negative")
		return 2
	}
	if *httpLinger > 0 && *httpAddr == "" {
		fmt.Fprintln(stderr, "memsim: -http-linger requires -http")
		return 2
	}
	if *storeMax < 0 {
		fmt.Fprintln(stderr, "memsim: -store-max-bytes must be non-negative")
		return 2
	}
	if *storeMax > 0 && *storeDir == "" {
		fmt.Fprintln(stderr, "memsim: -store-max-bytes requires -store")
		return 2
	}

	cfg := memsys.DefaultConfig(m, *cores)
	cfg.CoreMHz = *mhz
	cfg.DRAMBandwidthMBps = *bw
	cfg.PrefetchDepth = *pf
	cfg.NoWriteAllocate = *nwa
	cfg.SnoopFilter = *filter
	cfg.CycleLedger = *breakdown
	cfg.FlightRecorder = *flightRec
	if err := flagErrors(cfg.Validate(), m); err != nil {
		fmt.Fprintln(stderr, "memsim:", err)
		return 2
	}
	var tr *memsys.Trace
	if *traceOut != "" {
		tr = memsys.NewTrace()
		cfg.Trace = tr
	}
	var pr *memsys.Probe
	if *sample != "" {
		interval, perr := memsys.ParseTime(*sample)
		if perr != nil {
			fmt.Fprintln(stderr, "memsim:", perr)
			return 2
		}
		pr = memsys.NewProbe(interval)
		cfg.Probe = pr
	}
	var txn *memsys.TxnTrace
	if *txnTraceOut != "" || *explainTail {
		txn = memsys.NewTxnTrace()
		txn.SampleEvery = *txnSample
		txn.Seed = *txnSeed
		cfg.TxnTrace = txn
	}
	// Capacity-overflow warnings are warn-once so re-entrant printing
	// paths can report them unconditionally.
	traceWarn := warnonce.New(stderr)
	txnWarn := warnonce.New(stderr)

	var store *resultstore.Store
	if *storeDir != "" {
		var serr error
		store, serr = resultstore.Open(resultstore.Options{
			Dir: *storeDir, Version: gitDescribe(), MaxBytes: *storeMax, Log: stderr,
		})
		if serr != nil {
			fmt.Fprintf(stderr, "memsim: -store: %v\n", serr)
			return 1
		}
	}

	// -http serves this run as a one-span campaign: workers=1, the span
	// walks queued → running → done/failed, and the process lingers on
	// -http-linger so /metrics and /debug/pprof outlive the simulation.
	var tele *telemetry.Campaign
	var srv *telemetry.Server
	finish := func(code int) int {
		if store != nil {
			if cerr := store.Close(); cerr != nil && code == 0 {
				fmt.Fprintf(stderr, "memsim: store: %v\n", cerr)
				code = 1
			}
			store = nil
		}
		tele.SetComplete()
		if srv != nil {
			srv.WaitQuit(*httpLinger)
			srv.Close()
		}
		return code
	}
	var sp *telemetry.Span
	if *httpAddr != "" {
		tele = telemetry.NewCampaign()
		tele.SetWorkers(1)
		var serr error
		if srv, serr = telemetry.Serve(*httpAddr, tele); serr != nil {
			fmt.Fprintf(stderr, "memsim: -http: %v\n", serr)
			return 1
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "memsim: telemetry on http://%s (/metrics, /progress, /debug/pprof)\n", srv.Addr())
		sp = tele.Enqueue(*name, fmt.Sprintf("%v %d cores @%d MHz bw=%d pf=%d",
			cfg.Model, cfg.Cores, cfg.CoreMHz, cfg.DRAMBandwidthMBps, cfg.PrefetchDepth))
		if store != nil {
			tele.SetStoreStats(func() telemetry.StoreStats {
				st := store.Stats()
				return telemetry.StoreStats{
					Records: st.Records, Bytes: st.Bytes,
					Hits: st.Hits, Misses: st.Misses,
					Puts: st.Puts, PutErrors: st.PutErrors,
					Evictions: st.Evictions, Compactions: st.Compactions,
					Recovered: st.Recovered, Corrupt: st.Corrupt,
					TruncatedBytes: st.TruncatedBytes,
				}
			})
		}
	}

	sp.Start()
	// A store hit replays the persisted report through the exact printing
	// paths a fresh run uses, so the output is byte-identical either way.
	// Runs collecting live-only artifacts (-trace, -sample, -txn-trace,
	// -explain-tail) must really simulate; they skip the probe but still
	// persist their reports.
	var rep *memsys.Report
	fromStore := false
	if store != nil && tr == nil && pr == nil && txn == nil {
		if hit, ok := store.Get(cfg, *name, scale.String()); ok {
			rep, fromStore = hit, true
			sp.StoreHit()
			fmt.Fprintf(stderr, "memsim: result served from store %s\n", *storeDir)
		}
	}
	if !fromStore {
		var err error
		rep, err = memsys.Run(cfg, *name, scale)
		if err != nil {
			sp.Fail("error")
			fmt.Fprintf(stderr, "memsim: %v\n", err)
			var rerr memsys.RunError
			if errors.As(err, &rerr) {
				writeFlightTail(stderr, rerr.EngineState())
			}
			return finish(1)
		}
		sp.Done()
		if store != nil {
			if perr := store.Put(cfg, *name, scale.String(), rep); perr != nil {
				fmt.Fprintf(stderr, "memsim: store: write failed: %v\n", perr)
			}
		}
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		out := any(rep)
		if pr != nil {
			out = struct {
				Report *memsys.Report `json:"report"`
				Probe  *memsys.Probe  `json:"probe"`
			}{rep, pr}
		}
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(stderr, "memsim: %v\n", err)
			return finish(1)
		}
	} else {
		fmt.Fprint(stdout, rep)
		if *breakdown {
			writeBreakdownText(stdout, rep)
		}
		if pr != nil {
			writeProbeText(stdout, pr)
		}
		if *explainTail {
			txn.WriteExplainTail(stdout, sim.MHz(cfg.CoreMHz).Period)
		}
	}
	if tele != nil {
		if rep.Latency != nil {
			period := sim.MHz(cfg.CoreMHz).Period
			if period > 0 {
				rep.Latency.Each(func(lname string, d *memsys.LatencyDist) {
					for _, b := range d.Buckets {
						tele.RecordLatency(lname, uint64(b.HiFS)/uint64(period), b.Count)
					}
				})
			}
		}
		for _, s := range txn.Summary() {
			tele.RecordTxnClass(s.Class, s.Count, s.Exemplars, s.SlowestID, s.SlowestFS)
		}
	}
	if *latencyCSV != "" {
		f, ferr := os.Create(*latencyCSV)
		if ferr != nil {
			fmt.Fprintf(stderr, "memsim: %v\n", ferr)
			return finish(1)
		}
		rep.Latency.WriteBucketsCSV(f)
		f.Close()
		if !*asJSON {
			fmt.Fprintf(stdout, "latency: histogram buckets written to %s\n", *latencyCSV)
		}
	}
	if pr != nil && *sampleCSV != "" {
		f, ferr := os.Create(*sampleCSV)
		if ferr != nil {
			fmt.Fprintf(stderr, "memsim: %v\n", ferr)
			return finish(1)
		}
		if werr := pr.WriteCSV(f); werr != nil {
			fmt.Fprintf(stderr, "memsim: %v\n", werr)
			return finish(1)
		}
		f.Close()
		if !*asJSON {
			fmt.Fprintf(stdout, "samples: %d epochs written to %s\n", pr.Epochs(), *sampleCSV)
		}
	}
	if txn != nil && *txnTraceOut != "" {
		f, ferr := os.Create(*txnTraceOut)
		if ferr != nil {
			fmt.Fprintf(stderr, "memsim: %v\n", ferr)
			return finish(1)
		}
		if werr := txn.WriteJSONL(f); werr != nil {
			fmt.Fprintf(stderr, "memsim: %v\n", werr)
			return finish(1)
		}
		f.Close()
		if !*asJSON {
			fmt.Fprintf(stdout, "txn-trace: %d transaction trees written to %s\n", txn.Trees(), *txnTraceOut)
		}
	}
	if txn != nil {
		if d := txn.DroppedSampled(); d > 0 {
			txnWarn.Warnf("memsim: warning: txn trace dropped %d sampled trees past the retention cap; lower -txn-sample or rely on the exemplar reservoirs", d)
		}
	}
	if tr != nil {
		if pr != nil {
			mergeProbeCounters(tr, pr)
		}
		txn.MergeChrome(tr)
		f, ferr := os.Create(*traceOut)
		if ferr != nil {
			fmt.Fprintf(stderr, "memsim: %v\n", ferr)
			return finish(1)
		}
		if werr := tr.WriteChrome(f); werr != nil {
			fmt.Fprintf(stderr, "memsim: %v\n", werr)
			return finish(1)
		}
		f.Close()
		if !*asJSON {
			fmt.Fprintf(stdout, "trace: %d spans written to %s (%d dropped)\n", tr.Len(), *traceOut, tr.Dropped())
		}
		if d := tr.Dropped(); d > 0 {
			traceWarn.Warnf("memsim: warning: trace dropped %d spans past the collector cap; the timeline is incomplete", d)
		}
	}
	if *verbose {
		fmt.Fprintf(stdout, "L1:    %+v\n", rep.L1)
		fmt.Fprintf(stdout, "L2:    %+v\n", rep.L2)
		fmt.Fprintf(stdout, "DRAM:  %+v\n", rep.DRAM)
		fmt.Fprintf(stdout, "Net:   %+v\n", rep.Net)
		fmt.Fprintf(stdout, "Coher: rm=%d wm=%d upg=%d pfs=%d c2c=%d/%d wb=%d pf=%d/%d\n",
			rep.ReadMisses, rep.WriteMisses, rep.Upgrades, rep.PFSMisses,
			rep.C2CCluster, rep.C2CRemote, rep.L1WritebacksL2,
			rep.PrefetchFills, rep.PrefetchUseless)
		fmt.Fprintf(stdout, "DMA:   cmds=%d get=%dB put=%dB ls=%d\n",
			rep.DMACommands, rep.DMAGetBytes, rep.DMAPutBytes, rep.LSAccesses)
		fmt.Fprintf(stdout, "Energy: core=%.3g i$=%.3g d$=%.3g lmem=%.3g net=%.3g l2=%.3g dram=%.3g J\n",
			rep.Energy.Core, rep.Energy.ICache, rep.Energy.DCache, rep.Energy.LMem,
			rep.Energy.Network, rep.Energy.L2, rep.Energy.DRAM)
		fmt.Fprintf(stdout, "Engine: dispatches=%d fastpath=%.1f%% inline=%.1f%% heap<=%d srv pruned=%d\n",
			rep.Engine.Dispatches+rep.Engine.InlineSteps, 100*rep.Engine.FastPathRate(),
			100*rep.Engine.InlineRate(), rep.Engine.HeapMax, rep.Servers.Pruned)
	}
	return finish(0)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
