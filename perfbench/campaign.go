package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/resultstore"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// goldenPath is the default-scale paperbench output every campaign pass
// must reproduce byte for byte.
const goldenPath = "paperbench_default.txt"

// sections are paperbench's outputs in the order it prints them; each is
// followed by a blank line.
var sections = []string{
	"table2", "table3", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
	"fig8", "fig9", "fig10", "breakdown",
}

// renderSection writes one section the way paperbench does.
func renderSection(r *bench.Runner, name string, w io.Writer) error {
	var err error
	switch name {
	case "table2":
		bench.Table2(w)
	case "table3":
		_, err = r.Table3(w)
	case "fig2":
		_, err = r.Figure2(w, nil)
	case "fig3":
		_, err = r.Figure3(w)
	case "fig4":
		_, err = r.Figure4(w)
	case "fig5":
		_, err = r.Figure5(w)
	case "fig6":
		_, err = r.Figure6(w)
	case "fig7":
		_, err = r.Figure7(w)
	case "fig8":
		_, _, err = r.Figure8(w)
	case "fig9":
		_, _, err = r.Figure9(w)
	case "fig10":
		_, err = r.Figure10(w)
	case "breakdown":
		_, err = r.FigureBreakdown(w, nil)
	default:
		return fmt.Errorf("unknown section %q", name)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	fmt.Fprintln(w)
	return nil
}

// campaignPass is one run of the whole figure set through bench.Runner.
type campaignPass struct {
	wall      time.Duration
	text      []byte
	records   []bench.Record // fresh simulations, in completion order
	fresh     int            // fresh simulations (ok + failed)
	storeHits int
	memoHits  uint64 // from telemetry; zero when tele was off
	workers   int
}

// runCampaign renders every section, in the order given, on a fresh
// Runner with Workers = NumCPU backed by st, and assembles the text in
// paperbench's order. Section order changes which figure first simulates
// a shared job, not the set of jobs or the text.
func runCampaign(st *resultstore.Store, order []int, tele bool) (campaignPass, error) {
	p := campaignPass{workers: runtime.NumCPU()}
	r := bench.NewRunner(workload.ScaleDefault)
	r.Workers = p.workers
	r.Store = st
	var camp *telemetry.Campaign
	if tele {
		camp = telemetry.NewCampaign()
		r.Telemetry = camp
	}
	var mu sync.Mutex
	r.OnRecord = func(rec bench.Record) {
		mu.Lock()
		p.records = append(p.records, rec)
		mu.Unlock()
	}
	out := make([]bytes.Buffer, len(sections))
	t0 := time.Now()
	for _, i := range order {
		if err := renderSection(r, sections[i], &out[i]); err != nil {
			r.Close()
			return p, err
		}
	}
	r.Close()
	p.wall = time.Since(t0)
	for i := range out {
		p.text = append(p.text, out[i].Bytes()...)
	}
	ok, failed := r.Outcome()
	p.fresh = ok + failed
	p.storeHits = r.StoreHits()
	if camp != nil {
		p.memoHits = camp.Snapshot(false).MemoHits
	}
	return p, nil
}

// check counts a campaign pass's failures: text that differs from the
// golden output, failed or unreferenced fresh simulations, and — on a
// warm pass — any fresh simulation at all.
func (p campaignPass) check(golden []byte, refs map[string]string, warm bool, fail func(string)) {
	if !bytes.Equal(p.text, golden) {
		fail(fmt.Sprintf("campaign text differs from %s", goldenPath))
	}
	if warm && p.fresh > 0 {
		fail(fmt.Sprintf("warm pass simulated %d jobs afresh", p.fresh))
	}
	for _, rec := range p.records {
		key := refKey(rec.Name, rec.Cfg)
		switch {
		case rec.Err != "":
			fail(fmt.Sprintf("%s %v/%d: %s", rec.Name, rec.Cfg.Model, rec.Cfg.Cores, rec.Err))
		case refs[key] == "":
			fail(fmt.Sprintf("%s: no reference digest", key))
		case digest(rec.Report) != refs[key]:
			fail(fmt.Sprintf("%s: report digest differs from the reference", key))
		}
	}
}

// counts sums the fresh simulations' Report counters in a fixed order.
func (p campaignPass) counts() counts {
	recs := append([]bench.Record(nil), p.records...)
	key := func(r bench.Record) string {
		return fmt.Sprintf("%s ledger%t", refKey(r.Name, r.Cfg), r.Cfg.CycleLedger)
	}
	sort.Slice(recs, func(i, j int) bool { return key(recs[i]) < key(recs[j]) })
	var c counts
	for _, rec := range recs {
		if rec.Report != nil {
			c.add(rec.Report)
		}
	}
	return c
}

// campaignSetupJobs is the campaign's set-up sample: every registered
// application on both paper models at 8 cores.
func campaignSetupJobs() []job {
	var jobs []job
	for _, name := range workload.Names() {
		for _, m := range []core.Model{core.CC, core.STR} {
			jobs = append(jobs, job{name, core.DefaultConfig(m, 8)})
		}
	}
	return jobs
}
