package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/bench"
)

// passResult is one pass over a job set: every job once, in a shuffled
// order. runs is indexed like the job set, so sums over it do not depend
// on the order the jobs ran in.
type passResult struct {
	wall time.Duration
	runs []jobRun
}

// runPass runs every job of the set once in order perm.
func runPass(jobs []job, perm []int, observe bool) passResult {
	p := passResult{runs: make([]jobRun, len(jobs))}
	t0 := time.Now()
	for _, i := range perm {
		p.runs[i] = runJob(jobs[i], observe)
	}
	p.wall = time.Since(t0)
	return p
}

// counts sums the pass's Report-derived counters in job-set order.
func (p passResult) counts() counts {
	var c counts
	for _, r := range p.runs {
		if r.rep != nil {
			c.add(r.rep)
		}
		c.addObservers(r.obs)
	}
	return c
}

// timing sums the pass's per-call host times.
func (p passResult) timing() jobTiming {
	var t jobTiming
	for _, r := range p.runs {
		t.NewWorkload += r.timing.NewWorkload
		t.Build += r.timing.Build
		t.Setup += r.timing.Setup
		t.Run += r.timing.Run
		t.Verify += r.timing.Verify
	}
	return t
}

// mips is the pass's simulated instructions per host second of
// System.Run, Setup and Verify excluded, in millions.
func (p passResult) mips() float64 {
	var instr uint64
	for _, r := range p.runs {
		if r.rep != nil {
			instr += r.rep.Instructions
		}
	}
	return float64(instr) / p.timing().Run.Seconds() / 1e6
}

// check counts the pass's failed simulations: a Run or Verify error, or
// a report whose digest differs from the reference.
func (p passResult) check(refs map[string]string, fail func(what string)) {
	for _, r := range p.runs {
		key := refKey(r.job.name, r.job.cfg)
		switch {
		case r.err != nil:
			fail(fmt.Sprintf("%v: %v", r.job, r.err))
		case refs[key] == "":
			fail(fmt.Sprintf("%v: no reference digest", r.job))
		case digest(r.rep) != refs[key]:
			fail(fmt.Sprintf("%v: report digest differs from the reference", r.job))
		}
	}
}

// runPasses repeats passes over jobs until budget is spent, always
// running at least one, and never starting one the median pass so far
// would not finish in time.
func runPasses(jobs []job, observe bool, rng *rand.Rand, budget time.Duration) []passResult {
	var passes []passResult
	start := time.Now()
	for {
		passes = append(passes, runPass(jobs, rng.Perm(len(jobs)), observe))
		next := time.Duration(median(walls(passes)) * float64(time.Second))
		if time.Since(start)+next > budget {
			return passes
		}
	}
}

// storeResult is perfbench's round trip of one job set's reports
// through a fresh result store, and the warm passes bench.Runner then
// serves from it.
type storeResult struct {
	put, get  time.Duration // summed Put and Get calls perfbench timed
	puts      uint64
	putErrors uint64
	warm      []time.Duration // each warm pass: open, every job via bench.Runner, close
	hits      int             // store hits of the first warm pass
	misses    int             // store lookups that missed in the first warm pass
}

// warmPasses is the minimum number of store-served passes.
const warmPasses = 5

// storeRoundTrip writes every report of pass p into a store under dir,
// reads each back, then serves the whole job set from it through
// bench.Runner at least warmPasses times and until budget is spent. A
// job the warm pass simulates afresh, or whose report digest differs
// from the reference, fails.
func storeRoundTrip(dir string, jobs []job, p passResult, refs map[string]string, budget time.Duration, fail func(string)) (storeResult, error) {
	var res storeResult
	st, err := openStore(dir)
	if err != nil {
		return res, err
	}
	for i, j := range jobs {
		if p.runs[i].rep == nil {
			continue
		}
		t0 := time.Now()
		if err := st.Put(j.cfg, j.name, scale.String(), p.runs[i].rep); err != nil {
			fail(fmt.Sprintf("%v: store put: %v", j, err))
		}
		res.put += time.Since(t0)
	}
	for _, j := range jobs {
		t0 := time.Now()
		_, ok := st.Get(j.cfg, j.name, scale.String())
		res.get += time.Since(t0)
		if !ok {
			fail(fmt.Sprintf("%v: store get missed a record just written", j))
		}
	}
	s := st.Stats()
	res.puts, res.putErrors = s.Puts, s.PutErrors
	if err := st.Close(); err != nil {
		return res, err
	}

	start := time.Now()
	for len(res.warm) < warmPasses || time.Since(start) < budget {
		t0 := time.Now()
		st, err := openStore(dir)
		if err != nil {
			return res, err
		}
		r := bench.NewRunner(scale)
		r.Store = st
		first := len(res.warm) == 0
		for _, j := range jobs {
			rep, err := r.Run(j.cfg, j.name)
			if !first {
				continue
			}
			switch {
			case err != nil:
				fail(fmt.Sprintf("%v: warm pass: %v", j, err))
			case digest(rep) != refs[refKey(j.name, j.cfg)]:
				fail(fmt.Sprintf("%v: warm pass: report digest differs from the reference", j))
			}
		}
		r.Close()
		if first {
			ok, failed := r.Outcome()
			if ok+failed > 0 {
				fail(fmt.Sprintf("warm pass simulated %d jobs afresh", ok+failed))
			}
			res.hits = r.StoreHits()
			res.misses = int(st.Stats().Misses)
		}
		if err := st.Close(); err != nil {
			return res, err
		}
		res.warm = append(res.warm, time.Since(t0))
	}
	return res, nil
}

// newStoreDir returns a fresh, empty store directory under work.
func newStoreDir(work, name string) (string, error) {
	dir := filepath.Join(work, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, nil
}
