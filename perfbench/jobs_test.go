package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	memsys "repro"
	"repro/internal/core"
)

// TestTimedWrapperIsTransparent runs each job directly and through the
// timing wrapper: the reports, Engine counters included, must be
// byte-identical. For STR this holds only if the wrapper forwards
// InlineBody; without it the cores would fall back to goroutines.
func TestTimedWrapperIsTransparent(t *testing.T) {
	for _, model := range []core.Model{core.STR, core.CC} {
		run := func(wrap bool) (*core.Report, []byte) {
			w, err := memsys.NewWorkload("fir", memsys.ScaleSmall)
			if err != nil {
				t.Fatal(err)
			}
			if wrap {
				w = &timed{Workload: w}
			}
			rep, err := memsys.NewSystem(memsys.DefaultConfig(model, 4)).Run(w)
			if err != nil {
				t.Fatalf("%v wrap=%v: %v", model, wrap, err)
			}
			b, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			return rep, b
		}
		_, direct := run(false)
		rep, wrapped := run(true)
		if !bytes.Equal(direct, wrapped) {
			t.Errorf("%v: wrapped report differs from the direct one", model)
		}
		if model == core.STR && rep.Engine.InlineSteps == 0 {
			t.Errorf("STR run through the wrapper took no inline steps")
		}
	}
}

// TestCountsRepeatExactly runs a small job set twice, observers armed
// on one job, and requires identical Report-derived counts, and digests
// that match the embedded references.
func TestCountsRepeatExactly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs default-scale simulations")
	}
	refs, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	jobs := []job{strJobs()[6], observedJobs()[0]} // fir STR 8, fir CC 8 with the ledger
	pass := func(perm []int) passResult {
		p := runPass(jobs, perm, true)
		p.check(refs, func(what string) { t.Error(what) })
		return p
	}
	a, b := pass([]int{0, 1}).counts(), pass([]int{1, 0}).counts()
	if a != b {
		t.Errorf("counts differ between two passes:\n%+v\n%+v", a, b)
	}
	if a.InlineSteps == 0 || a.ReadMisses == 0 || a.Txns == 0 || a.ProbeSamples == 0 || a.TraceSpans == 0 {
		t.Errorf("a layer counted nothing: %+v", a)
	}
}

// TestBenchmarkJSONNames keeps the metric lists in BENCHMARK.json and
// perfbench in step.
func TestBenchmarkJSONNames(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(v []struct{ Name string }) []string {
		var out []string
		for _, x := range v {
			out = append(out, x.Name)
		}
		return out
	}
	same := func(what string, got, want []string) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %v, perfbench %v", what, got, want)
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s: BENCHMARK.json has %v, perfbench %v", what, got, want)
				return
			}
		}
	}
	same("end_to_end", names(spec.EndToEnd), endToEnd)
	same("per_layer", names(spec.PerLayer), perLayer)
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown to perfbench", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, perfbench %d", len(spec.Workloads), len(workloads))
	}
}
