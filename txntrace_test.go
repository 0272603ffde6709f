package memsys_test

import (
	"bytes"
	"encoding/json"
	"testing"

	memsys "repro"
	"repro/internal/txntrace"
)

// reportBytes runs one workload/model pair and returns the full report
// as JSON. ledger arms the cycle ledger (the report then carries the
// Cycles and Latency blocks); arm configures the run's transaction
// tracer (nil = off).
func reportBytes(t *testing.T, model memsys.Model, name string, ledger bool, arm func() *memsys.TxnTrace) []byte {
	t.Helper()
	cfg := memsys.DefaultConfig(model, 2)
	cfg.CycleLedger = ledger
	if arm != nil {
		cfg.TxnTrace = arm()
	}
	rep, err := memsys.Run(cfg, name, memsys.ScaleSmall)
	if err != nil {
		t.Fatalf("%v/%s: %v", model, name, err)
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestTxnTraceDoesNotPerturbReports is the zero-perturbation gate:
// every shipped workload on every model must produce byte-identical
// reports with tracing off, with sampled capture on, and with exemplar
// capture on — with CycleLedger off, and with it on, where the
// Latency block's histograms must not depend on whether transaction
// trees are captured. The tracer only ever reads simulated clocks; any
// divergence here means a hook leaked time or state into the model.
func TestTxnTraceDoesNotPerturbReports(t *testing.T) {
	sampled := func() *memsys.TxnTrace {
		tr := memsys.NewTxnTrace()
		tr.SampleEvery = 16
		tr.Seed = 42
		return tr
	}
	exemplars := func() *memsys.TxnTrace { return memsys.NewTxnTrace() }
	for _, ledger := range []bool{false, true} {
		for _, model := range []memsys.Model{memsys.CC, memsys.STR, memsys.INC} {
			for _, name := range memsys.Workloads() {
				off := reportBytes(t, model, name, ledger, nil)
				if ledger && !bytes.Contains(off, []byte(`"Latency":{`)) {
					t.Errorf("%v/%s: ledger-armed report has no Latency block", model, name)
				}
				if on := reportBytes(t, model, name, ledger, sampled); !bytes.Equal(off, on) {
					t.Errorf("%v/%s ledger=%v: sampled tracing changed the report", model, name, ledger)
				}
				if on := reportBytes(t, model, name, ledger, exemplars); !bytes.Equal(off, on) {
					t.Errorf("%v/%s ledger=%v: exemplar tracing changed the report", model, name, ledger)
				}
			}
		}
	}
}

// checkConservation walks one tree: each node's hop AdvanceFS values
// must sum exactly to its end-to-end latency (the per-hop attribution
// is a partition of the transaction's wait, not a sample of it).
func checkConservation(t *testing.T, x *memsys.Txn) {
	t.Helper()
	var sum int64
	for _, h := range x.Hops {
		if h.AdvanceFS < 0 {
			t.Errorf("txn #%d: hop %s.%s has negative advance %d", x.ID, h.Component, h.Op, h.AdvanceFS)
		}
		sum += int64(h.AdvanceFS)
	}
	if sum != int64(x.Latency()) {
		t.Errorf("txn #%d %s: per-hop cycles sum to %d fs, latency is %d fs", x.ID, x.Class, sum, x.Latency())
	}
	for _, k := range x.Kids {
		checkConservation(t, k)
	}
}

// TestTxnTraceConservation runs the acceptance workload (fir, CC,
// 8 cores) and checks every retained tree — worst-K exemplars of every
// class plus the sampled population — for exact latency conservation.
func TestTxnTraceConservation(t *testing.T) {
	cfg := memsys.DefaultConfig(memsys.CC, 8)
	tr := memsys.NewTxnTrace()
	tr.SampleEvery = 64
	cfg.TxnTrace = tr
	if _, err := memsys.Run(cfg, "fir", memsys.ScaleSmall); err != nil {
		t.Fatal(err)
	}
	trees := 0
	for _, c := range txntrace.Classes() {
		for _, x := range tr.Exemplars(c) {
			checkConservation(t, x)
			trees++
		}
	}
	if trees == 0 {
		t.Fatal("no exemplar trees retained on an 8-core CC fir run")
	}
	if tr.Exemplars(txntrace.ReadMiss) == nil {
		t.Fatal("no worst-K read_miss exemplars")
	}
	for _, x := range tr.Kept() {
		checkConservation(t, x)
	}
	if len(tr.Kept()) == 0 {
		t.Fatal("1-in-64 sampling kept nothing; the fir run issues thousands of transactions")
	}
}

// TestTxnTraceDeterminism: two runs at the same seed retain identical
// transaction trees, byte for byte through the JSONL sink — the
// contract that lets a re-run trace the exact transactions a previous
// run's exemplars pointed at.
func TestTxnTraceDeterminism(t *testing.T) {
	capture := func() []byte {
		cfg := memsys.DefaultConfig(memsys.CC, 8)
		tr := memsys.NewTxnTrace()
		tr.SampleEvery = 64
		tr.Seed = 7
		cfg.TxnTrace = tr
		if _, err := memsys.Run(cfg, "fir", memsys.ScaleSmall); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tr.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := capture(), capture()
	if len(a) == 0 {
		t.Fatal("no trees captured")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed runs retained different trees (%d vs %d bytes)", len(a), len(b))
	}
}
