package txntrace

import (
	"testing"

	"repro/internal/sim"
)

// traceOneMiss is the charge-site shape of one CC read miss: a root
// Begin, a handful of hops across the hierarchy, one nested fill, and
// the End that finalizes attribution. The benchmarks drive this exact
// sequence so the measured cost is the per-transaction price the model
// pays, not a synthetic single hook.
func traceOneMiss(t *Tracer, i int) {
	at := sim.Time(i) * 1000
	t.Begin(ReadMiss, i&7, uint64(i)*64, at)
	t.Hop("noc", "bus_control", at, at+10)
	t.Begin(L2Hit, i&7, uint64(i)*64, at+10)
	t.Hop("l2", "access", at+10, at+20)
	t.End(at + 20)
	t.HopTag("noc", "bus_data", at+20, at+30, "wait=0fs")
	t.End(at + 30)
}

// BenchmarkTxnTraceDisabled is the disabled-cost gate: the full miss
// hook sequence against a nil Tracer, i.e. what every transaction pays
// when tracing is off. bench-check pins it against the same-run
// BenchmarkDispatchInline control, so the nil compares must stay well
// under the cost of a single inline dispatch.
func BenchmarkTxnTraceDisabled(b *testing.B) {
	var t *Tracer
	for i := 0; i < b.N; i++ {
		traceOneMiss(t, i)
	}
}

// BenchmarkTxnTraceTreeless is the same sequence on the tree-less
// tracer a ledger-only run attaches: two frame pushes and pops plus two
// histogram records, no allocation (TestTreelessTracerAllocatesNothing).
func BenchmarkTxnTraceTreeless(b *testing.B) {
	t := &Tracer{K: -1}
	for i := 0; i < b.N; i++ {
		traceOneMiss(t, i)
	}
}

// BenchmarkTxnTraceEnabled is the same sequence with exemplar capture
// armed (the always-on mode every -txn-trace/-explain-tail run pays for
// every transaction, not just retained ones).
func BenchmarkTxnTraceEnabled(b *testing.B) {
	t := New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		traceOneMiss(t, i)
	}
}

// BenchmarkTxnTraceSampled adds 1-in-64 sampled full-tree capture with
// a bounded retention cap, the configuration the determinism tests and
// CI runs use.
func BenchmarkTxnTraceSampled(b *testing.B) {
	t := New()
	t.SampleEvery = 64
	t.KeptCap = 1024
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		traceOneMiss(t, i)
	}
}
