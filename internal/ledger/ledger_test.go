package ledger

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/txntrace"
)

func TestClassNamesAndOrder(t *testing.T) {
	names := ClassNames()
	if len(names) != int(NumClasses) {
		t.Fatalf("ClassNames: %d names, want %d", len(names), NumClasses)
	}
	if names[Compute] != "compute" || names[Idle] != "idle" {
		t.Errorf("unexpected names: %v", names)
	}
	if got := PrefetchShadow.String(); got != "prefetch_shadow" {
		t.Errorf("String() = %q", got)
	}
	if got := Class(250).String(); !strings.Contains(got, "250") {
		t.Errorf("out-of-range String() = %q", got)
	}
}

func TestLedgerChargeAndTotal(t *testing.T) {
	var l Ledger
	l.Charge(Compute, 10)
	l.Charge(Compute, 5)
	l.Charge(SyncWait, 7)
	if got := l.Get(Compute); got != 15 {
		t.Errorf("Get(Compute) = %d, want 15", got)
	}
	if got := l.Total(); got != 22 {
		t.Errorf("Total() = %d, want 22", got)
	}
}

func TestLedgerAddAndSnapshot(t *testing.T) {
	var a, b Ledger
	a.Charge(LoadStall, 3)
	b.Charge(LoadStall, 4)
	b.Charge(DMAWait, 2)
	a.Add(&b)
	if got := a.Get(LoadStall); got != 7 {
		t.Errorf("after Add, LoadStall = %d, want 7", got)
	}
	var names []string
	a.Snapshot(func(name string, _ float64) { names = append(names, name) })
	// Idle is excluded: it is derived at report time.
	want := []string{"compute", "load_stall", "store_stall", "sync_wait", "dma_wait", "prefetch_shadow"}
	if len(names) != len(want) {
		t.Fatalf("Snapshot emitted %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("Snapshot[%d] = %q, want %q", i, names[i], want[i])
		}
	}
}

func TestSummaryIdleAndCheck(t *testing.T) {
	const wall = sim.Time(100)
	l0, l1 := &Ledger{}, &Ledger{}
	l0.Charge(Compute, 60)
	l0.Charge(LoadStall, 40) // finishes exactly at wall
	l1.Charge(Compute, 30)   // finishes at 30; 70 idle
	s := NewSummary(wall, []*Ledger{l0, l1}, []sim.Time{100, 30})
	if got := s.PerCore[0][Idle]; got != 0 {
		t.Errorf("core 0 idle = %d, want 0", got)
	}
	if got := s.PerCore[1][Idle]; got != 70 {
		t.Errorf("core 1 idle = %d, want 70", got)
	}
	if err := s.Check(wall); err != nil {
		t.Errorf("Check: %v", err)
	}
	if got := s.Avg[Compute]; got != 45 {
		t.Errorf("Avg[Compute] = %d, want 45", got)
	}
	// Break conservation and watch Check catch it.
	s.PerCore[1][Compute]++
	if err := s.Check(wall); err == nil {
		t.Errorf("Check missed a broken row")
	}
}

// TestLatencySummaryJSON: the latency block's fields and JSON tags
// follow txntrace.ReportClasses, it encodes as an object keyed by class
// name in report order — prefetch fills and empty classes left out —
// and decodes back to the same bytes (the result-store and manifest
// round trip).
func TestLatencySummaryJSON(t *testing.T) {
	typ := reflect.TypeOf(LatencySummary{})
	classes := txntrace.ReportClasses()
	if typ.NumField() != len(classes) {
		t.Fatalf("%d fields for %d report classes", typ.NumField(), len(classes))
	}
	var probe LatencySummary
	for i, c := range classes {
		if tag := typ.Field(i).Tag.Get("json"); tag != c.String()+",omitempty" {
			t.Errorf("field %s tagged %q, want class %v", typ.Field(i).Name, tag, c)
		}
		if p := probe.fields()[i]; p != reflect.ValueOf(&probe).Elem().Field(i).Addr().Interface() {
			t.Errorf("fields()[%d] is not field %s", i, typ.Field(i).Name)
		}
	}

	tr := &txntrace.Tracer{K: -1}
	tr.Begin(txntrace.WriteMiss, 0, 0x40, 0)
	tr.End(300)
	tr.Begin(txntrace.Prefetch, 0, 0x80, 0)
	tr.End(5)
	tr.Begin(txntrace.ReadMiss, 0, 0xc0, 10)
	tr.End(110)
	tr.RecordNoCAcquire(3)
	b, err := json.Marshal(NewLatencySummary(tr))
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"read_miss":{"count":1,"mean_fs":100,"p50_fs":100,"p95_fs":100,"p99_fs":100,"max_fs":100,"buckets":[{"lo_fs":64,"hi_fs":127,"count":1}]},` +
		`"write_miss":{"count":1,"mean_fs":300,"p50_fs":300,"p95_fs":300,"p99_fs":300,"max_fs":300,"buckets":[{"lo_fs":256,"hi_fs":511,"count":1}]},` +
		`"noc_acquire":{"count":1,"mean_fs":3,"p50_fs":3,"p95_fs":3,"p99_fs":3,"max_fs":3,"buckets":[{"lo_fs":2,"hi_fs":3,"count":1}]}}`
	if string(b) != want {
		t.Fatalf("encoding:\n got %s\nwant %s", b, want)
	}
	var back LatencySummary
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if again, _ := json.Marshal(&back); string(again) != want {
		t.Fatalf("round trip:\n got %s\nwant %s", again, want)
	}
	if empty, _ := json.Marshal(NewLatencySummary(&txntrace.Tracer{})); string(empty) != `{}` {
		t.Fatalf("empty summary encodes as %s", empty)
	}
}
