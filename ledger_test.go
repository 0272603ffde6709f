package memsys_test

import (
	"bytes"
	"encoding/json"
	"testing"

	memsys "repro"
	"repro/internal/cpu"
	"repro/internal/ledger"
)

// TestLedgerConservation is the cycle-accounting layer's property test:
// for every shipped workload, on both of the paper's models (plus the
// incoherent extension) and across core counts, each core's ledger
// classes — with Idle derived from wall minus finish — must sum EXACTLY
// to the run's wall time. Any charge site that moves a core clock
// without charging a class (or double-charges one) fails here with the
// femtosecond discrepancy. It also pins which classes make up which
// Figure 2 bucket: each core's breakdown is the fold of its classes.
// CC with a depth-4 prefetcher runs too: it is the only machine that
// charges prefetch_shadow.
func TestLedgerConservation(t *testing.T) {
	machines := []struct {
		label    string
		model    memsys.Model
		prefetch int
	}{
		{"CC", memsys.CC, 0},
		{"STR", memsys.STR, 0},
		{"INC", memsys.INC, 0},
		{"CC-P4", memsys.CC, 4},
	}
	coreCounts := []int{1, 4, 8}
	if testing.Short() {
		coreCounts = []int{4}
	}
	for _, name := range memsys.Workloads() {
		for _, m := range machines {
			for _, cores := range coreCounts {
				name, m, cores := name, m, cores
				t.Run(name+"-"+m.label+"-"+itoa(cores), func(t *testing.T) {
					t.Parallel()
					cfg := memsys.DefaultConfig(m.model, cores)
					cfg.PrefetchDepth = m.prefetch
					cfg.CycleLedger = true
					rep, err := memsys.Run(cfg, name, memsys.ScaleSmall)
					if err != nil {
						t.Fatalf("run: %v", err)
					}
					if rep.Cycles == nil {
						t.Fatalf("CycleLedger set but Report.Cycles is nil")
					}
					if err := rep.Cycles.Check(rep.Wall); err != nil {
						t.Errorf("conservation: %v", err)
					}
					for i, row := range rep.Cycles.PerCore {
						if got, want := rep.PerCore[i], foldFigure2(row); got != want {
							t.Errorf("core %d breakdown %+v, fold of its classes %+v", i, got, want)
						}
					}
					if rep.Latency == nil {
						t.Fatalf("CycleLedger set but Report.Latency is nil")
					}
				})
			}
		}
	}
}

// TestLedgerDoesNotPerturbReports pins the accounting layer's zero-
// interference invariant, the same discipline as
// TestProbeDoesNotPerturbReports: enabling the cycle ledger must not
// change the simulated outcome. Stripping the two ledger-only blocks
// from the enabled report must leave bytes identical to the disabled
// run's report.
func TestLedgerDoesNotPerturbReports(t *testing.T) {
	cases := []struct {
		workload string
		model    memsys.Model
	}{
		{"fir", memsys.CC},
		{"fir", memsys.STR},
		{"mergesort", memsys.CC},
		{"mergesort", memsys.STR},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.workload+"-"+tc.model.String(), func(t *testing.T) {
			t.Parallel()
			run := func(ledgerOn bool) []byte {
				cfg := memsys.DefaultConfig(tc.model, 4)
				cfg.CycleLedger = ledgerOn
				rep, err := memsys.Run(cfg, tc.workload, memsys.ScaleSmall)
				if err != nil {
					t.Fatalf("run (ledger=%v): %v", ledgerOn, err)
				}
				js, err := json.Marshal(rep)
				if err != nil {
					t.Fatalf("marshal: %v", err)
				}
				// Strip the ledger-only blocks; everything else must match.
				var m map[string]json.RawMessage
				if err := json.Unmarshal(js, &m); err != nil {
					t.Fatalf("unmarshal: %v", err)
				}
				if ledgerOn {
					if _, ok := m["Cycles"]; !ok {
						t.Fatalf("enabled report lacks Cycles block")
					}
				} else {
					if _, ok := m["Cycles"]; ok {
						t.Fatalf("disabled report carries a Cycles block")
					}
				}
				delete(m, "Cycles")
				delete(m, "Latency")
				out, err := json.Marshal(m)
				if err != nil {
					t.Fatalf("re-marshal: %v", err)
				}
				return out
			}
			off := run(false)
			on := run(true)
			if !bytes.Equal(off, on) {
				t.Errorf("report differs with the ledger on:\noff: %s\non:  %s", off, on)
			}
		})
	}
}

// foldFigure2 maps one core's cycle classes onto the Figure 2 buckets.
func foldFigure2(c [ledger.NumClasses]memsys.Time) cpu.Breakdown {
	return cpu.Breakdown{
		Useful:     c[ledger.Compute],
		Sync:       c[ledger.SyncWait] + c[ledger.DMAWait],
		LoadStall:  c[ledger.LoadStall] + c[ledger.PrefetchShadow],
		StoreStall: c[ledger.StoreStall],
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
