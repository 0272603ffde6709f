package main

import (
	"math"
	"os"
	"testing"
)

func TestLayerOf(t *testing.T) {
	cases := map[string]string{
		"repro/internal/sim.(*Server).Acquire":                              "sim.calendar",
		"repro/internal/sim.(*Pipe).Send":                                   "sim.calendar",
		"repro/internal/sim.(*Engine).Run.func1":                            "sim.engine",
		"repro/internal/sim.(*Task).Sync (inline)":                          "sim.engine",
		"repro/internal/cache.(*Cache).lookup (inline)":                     "cache",
		"repro/internal/lstore.(*Store).Read":                               "stream",
		"repro/internal/cpu.(*Proc).Load":                                   "core",
		"repro.NewSystem":                                                   "core",
		"repro/internal/telemetry.(*Campaign).MemoHit":                      "bench",
		"runtime.mallocgc":                                                  "runtime",
		"internal/runtime/syscall.Syscall6":                                 "runtime",
		"sort.partition_func":                                               "other",
		"main.runJob":                                                       "other",
		"type:.eq.repro/internal/core.Config":                               "other",
		"slices.SortFunc[go.shape.[]repro/internal/core.Config]":            "other",
		"repro/internal/bench.SortedKeys[go.shape.[]uint8,go.shape.string]": "bench",
	}
	for fn, want := range cases {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestParseDuration(t *testing.T) {
	cases := map[string]float64{"0": 0, "10ms": 0.01, "1.25s": 1.25, "1.50mins": 90, "250us": 250e-6}
	for s, want := range cases {
		got, err := parseDuration(s)
		if err != nil || math.Abs(got-want) > 1e-12 {
			t.Errorf("parseDuration(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := parseDuration("12 parsecs"); err == nil {
		t.Error("parseDuration accepted an unknown unit")
	}
}

// TestFoldTopFixture folds pprof text captured from a traced str-dma run.
func TestFoldTopFixture(t *testing.T) {
	f, err := os.Open("testdata/pprof_top.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	byLayer, total, err := foldTop(f)
	if err != nil {
		t.Fatal(err)
	}
	if total != 4.17 {
		t.Fatalf("total = %v, want the header's 4.17s", total)
	}
	sum := 0.0
	for _, l := range layers {
		sum += byLayer[l]
	}
	if math.Abs(sum-total) > 1e-9 {
		t.Errorf("layers sum to %v, want the profile total %v", sum, total)
	}
	if len(byLayer) > len(layers) {
		t.Errorf("fold produced %d buckets, more than the %d layers: %v", len(byLayer), len(layers), byLayer)
	}
	// (*Server).Acquire alone is 0.69s flat in the fixture.
	if byLayer["sim.calendar"] < 0.69 {
		t.Errorf("sim.calendar = %v, want at least Server.Acquire's 0.69s", byLayer["sim.calendar"])
	}
	// An STR run has no coherence domain.
	if byLayer["coher"] != 0 {
		t.Errorf("coher = %v on an STR profile", byLayer["coher"])
	}
	// Every row is shown (-nodefraction=0), so rounding is all that other
	// absorbs beyond the unmapped packages: it never goes negative.
	if byLayer["other"] < 0 {
		t.Errorf("other = %v", byLayer["other"])
	}
}
