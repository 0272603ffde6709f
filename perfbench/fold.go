package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// layers lists the host-time buckets of the pprof fold, in report order.
// Every profiled function lands in exactly one, so their host_s values
// sum to the profile total.
var layers = []string{
	"workload", "core", "sim.engine", "sim.calendar", "cache", "coher",
	"prefetch", "incoher", "noc", "uncore", "dram", "dma", "stream",
	"ledger", "txntrace", "probe", "trace", "bench", "resultstore",
	"runtime", "other",
}

// layerOfPackage maps the repository's packages to layers. perfbench
// itself and the standard library outside the runtime fold into other.
var layerOfPackage = map[string]string{
	"repro/internal/workload":    "workload",
	"repro":                      "core",
	"repro/internal/core":        "core",
	"repro/internal/cpu":         "core",
	"repro/internal/mem":         "core",
	"repro/internal/syncprim":    "core",
	"repro/internal/energy":      "core",
	"repro/internal/sim":         "sim.engine",
	"repro/internal/cache":       "cache",
	"repro/internal/coher":       "coher",
	"repro/internal/prefetch":    "prefetch",
	"repro/internal/incoher":     "incoher",
	"repro/internal/noc":         "noc",
	"repro/internal/uncore":      "uncore",
	"repro/internal/dram":        "dram",
	"repro/internal/dma":         "dma",
	"repro/internal/stream":      "stream",
	"repro/internal/lstore":      "stream",
	"repro/internal/ledger":      "ledger",
	"repro/internal/txntrace":    "txntrace",
	"repro/internal/probe":       "probe",
	"repro/internal/trace":       "trace",
	"repro/internal/bench":       "bench",
	"repro/internal/telemetry":   "bench",
	"repro/internal/resultstore": "resultstore",
}

// packageOf returns the import path of a pprof function name such as
// "repro/internal/sim.(*Server).Acquire" or "runtime.mallocgc". Type
// arguments are cut first: they may contain other packages' paths.
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// layerOf assigns one function to its layer. Methods of sim.Server and
// sim.Pipe form the calendar; the rest of internal/sim is the engine.
func layerOf(fn string) string {
	pkg := packageOf(fn)
	if pkg == "repro/internal/sim" {
		rest := fn[len(pkg):]
		for _, recv := range []string{".(*Server).", ".(*Pipe).", ".Server.", ".Pipe."} {
			if strings.HasPrefix(rest, recv) {
				return "sim.calendar"
			}
		}
	}
	if l, ok := layerOfPackage[pkg]; ok {
		return l
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// parseDuration reads a pprof duration such as "1.25s", "30ms",
// "1.50mins" or "0" as seconds.
func parseDuration(s string) (float64, error) {
	if s == "0" {
		return 0, nil
	}
	i := strings.IndexFunc(s, func(r rune) bool { return (r < '0' || r > '9') && r != '.' })
	if i <= 0 {
		return 0, fmt.Errorf("pprof duration %q", s)
	}
	v, err := strconv.ParseFloat(s[:i], 64)
	if err != nil {
		return 0, fmt.Errorf("pprof duration %q: %w", s, err)
	}
	scale := map[string]float64{
		"ns": 1e-9, "us": 1e-6, "µs": 1e-6, "ms": 1e-3, "s": 1,
		"min": 60, "mins": 60, "hr": 3600, "hrs": 3600,
	}[s[i:]]
	if scale == 0 {
		return 0, fmt.Errorf("pprof duration %q: unknown unit", s)
	}
	return v * scale, nil
}

// foldTop folds the text of `go tool pprof -top -nodecount=0` (with
// -nodefraction=0, so no node is dropped) into
// per-layer flat seconds. It returns the profile total as printed in the
// header; rounding of the printed rows goes to other, so the layers sum
// to the total exactly.
func foldTop(r io.Reader) (byLayer map[string]float64, total float64, err error) {
	byLayer = map[string]float64{}
	sc := bufio.NewScanner(r)
	haveTotal, inRows := false, false
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "Showing nodes accounting for"):
			// "Showing nodes accounting for 9.80s, 100% of 9.80s total"
			f := strings.Fields(line)
			if len(f) < 3 || f[len(f)-1] != "total" {
				return nil, 0, fmt.Errorf("pprof header %q", line)
			}
			if total, err = parseDuration(f[len(f)-2]); err != nil {
				return nil, 0, err
			}
			haveTotal = true
		case strings.HasPrefix(line, "flat"):
			inRows = true
		case inRows && line != "":
			// "1.20s 12.24% 12.24% 1.50s 15.31%  runtime.futex"
			f := strings.Fields(line)
			if len(f) < 6 {
				return nil, 0, fmt.Errorf("pprof row %q", line)
			}
			flat, err := parseDuration(f[0])
			if err != nil {
				return nil, 0, err
			}
			byLayer[layerOf(strings.Join(f[5:], " "))] += flat
		}
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	if !haveTotal {
		// An empty profile prints no header and no rows.
		return byLayer, 0, nil
	}
	sum := 0.0
	for _, l := range layers {
		if l != "other" {
			sum += byLayer[l]
		}
	}
	byLayer["other"] = total - sum
	return byLayer, total, nil
}

// foldProfile runs the pprof tool on a CPU profile, writes its text
// output to textPath and folds it.
func foldProfile(path, textPath string) (map[string]float64, float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=0", "-nodefraction=0", path).Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %w", err)
	}
	if err := os.WriteFile(textPath, out, 0o644); err != nil {
		return nil, 0, err
	}
	return foldTop(bytes.NewReader(out))
}
