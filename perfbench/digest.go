package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/sim"
)

// refsJSON maps every job the benchmark runs (refKey) to the digest of
// its report, generated with -write-refs from the commit the benchmark
// was defined at.
//
//go:embed refs.json
var refsJSON []byte

// loadRefs decodes the embedded reference digests.
func loadRefs() (map[string]string, error) {
	refs := map[string]string{}
	if err := json.Unmarshal(refsJSON, &refs); err != nil {
		return nil, fmt.Errorf("refs.json: %w", err)
	}
	return refs, nil
}

// writeRefs writes digests as an indented JSON object (encoding/json
// sorts map keys, so the file is stable).
func writeRefs(path string, refs map[string]string) error {
	b, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// refKey names one simulation for the reference table: the workload and
// every machine field of its configuration. Observers and the cycle
// ledger are left out, so an observed run shares the reference of the
// plain run of the same machine.
func refKey(name string, c core.Config) string {
	return fmt.Sprintf("%s %v c%d mhz%d bw%d pf%d nwa%t sf%t ipm%d imp%d max%d l2kb%d banks%d ch%d cpc%d dma%d sb%d",
		name, c.Model, c.Cores, c.CoreMHz, c.DRAMBandwidthMBps, c.PrefetchDepth, c.NoWriteAllocate,
		c.SnoopFilter, c.InstrPerIMiss, uint64(c.IMissPenalty), uint64(c.MaxSimTime), c.L2SizeKB,
		c.L2Banks, c.DRAMChannels, c.CoresPerCluster, c.DMAOutstanding, c.StoreBuffer)
}

// digest hashes the model measurements of a report. It leaves out the
// simulator-health counters (Engine, Servers), which a pure speed-up of
// the simulator may change, and the cycle ledger's Cycles/Latency
// blocks, which only observed runs carry.
func digest(rep *core.Report) string {
	r := *rep
	r.Engine = sim.Metrics{}
	r.Servers = sim.ServerMetrics{}
	r.Cycles, r.Latency = nil, nil
	b, err := json.Marshal(&r)
	if err != nil {
		panic(fmt.Sprintf("perfbench: report encoding failed: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
