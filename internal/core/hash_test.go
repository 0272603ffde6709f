package core

import (
	"encoding/json"
	"testing"

	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/txntrace"
)

// TestNormalizeStripsObservers: two configs differing only in run-scoped
// observers normalize to the same value, so they memoize and hash alike.
func TestNormalizeStripsObservers(t *testing.T) {
	plain := DefaultConfig(CC, 4)
	observed := plain
	observed.Probe = probe.NewRecorder(sim.Microsecond)
	observed.FlightRecorder = 256
	observed.TxnTrace = &txntrace.Tracer{}
	if observed.Normalize() != plain.Normalize() {
		t.Fatal("Normalize did not strip run-scoped observers")
	}
	if observed.Normalize().Probe != nil || observed.Normalize().FlightRecorder != 0 {
		t.Fatal("observers survive Normalize")
	}
	// Normalize must not mutate the receiver.
	if observed.Probe == nil || observed.FlightRecorder != 256 {
		t.Fatal("Normalize mutated its receiver")
	}
}

// TestConfigEncodingPinned pins the config's JSON form and content
// hash to golden values: the embedded Observers struct must keep the
// key order and every stored result's address unchanged.
func TestConfigEncodingPinned(t *testing.T) {
	c := DefaultConfig(STR, 8)
	c.CycleLedger = true
	c.FlightRecorder = 64
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"Model":1,"Cores":8,"CoreMHz":800,"DRAMBandwidthMBps":1600,"PrefetchDepth":0,"NoWriteAllocate":false,"SnoopFilter":false,"InstrPerIMiss":0,"IMissPenalty":20000000,"MaxSimTime":20000000000000000,"L2SizeKB":0,"L2Banks":0,"DRAMChannels":0,"CoresPerCluster":0,"DMAOutstanding":0,"StoreBuffer":0,"CycleLedger":true,"flight_recorder":64}`
	if string(b) != want {
		t.Errorf("config JSON changed:\n got %s\nwant %s", b, want)
	}
	if h := c.Hash("fir", "small", "v1"); h != "16e60ae97eab96a3c7f0eae641d183ea8b764c8dd85c57c2f8c8aa1e26ccc398" {
		t.Errorf("config hash changed: %s", h)
	}
}

// TestHashDiscriminates pins the key properties of the canonical hash:
// stable for equal inputs, different for any differing machine field,
// workload, dataset scale, or version, and insensitive to observers.
func TestHashDiscriminates(t *testing.T) {
	base := DefaultConfig(CC, 4)
	h := base.Hash("fir", "small", "v1")
	if h2 := base.Hash("fir", "small", "v1"); h2 != h {
		t.Fatalf("hash not stable: %s vs %s", h, h2)
	}
	if len(h) != 64 {
		t.Fatalf("hash length %d, want 64 hex chars", len(h))
	}

	cases := map[string]string{
		"workload": base.Hash("fem", "small", "v1"),
		"scale":    base.Hash("fir", "paper", "v1"),
		"version":  base.Hash("fir", "small", "v2"),
	}
	other := base
	other.Cores = 8
	cases["cores"] = other.Hash("fir", "small", "v1")
	other = base
	other.Model = STR
	cases["model"] = other.Hash("fir", "small", "v1")
	other = base
	other.DRAMBandwidthMBps = 6400
	cases["bandwidth"] = other.Hash("fir", "small", "v1")
	other = base
	other.PrefetchDepth = 4
	cases["prefetch"] = other.Hash("fir", "small", "v1")
	seen := map[string]string{h: "base"}
	for what, hh := range cases {
		if prev, dup := seen[hh]; dup {
			t.Fatalf("hash collision between %s and %s", what, prev)
		}
		seen[hh] = what
	}

	observed := base
	observed.Probe = probe.NewRecorder(sim.Microsecond)
	observed.FlightRecorder = 64
	if observed.Hash("fir", "small", "v1") != h {
		t.Fatal("observers perturb the hash")
	}
}
