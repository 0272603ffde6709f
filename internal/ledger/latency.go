package ledger

import (
	"io"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/txntrace"
)

// Bucket is one non-empty power-of-two histogram bucket.
type Bucket struct {
	LoFS  sim.Time `json:"lo_fs"`
	HiFS  sim.Time `json:"hi_fs"`
	Count uint64   `json:"count"`
}

// Dist is the report form of one histogram: headline quantiles plus the
// non-empty buckets, so a manifest record carries the full (lossy-by-
// factor-two) distribution, not just moments.
type Dist struct {
	Count   uint64   `json:"count"`
	MeanFS  sim.Time `json:"mean_fs"`
	P50FS   sim.Time `json:"p50_fs"`
	P95FS   sim.Time `json:"p95_fs"`
	P99FS   sim.Time `json:"p99_fs"`
	MaxFS   sim.Time `json:"max_fs"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// distOf summarizes a histogram; nil when it recorded nothing, so empty
// metrics vanish from JSON instead of reading as all-zero distributions.
func distOf(h *stats.Histogram) *Dist {
	if h.Count() == 0 {
		return nil
	}
	d := &Dist{
		Count:  h.Count(),
		MeanFS: sim.Time(h.Mean()),
		P50FS:  sim.Time(h.P50()),
		P95FS:  sim.Time(h.P95()),
		P99FS:  sim.Time(h.P99()),
		MaxFS:  sim.Time(h.Max()),
	}
	h.Buckets(func(lo, hi, count uint64) {
		d.Buckets = append(d.Buckets, Bucket{LoFS: sim.Time(lo), HiFS: sim.Time(hi), Count: count})
	})
	return d
}

// LatencySummary is the Report's latency block, one Dist per report
// class (nil = no observations in this run). The fields follow
// txntrace.ReportClasses in order and their JSON tags repeat the class
// names (TestLatencySummaryJSON pins both): plain tagged fields keep
// encoding/json on its fast path, where a custom Marshaler/Unmarshaler
// pair doubled the block's encode and decode time.
type LatencySummary struct {
	ReadMiss   *Dist `json:"read_miss,omitempty"`
	WriteMiss  *Dist `json:"write_miss,omitempty"`
	L2Hit      *Dist `json:"l2_hit,omitempty"`
	DRAMFill   *Dist `json:"dram_fill,omitempty"`
	DMAGet     *Dist `json:"dma_get,omitempty"`
	DMAPut     *Dist `json:"dma_put,omitempty"`
	NoCAcquire *Dist `json:"noc_acquire,omitempty"`
}

// fields returns the distributions in txntrace.ReportClasses order.
func (s *LatencySummary) fields() [7]**Dist {
	return [...]**Dist{&s.ReadMiss, &s.WriteMiss, &s.L2Hit, &s.DRAMFill, &s.DMAGet, &s.DMAPut, &s.NoCAcquire}
}

// NewLatencySummary converts a run's observer histograms to the report
// block.
func NewLatencySummary(t *txntrace.Tracer) *LatencySummary {
	s := &LatencySummary{}
	f := s.fields()
	for i, c := range txntrace.ReportClasses() {
		*f[i] = distOf(t.Histogram(c))
	}
	return s
}

// Each calls f for every non-nil distribution in export order.
func (s *LatencySummary) Each(f func(c txntrace.Class, d *Dist)) {
	dists := s.fields()
	for i, c := range txntrace.ReportClasses() {
		if d := *dists[i]; d != nil {
			f(c, d)
		}
	}
}

// WriteBucketsCSV exports every distribution's non-empty buckets as CSV
// (metric,lo_fs,hi_fs,count) — the memsim -latency-csv payload.
func (s *LatencySummary) WriteBucketsCSV(w io.Writer) {
	t := stats.NewTable("", "metric", "lo_fs", "hi_fs", "count")
	s.Each(func(c txntrace.Class, d *Dist) {
		for _, b := range d.Buckets {
			t.Row(c.String(), uint64(b.LoFS), uint64(b.HiFS), b.Count)
		}
	})
	t.WriteCSV(w)
}
