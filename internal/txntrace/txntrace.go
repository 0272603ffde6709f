// Package txntrace is the memory system's one observer. The hooks that
// bracket every miss, line fill and DMA command record each
// transaction's latency into its class histogram at End (the report's
// Latency block), whether or not a tree is captured. A traced
// transaction also gets a trace ID and a tree of hops — L1 miss issue,
// snoop fan-out, owner intervention or L2 access, NoC transfers, DRAM
// channel service — each with its sim-time interval, component, and
// outcome tag. Two capture modes keep trees, both deterministic:
//
//   - Sampled capture keeps the full tree of every transaction whose
//     (serial, seed) hash selects it, so re-runs at the same seed trace
//     the exact same transactions.
//   - Worst-K exemplar reservoirs (unless K < 0) keep the K slowest
//     complete trees per latency class, so the tail of every histogram
//     is explained without tracing everything.
//
// With both off, Begin allocates no tree: the machine attaches such a
// tree-less Tracer when only the cycle ledger asks for histograms.
//
// Like the ledger and the probe, a Tracer is a run-scoped observer
// behind the repo's nil-sentinel pattern: every hook is safe on a nil
// receiver, costs one nil compare when no observer is attached, and
// only ever reads simulated clocks — attaching a Tracer never changes
// a report. A Tracer observes exactly one run; it needs no locks
// (model code runs single-threaded in event order), and reading
// results is safe once the run has finished.
package txntrace

import (
	"fmt"
	"sort"

	"repro/internal/sim"
	"repro/internal/stats"
)

// Class is a latency class: the one enum behind the transaction
// classes, the report's histograms and the campaign's headline classes.
type Class uint8

// The latency classes. ReadMiss/WriteMiss are first-level demand
// misses (CC/INC L1, STR 8 KB cache), issue to data available.
// L2Hit/DRAMFill split uncore line reads by where the data came from.
// DMAGet/DMAPut are whole DMA commands, enqueue to last beat, queuing
// included. Prefetch fills are transactions kept out of the report, so
// ReadMiss counts demand misses only. NoCAcquire is a bus or crossbar
// arbitration wait: a histogram only, never a transaction.
const (
	ReadMiss Class = iota
	WriteMiss
	L2Hit
	DRAMFill
	DMAGet
	DMAPut
	Prefetch
	NoCAcquire
	NumClasses
)

// String returns the class name used in exports and metrics labels.
func (c Class) String() string {
	switch c {
	case ReadMiss:
		return "read_miss"
	case WriteMiss:
		return "write_miss"
	case L2Hit:
		return "l2_hit"
	case DRAMFill:
		return "dram_fill"
	case DMAGet:
		return "dma_get"
	case DMAPut:
		return "dma_put"
	case Prefetch:
		return "prefetch"
	case NoCAcquire:
		return "noc_acquire"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// Classes lists the transaction classes in export order.
func Classes() []Class {
	return []Class{ReadMiss, WriteMiss, L2Hit, DRAMFill, DMAGet, DMAPut, Prefetch}
}

// ReportClasses lists the report's histogram classes in export order.
func ReportClasses() []Class {
	return []Class{ReadMiss, WriteMiss, L2Hit, DRAMFill, DMAGet, DMAPut, NoCAcquire}
}

// CampaignClasses lists the headline classes campaign telemetry
// aggregates across runs — the paper's CC miss and STR DMA service
// times — in render order.
func CampaignClasses() []Class { return []Class{ReadMiss, WriteMiss, DMAGet, DMAPut} }

// Hop is one recorded interval within a transaction: a charge site the
// request passed through. AdvanceFS is the hop's critical-path
// contribution, assigned when the transaction ends: the first hop to
// cover a stretch of the transaction's [start, end] window owns it, so
// the AdvanceFS of all hops sums exactly to the transaction's latency
// (side paths the core never waited for — overlapped writebacks,
// snoop responses subsumed by a slower data return — contribute 0).
type Hop struct {
	Component string   `json:"component"`
	Op        string   `json:"op"`
	StartFS   sim.Time `json:"start_fs"`
	EndFS     sim.Time `json:"end_fs"`
	AdvanceFS sim.Time `json:"advance_fs"`
	Tag       string   `json:"tag,omitempty"`
}

// Caps bounding a single transaction's memory footprint. A transaction
// that outgrows them keeps counting (DroppedHops/DroppedKids) so
// exports can say the tree is truncated rather than silently lying.
const (
	maxHops = 512
	maxKids = 128
	maxTags = 16
)

// Txn is one captured transaction tree: the root interval, the hops
// recorded while it was the active transaction, and nested
// sub-transactions (an uncore line fill inside a CC miss, the beats of
// a DMA command). All methods are nil-receiver safe so instrumentation
// sites need no guards beyond the Tracer's own.
type Txn struct {
	ID      uint64
	Class   Class
	Core    int
	Addr    uint64
	StartFS sim.Time
	EndFS   sim.Time
	Hops    []Hop
	Tags    []string
	Kids    []*Txn
	// Truncation counters (see the caps above).
	DroppedHops uint64
	DroppedKids uint64

	parent  *Txn
	sampled bool
}

// Latency returns the transaction's end-to-end latency.
func (x *Txn) Latency() sim.Time {
	if x == nil {
		return 0
	}
	return x.EndFS - x.StartFS
}

// Sampled reports whether the deterministic sampler selected this
// transaction (exemplar-only trees return false).
func (x *Txn) Sampled() bool { return x != nil && x.sampled }

// AddTag appends an outcome tag ("mesi=I->E", "src=owner_remote",
// "retry", ...). Tags beyond the cap are dropped silently — they are
// annotations, not accounting.
func (x *Txn) AddTag(tag string) {
	if x != nil && len(x.Tags) < maxTags {
		x.Tags = append(x.Tags, tag)
	}
}

// addHop appends a hop, honoring the cap.
func (x *Txn) addHop(h Hop) {
	if len(x.Hops) >= maxHops {
		x.DroppedHops++
		return
	}
	x.Hops = append(x.Hops, h)
}

// finalize stamps the end time and assigns each hop's critical-path
// share: a cursor sweeps [StartFS, end] in hop-record order, and every
// hop owns the stretch between the cursor and its own end (clamped to
// the window). Any trailing uncovered stretch becomes a synthetic
// "wait/tail" hop, so the shares always sum exactly to the latency.
func (x *Txn) finalize(end sim.Time) {
	x.EndFS = end
	cur := x.StartFS
	for i := range x.Hops {
		h := &x.Hops[i]
		hi := h.EndFS
		if hi > end {
			hi = end
		}
		if hi > cur {
			h.AdvanceFS = hi - cur
			cur = hi
		} else {
			h.AdvanceFS = 0
		}
	}
	if end > cur {
		x.Hops = append(x.Hops, Hop{
			Component: "wait", Op: "tail",
			StartFS: cur, EndFS: end, AdvanceFS: end - cur,
		})
	}
}

// reservoir keeps the K slowest finished transactions of one class,
// slowest first. K is tiny, so an insertion sort beats a heap.
type reservoir struct {
	k   int
	txs []*Txn
}

func (r *reservoir) offer(x *Txn) {
	if r.k <= 0 {
		return
	}
	if len(r.txs) == r.k && x.Latency() <= r.txs[len(r.txs)-1].Latency() {
		return
	}
	i := sort.Search(len(r.txs), func(i int) bool {
		l := r.txs[i].Latency()
		// Strictly-slower-first with ID as the deterministic tiebreak:
		// among equal latencies the earliest transaction wins, so the
		// reservoir's content does not depend on arrival order quirks.
		return l < x.Latency() || (l == x.Latency() && r.txs[i].ID > x.ID)
	})
	if i == len(r.txs) && len(r.txs) == r.k {
		return
	}
	r.txs = append(r.txs, nil)
	copy(r.txs[i+1:], r.txs[i:])
	r.txs[i] = x
	if len(r.txs) > r.k {
		r.txs = r.txs[:r.k]
	}
}

// DefaultK is the per-class exemplar reservoir depth.
const DefaultK = 4

// defaultKeptCap bounds how many sampled transaction trees are retained
// (the exemplar reservoirs are bounded by construction). Overflowing
// trees are counted, not kept; the CLIs surface the count once.
const defaultKeptCap = 1 << 16

// Frame is one open transaction: its class and start time, which End
// records, plus its tree when one is captured. BeginDetached hands it
// to the owner of a long-lived transaction.
type Frame struct {
	class Class
	start sim.Time
	txn   *Txn // nil when no tree is captured
}

// Tracer observes one run's memory transactions: it records the
// latency histograms and captures transaction trees. Configure the
// exported knobs before the run starts; attach via core.Config.TxnTrace.
// The zero knobs mean: sampling off, DefaultK exemplars per class.
type Tracer struct {
	// SampleEvery keeps the full tree of roughly 1-in-N root
	// transactions, selected by a deterministic hash of (serial, Seed).
	// 0 disables sampled capture (exemplar capture follows K).
	SampleEvery uint64
	// Seed salts the sampling hash so different seeds trace different
	// (but per-seed reproducible) transaction populations.
	Seed uint64
	// K overrides the per-class exemplar reservoir depth (0 = DefaultK,
	// negative disables exemplars).
	K int
	// KeptCap overrides the sampled-tree retention cap (0 = default).
	KeptCap int

	serial     uint64
	nextID     uint64
	stack      []Frame
	hists      [NumClasses]stats.Histogram
	reservoirs [NumClasses]reservoir
	kept       []*Txn
	dropped    uint64
}

// New returns a Tracer with exemplar capture on (DefaultK per class)
// and sampled capture off.
func New() *Tracer { return &Tracer{} }

func (t *Tracer) kOrDefault() int {
	switch {
	case t.K > 0:
		return t.K
	case t.K < 0:
		return 0
	}
	return DefaultK
}

func (t *Tracer) keptCapOrDefault() int {
	if t.KeptCap > 0 {
		return t.KeptCap
	}
	return defaultKeptCap
}

// splitmix64 is the sampling hash: a full-avalanche mix of the
// transaction serial and the seed, so "every Nth" never aliases with a
// workload's own periodicity.
func splitmix64(v uint64) uint64 {
	v += 0x9e3779b97f4a7c15
	v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9
	v = (v ^ (v >> 27)) * 0x94d049bb133111eb
	return v ^ (v >> 31)
}

// sampleRoot assigns the next root serial and decides whether the
// sampler keeps this transaction's tree.
func (t *Tracer) sampleRoot() bool {
	t.serial++
	if t.SampleEvery == 0 {
		return false
	}
	return splitmix64(t.serial^t.Seed)%t.SampleEvery == 0
}

// open starts a transaction. A root consumes a sampling serial; a
// nested one inherits its parent's sampled bit. The tree is allocated
// only when something can retain it: an exemplar reservoir, or the
// sampler.
func (t *Tracer) open(class Class, core int, addr uint64, at sim.Time, parent *Txn, root bool) Frame {
	t.nextID++
	sampled := parent.Sampled()
	if root {
		sampled = t.sampleRoot()
	}
	f := Frame{class: class, start: at}
	if sampled || t.kOrDefault() > 0 {
		f.txn = &Txn{ID: t.nextID, Class: class, Core: core, Addr: addr, StartFS: at, parent: parent, sampled: sampled}
	}
	return f
}

// Begin opens a transaction at the top of the active stack and makes it
// the target of subsequent Hop calls. With an enclosing transaction
// active, the new one is a nested sub-transaction (it will attach to
// its parent when it ends); otherwise it is a root, which consumes a
// sampling serial. It returns the captured tree, nil when none is
// captured or on a nil Tracer.
func (t *Tracer) Begin(class Class, core int, addr uint64, at sim.Time) *Txn {
	if t == nil {
		return nil
	}
	n := len(t.stack)
	var parent *Txn
	if n > 0 {
		parent = t.stack[n-1].txn
	}
	f := t.open(class, core, addr, at, parent, n == 0)
	t.stack = append(t.stack, f)
	return f.txn
}

// BeginDetached opens a root transaction without activating it: DMA
// commands live across many engine steps interleaved with other
// commands, so the DMA engine holds the Frame and brackets each beat
// with Resume/Suspend. The detached transaction consumes a sampling
// serial like any root.
func (t *Tracer) BeginDetached(class Class, core int, addr uint64, at sim.Time) Frame {
	if t == nil {
		return Frame{}
	}
	return t.open(class, core, addr, at, nil, true)
}

// Resume makes a detached transaction the active one (nested hooks —
// uncore, NoC — then attribute to it). Balance with Suspend.
func (t *Tracer) Resume(f Frame) {
	if t == nil {
		return
	}
	t.stack = append(t.stack, f)
}

// Suspend deactivates the most recently resumed transaction without
// ending it.
func (t *Tracer) Suspend() {
	if t == nil || len(t.stack) == 0 {
		return
	}
	t.stack = t.stack[:len(t.stack)-1]
}

// Hop records one interval against the active transaction (no-op when
// none is active or its tree is not captured).
func (t *Tracer) Hop(component, op string, start, end sim.Time) {
	t.HopTag(component, op, start, end, "")
}

// HopTag is Hop with an outcome tag.
func (t *Tracer) HopTag(component, op string, start, end sim.Time, tag string) {
	if x := t.Active(); x != nil {
		x.addHop(Hop{Component: component, Op: op, StartFS: start, EndFS: end, Tag: tag})
	}
}

// Active returns the tree of the transaction currently receiving hops
// (nil when none is active, its tree is not captured, or on a nil
// Tracer).
func (t *Tracer) Active() *Txn {
	if t == nil || len(t.stack) == 0 {
		return nil
	}
	return t.stack[len(t.stack)-1].txn
}

// Capturing reports whether the active transaction's tree is being
// captured. Sites that format a hop tag check it first, so runs that
// keep no trees never pay for the formatting.
func (t *Tracer) Capturing() bool { return t.Active() != nil }

// SetClass reclassifies the active transaction; the uncore uses it to
// turn a provisional l2_hit into a dram_fill once the L2 lookup misses.
// The histogram records the final class at End.
func (t *Tracer) SetClass(c Class) {
	if t == nil || len(t.stack) == 0 {
		return
	}
	f := &t.stack[len(t.stack)-1]
	f.class = c
	if f.txn != nil {
		f.txn.Class = c
	}
}

// RecordNoCAcquire records one bus or crossbar arbitration wait into
// the NoCAcquire histogram.
func (t *Tracer) RecordNoCAcquire(wait sim.Time) {
	if t != nil {
		t.hists[NoCAcquire].Record(uint64(wait))
	}
}

// End closes the active transaction at the given completion time and
// records its latency under its final class. A captured tree is then
// finalized, offered to its class reservoir and — for sampled roots —
// retained; nested trees attach to their parent as both a child tree
// and an aggregate hop, so the parent's conservation covers them.
func (t *Tracer) End(at sim.Time) {
	if t == nil || len(t.stack) == 0 {
		return
	}
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.finish(f, at)
}

// EndDetached closes a detached transaction (which must not be on the
// active stack — the DMA engine suspends it between beats).
func (t *Tracer) EndDetached(f Frame, at sim.Time) {
	if t == nil {
		return
	}
	t.finish(f, at)
}

func (t *Tracer) finish(f Frame, at sim.Time) {
	t.hists[f.class].Record(uint64(at - f.start))
	x := f.txn
	if x == nil {
		return
	}
	x.finalize(at)
	if t.kOrDefault() > 0 {
		r := &t.reservoirs[x.Class]
		r.k = t.kOrDefault()
		r.offer(x)
	}
	if p := x.parent; p != nil {
		p.addHop(Hop{
			Component: "txn", Op: x.Class.String(),
			StartFS: x.StartFS, EndFS: x.EndFS,
			Tag: fmt.Sprintf("#%d", x.ID),
		})
		if len(p.Kids) < maxKids {
			p.Kids = append(p.Kids, x)
		} else {
			p.DroppedKids++
		}
		return
	}
	if x.sampled {
		if len(t.kept) < t.keptCapOrDefault() {
			t.kept = append(t.kept, x)
		} else {
			t.dropped++
		}
	}
}

// Exemplars returns the worst-K reservoir of one class, slowest first.
func (t *Tracer) Exemplars(c Class) []*Txn {
	if t == nil || c >= NumClasses {
		return nil
	}
	return t.reservoirs[c].txs
}

// Count returns how many observations of a class were recorded:
// completed transactions, or NoC arbitration waits.
func (t *Tracer) Count(c Class) uint64 {
	if t == nil || c >= NumClasses {
		return 0
	}
	return t.hists[c].Count()
}

// Histogram returns the latency histogram of one class in femtoseconds
// (nil on a nil Tracer). The histogram belongs to the Tracer; read it
// once the run has finished.
func (t *Tracer) Histogram(c Class) *stats.Histogram {
	if t == nil || c >= NumClasses {
		return nil
	}
	return &t.hists[c]
}

// Kept returns the sampled transaction trees in (start, ID) order.
func (t *Tracer) Kept() []*Txn {
	if t == nil {
		return nil
	}
	out := append([]*Txn(nil), t.kept...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].StartFS != out[j].StartFS {
			return out[i].StartFS < out[j].StartFS
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// DroppedSampled returns how many sampled trees overflowed the
// retention cap (counted, not kept — the CLIs warn once).
func (t *Tracer) DroppedSampled() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}
