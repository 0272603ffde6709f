// Package incoher implements the third practical point in the paper's
// Table 1 design space: **incoherent cache-based** memory — hardware-
// managed locality (ordinary caches) with software-managed communication
// (no coherence protocol; software flushes and invalidates explicitly at
// synchronization points, as in the embedded MPSoCs of the paper's
// Loghi & Poncino reference [31] and the Section 7 hybrid discussion).
//
// Compared with the coherent model, every miss skips the snoop
// broadcasts — no bus command slots, no tag probes in other caches, no
// invalidation traffic — but the burden of correctness moves entirely
// into software: a core that will read data another core produced must
// first invalidate its own stale copies, and a producer must flush its
// dirty lines before signaling.
package incoher

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/txntrace"
	"repro/internal/uncore"
)

// Config sizes the incoherent L1 level (same first-level budget as the
// coherent model).
type Config struct {
	L1Size  uint64
	L1Assoc int
}

// DefaultConfig matches the coherent model's 32 KB 2-way L1s.
func DefaultConfig() Config { return Config{L1Size: 32 * 1024, L1Assoc: 2} }

// Stats counts software-coherence activity.
type Stats struct {
	ReadMisses  uint64
	WriteMisses uint64
	Flushes     uint64 // dirty lines written back by software
	Invalidates uint64 // lines killed by software
	FlushOps    uint64 // FlushRange calls
	InvalOps    uint64 // InvalidateRange calls

	// Miss-service accumulators mirroring coher.Stats so the models'
	// reports are comparable field-for-field (diagnostics, not time
	// series — they stay out of Snapshot so probe columns are stable).
	ReadMissLatency  sim.Time
	WriteMissLatency sim.Time
}

// AvgReadMissLatency returns the mean demand read-miss service time.
func (s Stats) AvgReadMissLatency() sim.Time {
	if s.ReadMisses == 0 {
		return 0
	}
	return s.ReadMissLatency / sim.Time(s.ReadMisses)
}

// AvgWriteMissLatency returns the mean write-miss service time.
func (s Stats) AvgWriteMissLatency() sim.Time {
	if s.WriteMisses == 0 {
		return 0
	}
	return s.WriteMissLatency / sim.Time(s.WriteMisses)
}

// Snapshot emits the counters in a fixed order (probe layer).
func (s Stats) Snapshot(put func(name string, value float64)) {
	put("read_misses", float64(s.ReadMisses))
	put("write_misses", float64(s.WriteMisses))
	put("flushes", float64(s.Flushes))
	put("invalidates", float64(s.Invalidates))
	put("flush_ops", float64(s.FlushOps))
	put("inval_ops", float64(s.InvalOps))
}

// Domain is the set of incoherent L1s over one uncore.
type Domain struct {
	cfg   Config
	net   *noc.Network
	unc   *uncore.Uncore
	procs []*cpu.Proc
	l1s   []*cache.Cache
	stats Stats
	obs   *txntrace.Tracer // nil = no observer attached
}

// NewDomain builds the incoherent L1 level for the given cores.
func NewDomain(cfg Config, unc *uncore.Uncore, procs []*cpu.Proc) *Domain {
	d := &Domain{cfg: cfg, net: unc.Network(), unc: unc, procs: procs}
	for i := range procs {
		d.l1s = append(d.l1s, cache.New(cache.Config{
			Name:  fmt.Sprintf("incl1d%d", i),
			Size:  cfg.L1Size,
			Assoc: cfg.L1Assoc,
		}))
	}
	return d
}

// Mem returns the cpu.ProcMem for core i.
func (d *Domain) Mem(i int) *Mem { return &Mem{d: d, core: i} }

// L1 returns core i's cache.
func (d *Domain) L1(i int) *cache.Cache { return d.l1s[i] }

// Stats returns a snapshot of the counters.
func (d *Domain) Stats() Stats { return d.stats }

// SetObserver attaches the run's transaction observer: latency
// histograms and transaction trees (nil detaches it).
func (d *Domain) SetObserver(t *txntrace.Tracer) { d.obs = t }

// Mem is the per-core cpu.ProcMem of the incoherent model. Misses go
// straight to the shared L2/DRAM with no snooping.
type Mem struct {
	d    *Domain
	core int
}

var _ cpu.ProcMem = (*Mem)(nil)

func (m *Mem) cluster() int { return m.d.procs[m.core].Cluster() }

func (m *Mem) evict(at sim.Time, ev cache.Evicted) {
	if ev.Valid && ev.Dirty {
		cl := m.cluster()
		t := m.d.net.BusData(at, cl, mem.LineSize)
		m.d.unc.WriteLine(t, cl, ev.Addr, mem.LineSize, true)
	}
}

// Load implements cpu.ProcMem.
func (m *Mem) Load(p *cpu.Proc, a mem.Addr) sim.Time {
	c := m.d.l1s[m.core]
	if ln := c.Access(a, false); ln != nil {
		if ln.FillDone > p.Now() {
			return ln.FillDone
		}
		return p.Now()
	}
	p.Task().Sync()
	m.d.stats.ReadMisses++
	at := p.Now()
	m.d.obs.Begin(txntrace.ReadMiss, m.core, uint64(a.Line()), at)
	cl := m.cluster()
	t := m.d.net.BusControl(at, cl)
	done, _ := m.d.unc.ReadLine(t, cl, a)
	done = m.d.net.BusData(done, cl, mem.LineSize)
	m.d.obs.End(done)
	m.d.stats.ReadMissLatency += done - at
	_, ev := c.Insert(a, cache.Exclusive, done)
	m.evict(done, ev)
	return done
}

// Store implements cpu.ProcMem: write-back, write-allocate, but with no
// ownership transaction — there is no coherence to maintain.
func (m *Mem) Store(p *cpu.Proc, a mem.Addr, nbytes uint64) sim.Time {
	c := m.d.l1s[m.core]
	if ln := c.Access(a, true); ln != nil {
		ln.State = cache.Modified
		ln.Dirty = true
		if ln.FillDone > p.Now() {
			return ln.FillDone
		}
		return p.Now()
	}
	p.Task().Sync()
	m.d.stats.WriteMisses++
	at := p.Now()
	m.d.obs.Begin(txntrace.WriteMiss, m.core, uint64(a.Line()), at)
	cl := m.cluster()
	t := m.d.net.BusControl(at, cl)
	done, _ := m.d.unc.ReadLine(t, cl, a) // write-allocate refill
	done = m.d.net.BusData(done, cl, mem.LineSize)
	m.d.obs.End(done)
	m.d.stats.WriteMissLatency += done - at
	ln, ev := c.Insert(a, cache.Modified, done)
	ln.Dirty = true
	m.evict(done, ev)
	return done
}

// StorePFS implements cpu.ProcMem: allocate without refill (trivially
// safe here — there are no other copies to reconcile).
func (m *Mem) StorePFS(p *cpu.Proc, a mem.Addr, nbytes uint64) sim.Time {
	c := m.d.l1s[m.core]
	if ln := c.Access(a, true); ln != nil {
		ln.State = cache.Modified
		ln.Dirty = true
		return p.Now()
	}
	p.Task().Sync()
	_, ev := c.InsertPFS(a, p.Now())
	m.evict(p.Now(), ev)
	return p.Now()
}

// Flush implements cpu.ProcMem. No Sync here: FlushRange syncs before
// its first shared touch, and a second yield at the same (time, id) is a
// provable no-op under the engine's dispatch order.
func (m *Mem) Flush(p *cpu.Proc) sim.Time {
	return m.FlushRange(p, 0, ^uint64(0))
}

// FlushRange writes back (and retains clean) every dirty line the cache
// holds in [a, a+n). Software calls it before publishing produced data.
// It returns the time the last write-back is accepted.
func (m *Mem) FlushRange(p *cpu.Proc, a mem.Addr, n uint64) sim.Time {
	p.Task().Sync()
	m.d.stats.FlushOps++
	c := m.d.l1s[m.core]
	cl := m.cluster()
	t := p.Now()
	end := a + mem.Addr(n)
	if n == ^uint64(0) {
		end = ^mem.Addr(0)
	}
	var last sim.Time
	for _, la := range c.Lines() {
		ln := c.Lookup(la)
		if ln == nil || !ln.Dirty || la < a || la >= end {
			continue
		}
		// One flush instruction per line; the write-backs themselves
		// pipeline through the bus and L2 (the flush loop does not wait
		// for each to complete).
		p.Work(1)
		t = p.Now()
		m.d.stats.Flushes++
		bt := m.d.net.BusData(t, cl, mem.LineSize)
		if done := m.d.unc.WriteLine(bt, cl, la, mem.LineSize, true); done > last {
			last = done
		}
		ln.Dirty = false
		ln.State = cache.Exclusive
	}
	if last > t {
		t = last
	}
	return t
}

// InvalidateRange discards every cached line in [a, a+n), dirty or not.
// Software calls it before reading data another core produced. Dirty
// data in the range is dropped — exactly the sharp edge that makes
// software coherence hard to program.
func (m *Mem) InvalidateRange(p *cpu.Proc, a mem.Addr, n uint64) {
	p.Task().Sync()
	m.d.stats.InvalOps++
	c := m.d.l1s[m.core]
	end := a + mem.Addr(n)
	for _, la := range c.Lines() {
		if la < a || la >= end {
			continue
		}
		p.Work(1)
		c.Invalidate(la)
		m.d.stats.Invalidates++
	}
}
