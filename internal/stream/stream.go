// Package stream implements the streaming memory model (Section 3.3):
// each core's first-level data storage is split between a 24 KB local
// store and an 8 KB 2-way cache used for stack data and global
// variables. Data moves with explicit DMA transfers (internal/dma); the
// small cache is not kept coherent — the streaming model has no
// coherence hardware, and software is responsible for sharing
// discipline, exactly as the paper requires.
package stream

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/dma"
	"repro/internal/ledger"
	"repro/internal/lstore"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/txntrace"
	"repro/internal/uncore"
)

// Config sizes the streaming first level.
type Config struct {
	LocalStoreSize uint64
	CacheSize      uint64
	CacheAssoc     int
	// DMAOutstanding overrides the engine's concurrent-access window
	// (0 = the paper's 16).
	DMAOutstanding int
}

// DefaultConfig is the paper's Table 2 streaming configuration.
func DefaultConfig() Config {
	return Config{
		LocalStoreSize: lstore.DefaultSize,
		CacheSize:      8 * 1024,
		CacheAssoc:     2,
	}
}

// Mem is the per-core cpu.ProcMem of the streaming model. Workloads
// type-assert p.Mem() to *stream.Mem to reach the local store and DMA
// engine.
//
// Sync audit (engine fast path, PR 2): local-store accesses (LSLoadN,
// LSStoreN) and small-cache hits never yield — they touch only per-core
// state. Every remaining Sync precedes a genuinely shared touch: the
// uncore on the miss paths, or the DMA engine's command queue and done
// map, which the engine task mutates concurrently in simulated time.
// None can convert to SetTime/Advance.
type Mem struct {
	core    int
	cluster int
	unc     *uncore.Uncore
	cch     *cache.Cache // the 8 KB stack/globals cache
	ls      *lstore.Store
	eng     *dma.Engine
	stats   Stats
	obs     *txntrace.Tracer // nil = no observer attached
}

// Stats counts the 8 KB cache's miss service, mirroring the coherent
// model's accumulators so CC and STR reports are comparable
// field-for-field (the latency fields are diagnostics, not time series
// — like coher.Stats, they stay out of probe snapshots).
type Stats struct {
	ReadMisses       uint64
	WriteMisses      uint64
	ReadMissLatency  sim.Time
	WriteMissLatency sim.Time
}

// Add accumulates src into s (aggregating per-core first levels).
func (s *Stats) Add(src Stats) {
	s.ReadMisses += src.ReadMisses
	s.WriteMisses += src.WriteMisses
	s.ReadMissLatency += src.ReadMissLatency
	s.WriteMissLatency += src.WriteMissLatency
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

var _ cpu.ProcMem = (*Mem)(nil)
var _ cpu.FlushClasser = (*Mem)(nil)

// New builds the streaming first level for one core. Call Spawn to start
// the DMA engine before running.
func New(core, cluster int, cfg Config, unc *uncore.Uncore) *Mem {
	ls := lstore.New(cfg.LocalStoreSize)
	return &Mem{
		core:    core,
		cluster: cluster,
		unc:     unc,
		cch: cache.New(cache.Config{
			Name:  fmt.Sprintf("strcache%d", core),
			Size:  cfg.CacheSize,
			Assoc: cfg.CacheAssoc,
		}),
		ls:  ls,
		eng: dma.NewWithWindow(fmt.Sprintf("dma%d", core), cluster, unc, ls, cfg.DMAOutstanding),
	}
}

// Spawn starts the DMA engine task.
func (m *Mem) Spawn(eng *sim.Engine) { m.eng.Spawn(eng, 0) }

// LocalStore returns the core's local store.
func (m *Mem) LocalStore() *lstore.Store { return m.ls }

// Cache returns the 8 KB stack/globals cache.
func (m *Mem) Cache() *cache.Cache { return m.cch }

// DMA returns the DMA engine (stats, tests).
func (m *Mem) DMA() *dma.Engine { return m.eng }

// Stats returns the 8 KB cache's miss accounting.
func (m *Mem) Stats() Stats { return m.stats }

// SetObserver attaches the run's transaction observer — latency
// histograms and transaction trees — to this first level and its DMA
// engine (nil detaches it).
func (m *Mem) SetObserver(t *txntrace.Tracer) {
	m.obs = t
	m.eng.SetObserver(t, m.core)
}

// FlushClass implements cpu.FlushClasser: the Finish-time drain waits on
// the DMA engine, so its ledger class is DMAWait.
func (m *Mem) FlushClass() ledger.Class { return ledger.DMAWait }

// Load implements cpu.ProcMem: a load through the small cache.
func (m *Mem) Load(p *cpu.Proc, a mem.Addr) sim.Time {
	if ln := m.cch.Access(a, false); ln != nil {
		return maxTime(p.Now(), ln.FillDone)
	}
	p.Task().Sync()
	at := p.Now()
	m.obs.Begin(txntrace.ReadMiss, m.core, uint64(a.Line()), at)
	done, _ := m.unc.ReadLine(m.busOut(at), m.cluster, a)
	done = m.unc.Network().BusData(done, m.cluster, mem.LineSize)
	m.obs.End(done)
	m.insert(done, a, cache.Exclusive)
	m.stats.ReadMisses++
	m.stats.ReadMissLatency += done - at
	return done
}

// Store implements cpu.ProcMem: a write-back, write-allocate store
// through the small cache.
func (m *Mem) Store(p *cpu.Proc, a mem.Addr, nbytes uint64) sim.Time {
	if ln := m.cch.Access(a, true); ln != nil {
		ln.State = cache.Modified
		ln.Dirty = true
		return maxTime(p.Now(), ln.FillDone)
	}
	p.Task().Sync()
	at := p.Now()
	m.obs.Begin(txntrace.WriteMiss, m.core, uint64(a.Line()), at)
	done, _ := m.unc.ReadLine(m.busOut(at), m.cluster, a)
	done = m.unc.Network().BusData(done, m.cluster, mem.LineSize)
	m.obs.End(done)
	ln := m.insert(done, a, cache.Modified)
	ln.Dirty = true
	m.stats.WriteMisses++
	m.stats.WriteMissLatency += done - at
	return done
}

// StorePFS implements cpu.ProcMem. The streaming model has no PFS
// instruction; software uses the local store for output data instead, so
// the rare PFS through the small cache behaves as a plain store.
func (m *Mem) StorePFS(p *cpu.Proc, a mem.Addr, nbytes uint64) sim.Time { return m.Store(p, a, nbytes) }

// Flush implements cpu.ProcMem: drain and stop the DMA engine.
func (m *Mem) Flush(p *cpu.Proc) sim.Time {
	p.Task().Sync()
	var t sim.Time = p.Now()
	if last := m.eng.LastTag(); last != 0 {
		if done, ok := m.eng.Done(last); ok {
			t = maxTime(t, done)
		} else {
			// Blocking on the engine moves the clock via Unblock, which
			// the caller cannot see in the returned time; charge the wait
			// here so no cycle escapes the accounting (conservation).
			before := p.Now()
			t = maxTime(t, m.eng.Wait(p.Task(), last))
			if wait := p.Now() - before; wait > 0 {
				p.AddDMAWait(wait)
			}
		}
	}
	m.eng.Stop()
	return t
}

func (m *Mem) busOut(at sim.Time) sim.Time {
	return m.unc.Network().BusControl(at, m.cluster)
}

func (m *Mem) insert(at sim.Time, a mem.Addr, st cache.State) *cache.Line {
	ln, ev := m.cch.Insert(a, st, at)
	if ev.Valid && ev.Dirty {
		t := m.unc.Network().BusData(at, m.cluster, mem.LineSize)
		m.unc.WriteLine(t, m.cluster, ev.Addr, mem.LineSize, true)
	}
	return ln
}

// LSLoadN charges count local-store element reads: one issue cycle each,
// no stalls (the local store is single-cycle).
func (m *Mem) LSLoadN(p *cpu.Proc, count uint64) {
	p.Work(count)
	m.ls.CountRead(count)
}

// LSStoreN charges count local-store element writes.
func (m *Mem) LSStoreN(p *cpu.Proc, count uint64) {
	p.Work(count)
	m.ls.CountWrite(count)
}

// Get queues a DMA transfer of nbytes from global address base into the
// local store and returns its tag. The handful of extra instructions to
// program the transfer is charged to the core ("it often has to execute
// additional instructions to set up DMA transfers").
func (m *Mem) Get(p *cpu.Proc, base mem.Addr, nbytes uint64) dma.Tag {
	p.Work(dmaSetupInstr)
	p.Task().Sync()
	return m.eng.Queue(p.Now(), dma.Get, base, nbytes)
}

// Put queues a DMA transfer of nbytes from the local store to global
// address base.
func (m *Mem) Put(p *cpu.Proc, base mem.Addr, nbytes uint64) dma.Tag {
	p.Work(dmaSetupInstr)
	p.Task().Sync()
	return m.eng.Queue(p.Now(), dma.Put, base, nbytes)
}

// GetStrided queues a strided gather.
func (m *Mem) GetStrided(p *cpu.Proc, base mem.Addr, elemBytes, stride, count uint64) dma.Tag {
	p.Work(dmaSetupInstr)
	p.Task().Sync()
	return m.eng.QueueStrided(p.Now(), dma.Get, base, elemBytes, stride, count)
}

// PutStrided queues a strided scatter.
func (m *Mem) PutStrided(p *cpu.Proc, base mem.Addr, elemBytes, stride, count uint64) dma.Tag {
	p.Work(dmaSetupInstr)
	p.Task().Sync()
	return m.eng.QueueStrided(p.Now(), dma.Put, base, elemBytes, stride, count)
}

// GetIndexed queues an indexed gather. Building the index costs one
// instruction per element on top of the transfer setup.
func (m *Mem) GetIndexed(p *cpu.Proc, addrs []mem.Addr, elemBytes uint64) dma.Tag {
	p.Work(dmaSetupInstr + uint64(len(addrs)))
	p.Task().Sync()
	return m.eng.QueueIndexed(p.Now(), dma.Get, addrs, elemBytes)
}

// Wait blocks the core until the DMA command completes, charging the
// wait to the Sync bucket (Figure 2 counts "wait for DMA" as
// synchronization); the cycle ledger splits it out as DMAWait.
func (m *Mem) Wait(p *cpu.Proc, tag dma.Tag) {
	p.Task().Sync()
	if done, ok := m.eng.Done(tag); ok {
		p.WaitUntilDMA(done)
		return
	}
	before := p.Now()
	done := m.eng.Wait(p.Task(), tag)
	if done > before {
		p.AddDMAWait(p.Now() - before)
	}
}

// dmaSetupInstr is the instruction overhead of programming one DMA
// command.
const dmaSetupInstr = 8

// The methods below split Get/Put/Wait/Flush at their yield points so an
// inline (state machine) core body can replicate them exactly: the
// goroutine versions yield inside the call (Sync, BlockOn), which a
// Runnable's Step must instead express as a return. Each half is named
// for its position relative to the caller's yield.

// QueueSetup charges the DMA-programming instructions of one queue
// operation — the pre-yield half of Get/Put for inline cores, which
// yield where those methods Sync.
func (m *Mem) QueueSetup(p *cpu.Proc) { p.Work(dmaSetupInstr) }

// QueueGet enqueues a sequential get after the caller's yield (the
// post-yield half of Get).
func (m *Mem) QueueGet(p *cpu.Proc, base mem.Addr, nbytes uint64) dma.Tag {
	return m.eng.Queue(p.Now(), dma.Get, base, nbytes)
}

// QueuePut enqueues a sequential put after the caller's yield (the
// post-yield half of Put).
func (m *Mem) QueuePut(p *cpu.Proc, base mem.Addr, nbytes uint64) dma.Tag {
	return m.eng.Queue(p.Now(), dma.Put, base, nbytes)
}

// WaitCheck resolves a DMA wait after the caller's leading yield (the
// body of Wait between its Sync and any block). Exactly one of three
// outcomes:
//   - charge: the tag completed at done; the caller must apply
//     p.ChargeDMAWait(done) and yield once (WaitUntilDMA's sync), after
//     which the wait is over.
//   - block: the caller is registered as the engine's waiter (block
//     label already set); it must yield StatusBlocked and call
//     WaitFinish once woken.
//   - neither: the tag was already collected; the wait is over with no
//     further yield and nothing to charge.
func (m *Mem) WaitCheck(p *cpu.Proc, tag dma.Tag) (done sim.Time, charge, block bool) {
	if done, ok := m.eng.Done(tag); ok {
		return done, true, false
	}
	if _, ok := m.eng.WaitStart(p.Task(), tag); ok {
		return 0, false, false
	}
	p.Task().WillBlockOn(m.eng.WaitLabel(tag))
	return 0, false, true
}

// WaitFinish collects a blocked wait's completion after the caller's
// wake and charges the DMA wait since before (the caller's time at
// WaitCheck).
func (m *Mem) WaitFinish(p *cpu.Proc, tag dma.Tag, before sim.Time) {
	m.eng.WaitCollect(tag)
	if wait := p.Now() - before; wait > 0 {
		p.AddDMAWait(wait)
	}
}

// finishSM runs cpu.Proc.Finish for a streaming core — store-buffer
// drain, Mem.Flush, completion record — as a resumable state machine,
// with the identical yield placement: one sync yield at Flush's head
// and, only when the last DMA command is still in flight, one blocked
// yield on the engine.
type finishSM struct {
	m      *Mem
	p      *cpu.Proc
	pc     int
	t      sim.Time
	last   dma.Tag
	before sim.Time
}

// NewFinish returns the core's end-of-workload sequence as a Runnable;
// the inline-core path runs it after the workload's body machine.
func (m *Mem) NewFinish(p *cpu.Proc) sim.Runnable { return &finishSM{m: m, p: p} }

func (f *finishSM) Step(t *sim.Task) sim.Status {
	m, p := f.m, f.p
	switch f.pc {
	case 0:
		p.DrainStores()
		f.pc = 1
		return sim.StatusRunning // Flush's leading sync
	case 1:
		f.t = p.Now()
		if f.last = m.eng.LastTag(); f.last != 0 {
			if done, ok := m.eng.Done(f.last); ok {
				f.t = maxTime(f.t, done)
			} else {
				f.before = p.Now()
				if done, ok := m.eng.WaitStart(p.Task(), f.last); ok {
					f.t = maxTime(f.t, done)
				} else {
					t.WillBlockOn(m.eng.WaitLabel(f.last))
					f.pc = 2
					return sim.StatusBlocked
				}
			}
		}
	case 2:
		f.t = maxTime(f.t, m.eng.WaitCollect(f.last))
		if wait := p.Now() - f.before; wait > 0 {
			p.AddDMAWait(wait)
		}
	}
	m.eng.Stop()
	p.CompleteFinish(f.t)
	return sim.StatusDone
}

func maxTime(a, b sim.Time) sim.Time {
	if a > b {
		return a
	}
	return b
}
