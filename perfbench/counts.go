package main

import "repro/internal/core"

// counts accumulates the Report-derived per-layer counters of a set of
// simulations. Every field is a sum (HeapMax a maximum), so two runs of
// the same job set give identical counts.
type counts struct {
	Instructions                                          uint64
	Handoffs, Dispatches, InlineSteps, SyncFast, SyncSlow uint64
	HeapPushes                                            uint64
	HeapMax                                               int
	Pruned, Compactions                                   uint64
	L1Reads, L1Writes, L1Hits, SnoopLookups               uint64
	L2Accesses, L2Hits                                    uint64
	ReadMisses, WriteMisses, Upgrades, C2C                uint64
	FilteredSnoops, GatherFlushes                         uint64
	PrefetchFills, PrefetchUseless                        uint64
	BusBytes, XbarMsgs, L2Refills                         uint64
	DRAMReads, DRAMWrites, RowHits, RowMisses             uint64
	ChannelUtil                                           float64 // summed; divided by Jobs
	DMACommands, DMAGetBytes, DMAPutBytes, LSAccesses     uint64
	Txns, TxnRetained, ProbeSamples, TraceSpans           uint64
	Jobs                                                  int
}

func (c *counts) add(r *core.Report) {
	c.Jobs++
	c.Instructions += r.Instructions
	e := r.Engine
	c.Handoffs += e.Handoffs
	c.Dispatches += e.Dispatches
	c.InlineSteps += e.InlineSteps
	c.SyncFast += e.SyncFast
	c.SyncSlow += e.SyncSlow
	c.HeapPushes += e.HeapPushes
	c.HeapMax = max(c.HeapMax, e.HeapMax)
	c.Pruned += r.Servers.Pruned
	c.Compactions += r.Servers.Compactions
	c.L1Reads += r.L1.Reads
	c.L1Writes += r.L1.Writes
	c.L1Hits += r.L1.ReadHits + r.L1.WriteHits
	c.SnoopLookups += r.L1.SnoopLookups
	c.L2Accesses += r.L2.Reads + r.L2.Writes
	c.L2Hits += r.L2.ReadHits + r.L2.WriteHits
	c.ReadMisses += r.ReadMisses
	c.WriteMisses += r.WriteMisses
	c.Upgrades += r.Upgrades
	c.C2C += r.C2CCluster + r.C2CRemote
	c.FilteredSnoops += r.FilteredSnoops
	c.GatherFlushes += r.GatherFlushes
	c.PrefetchFills += r.PrefetchFills
	c.PrefetchUseless += r.PrefetchUseless
	c.BusBytes += r.Net.BusDataBytes
	c.XbarMsgs += r.Net.XbarMsgs
	c.L2Refills += r.Unc.L2Refills
	c.DRAMReads += r.DRAM.Reads
	c.DRAMWrites += r.DRAM.Writes
	c.RowHits += r.DRAM.RowHits
	c.RowMisses += r.DRAM.RowMisses
	c.ChannelUtil += r.ChannelUtil
	c.DMACommands += r.DMACommands
	c.DMAGetBytes += r.DMAGetBytes
	c.DMAPutBytes += r.DMAPutBytes
	c.LSAccesses += r.LSAccesses
}

// addObservers accumulates what the armed observers of one job recorded.
func (c *counts) addObservers(o obsCounts) {
	c.Txns += o.Txns
	c.TxnRetained += o.Retained
	c.ProbeSamples += o.Samples
	c.TraceSpans += o.Spans
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// metrics emits the per-layer count and ratio metrics.
func (c *counts) metrics(put func(name string, value float64, unit string)) {
	n := func(name string, v uint64) { put(name, float64(v), "count") }
	r := func(name string, v float64) { put(name, v, "ratio") }
	n("core.instructions", c.Instructions)
	n("sim.engine.handoffs", c.Handoffs)
	n("sim.engine.dispatches", c.Dispatches)
	n("sim.engine.inline_steps", c.InlineSteps)
	n("sim.engine.sync_fast", c.SyncFast)
	n("sim.engine.sync_slow", c.SyncSlow)
	n("sim.engine.heap_pushes", c.HeapPushes)
	n("sim.engine.heap_max", uint64(c.HeapMax))
	r("sim.engine.inline_rate", ratio(c.InlineSteps, c.InlineSteps+c.Dispatches+c.Handoffs))
	r("sim.engine.fast_path_rate", ratio(c.SyncFast, c.SyncFast+c.SyncSlow))
	n("sim.calendar.pruned", c.Pruned)
	n("sim.calendar.compactions", c.Compactions)
	n("cache.l1_reads", c.L1Reads)
	r("cache.l1_hit_ratio", ratio(c.L1Hits, c.L1Reads+c.L1Writes))
	n("cache.snoop_lookups", c.SnoopLookups)
	r("cache.l2_hit_ratio", ratio(c.L2Hits, c.L2Accesses))
	n("coher.read_misses", c.ReadMisses)
	n("coher.write_misses", c.WriteMisses)
	n("coher.upgrades", c.Upgrades)
	n("coher.c2c", c.C2C)
	n("coher.filtered_snoops", c.FilteredSnoops)
	n("coher.gather_flushes", c.GatherFlushes)
	n("prefetch.fills", c.PrefetchFills)
	r("prefetch.useful_ratio", ratio(c.PrefetchFills-c.PrefetchUseless, c.PrefetchFills))
	n("noc.bus_bytes", c.BusBytes)
	n("noc.xbar_msgs", c.XbarMsgs)
	n("uncore.l2_refills", c.L2Refills)
	n("dram.reads", c.DRAMReads)
	n("dram.writes", c.DRAMWrites)
	r("dram.row_hit_ratio", ratio(c.RowHits, c.RowHits+c.RowMisses))
	util := 0.0
	if c.Jobs > 0 {
		util = c.ChannelUtil / float64(c.Jobs)
	}
	r("dram.channel_util", util)
	n("dma.commands", c.DMACommands)
	n("dma.get_bytes", c.DMAGetBytes)
	n("dma.put_bytes", c.DMAPutBytes)
	n("stream.ls_accesses", c.LSAccesses)
	n("txntrace.txns", c.Txns)
	n("txntrace.retained", c.TxnRetained)
	n("probe.samples", c.ProbeSamples)
	n("trace.spans", c.TraceSpans)
}
