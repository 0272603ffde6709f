package dma

import (
	"strings"
	"testing"

	"repro/internal/lstore"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/uncore"
)

// harness runs a driver body alongside one DMA engine.
func runDMA(t *testing.T, body func(task *sim.Task, e *Engine)) (*Engine, *uncore.Uncore) {
	t.Helper()
	eng := sim.NewEngine()
	unc := uncore.New(uncore.DefaultConfig(), noc.New(noc.DefaultConfig(4)))
	e := New("dma0", 0, unc, lstore.New(0))
	e.Spawn(eng, 0)
	eng.Spawn("driver", 0, func(task *sim.Task) {
		body(task, e)
		e.Stop()
	})
	eng.Run()
	return e, unc
}

func TestSequentialGet(t *testing.T) {
	var done sim.Time
	e, unc := runDMA(t, func(task *sim.Task, e *Engine) {
		tag := e.Queue(task.Time(), Get, 0x10000, 4096)
		done = e.Wait(task, tag)
	})
	if got := e.Stats().GetBytes; got != 4096 {
		t.Errorf("GetBytes = %d, want 4096", got)
	}
	if got := e.Stats().Beats; got != 128 {
		t.Errorf("Beats = %d, want 128", got)
	}
	if got := unc.DRAM().Stats().ReadBytes; got != 4096 {
		t.Errorf("DRAM reads = %d, want 4096", got)
	}
	if done == 0 {
		t.Error("completion time not recorded")
	}
	// With 16 outstanding accesses, a 4 KB get at 1.6 GB/s should take
	// roughly bytes/bandwidth (~2.56us), not 128 serialized misses (~9us).
	if done > 5*sim.Microsecond {
		t.Errorf("4KB get took %v; outstanding accesses not overlapping", done)
	}
}

func TestSequentialPutAvoidsRefills(t *testing.T) {
	e, unc := runDMA(t, func(task *sim.Task, e *Engine) {
		tag := e.Queue(task.Time(), Put, 0x20000, 2048)
		e.Wait(task, tag)
	})
	if got := unc.DRAM().Stats().ReadBytes; got != 0 {
		t.Errorf("full-line DMA put caused %d DRAM read bytes; want 0", got)
	}
	if got := e.Stats().PutBytes; got != 2048 {
		t.Errorf("PutBytes = %d, want 2048", got)
	}
}

func TestStridedGatherChargesSparseTraffic(t *testing.T) {
	// Gather 256 4-byte elements with a 64-byte stride: the channel
	// should move ~8 bytes per element (min burst), not 32.
	e, unc := runDMA(t, func(task *sim.Task, e *Engine) {
		tag := e.QueueStrided(task.Time(), Get, 0x40000, 4, 64, 256)
		e.Wait(task, tag)
	})
	if got := e.Stats().SparseElems; got != 256 {
		t.Errorf("sparse elems = %d, want 256", got)
	}
	rd := unc.DRAM().Stats().ReadBytes
	if rd != 256*uncore.MinBurst {
		t.Errorf("DRAM reads = %d, want %d (min-burst per element)", rd, 256*uncore.MinBurst)
	}
}

func TestStridedUnitStrideCoalesces(t *testing.T) {
	e, _ := runDMA(t, func(task *sim.Task, e *Engine) {
		tag := e.QueueStrided(task.Time(), Get, 0x50000, 4, 4, 64)
		e.Wait(task, tag)
	})
	if got := e.Stats().Beats; got != 8 {
		t.Errorf("unit-stride gather used %d beats, want 8 coalesced lines", got)
	}
}

func TestIndexedGather(t *testing.T) {
	addrs := []mem.Addr{0x1000, 0x9000, 0x3000, 0x7000}
	e, _ := runDMA(t, func(task *sim.Task, e *Engine) {
		tag := e.QueueIndexed(task.Time(), Get, addrs, 8)
		e.Wait(task, tag)
	})
	if got := e.Stats().SparseElems; got != 4 {
		t.Errorf("sparse elems = %d, want 4", got)
	}
	if got := e.Stats().GetBytes; got != 32 {
		t.Errorf("GetBytes = %d, want 32", got)
	}
}

func TestCommandQueuingOverlapsWithDriver(t *testing.T) {
	// Queue two commands back to back; the driver continues immediately
	// and only blocks on the second tag.
	var q1, q2, waited sim.Time
	runDMA(t, func(task *sim.Task, e *Engine) {
		t1 := e.Queue(task.Time(), Get, 0x10000, 1024)
		q1 = task.Time()
		t2 := e.Queue(task.Time(), Get, 0x20000, 1024)
		q2 = task.Time()
		_ = t1
		waited = e.Wait(task, t2)
	})
	if q1 != q2 {
		t.Error("queueing a command should not advance the driver clock")
	}
	if waited <= q2 {
		t.Error("wait should advance to DMA completion")
	}
}

func TestWaitForCompletedTagReturnsImmediately(t *testing.T) {
	runDMA(t, func(task *sim.Task, e *Engine) {
		tag := e.Queue(task.Time(), Get, 0x10000, 32)
		done := e.Wait(task, tag)
		// Second workload phase long after.
		task.AdvanceTo(done + sim.Millisecond)
		tag2 := e.Queue(task.Time(), Get, 0x20000, 32)
		if _, ok := e.Done(tag2); ok {
			t.Error("fresh tag reported done")
		}
		e.Wait(task, tag2)
	})
}

func TestDoubleBufferingOverlapsTransfers(t *testing.T) {
	// Double-buffered consumption: wait for buffer A while B streams.
	// Total time should be close to one buffer transfer + compute, not
	// the serial sum.
	const buf = 8192
	var serial, overlapped sim.Time
	runDMA(t, func(task *sim.Task, e *Engine) {
		// Serial: get, wait, compute.
		for i := 0; i < 4; i++ {
			tag := e.Queue(task.Time(), Get, mem.Addr(0x100000+i*buf), buf)
			task.AdvanceTo(e.Wait(task, tag))
			task.Advance(2 * sim.Microsecond) // compute
			task.Sync()
		}
		serial = task.Time()
	})
	runDMA(t, func(task *sim.Task, e *Engine) {
		var tags [4]Tag
		tags[0] = e.Queue(task.Time(), Get, 0x100000, buf)
		for i := 0; i < 4; i++ {
			if i+1 < 4 {
				tags[i+1] = e.Queue(task.Time(), Get, mem.Addr(0x100000+(i+1)*buf), buf)
			}
			task.AdvanceTo(e.Wait(task, tags[i]))
			task.Advance(2 * sim.Microsecond)
			task.Sync()
		}
		overlapped = task.Time()
	})
	if overlapped >= serial {
		t.Errorf("double buffering (%v) not faster than serial (%v)", overlapped, serial)
	}
}

func TestStopDrainsQueue(t *testing.T) {
	e, _ := runDMA(t, func(task *sim.Task, e *Engine) {
		e.Queue(task.Time(), Get, 0x10000, 1024)
		// Stop without waiting: the engine must still finish the queued
		// command before exiting.
	})
	if got := e.Stats().GetBytes; got != 1024 {
		t.Errorf("queued transfer not completed before stop: %d bytes", got)
	}
}

func TestStridedScatterWrites(t *testing.T) {
	e, unc := runDMA(t, func(task *sim.Task, e *Engine) {
		tag := e.QueueStrided(task.Time(), Put, 0x40000, 4, 64, 128)
		e.Wait(task, tag)
	})
	if got := e.Stats().PutBytes; got != 4*128 {
		t.Errorf("PutBytes = %d, want %d", got, 4*128)
	}
	// Scatter writes merge at min-burst granularity without refills.
	if rd := unc.DRAM().Stats().ReadBytes; rd != 0 {
		t.Errorf("scatter caused %d read bytes", rd)
	}
	if wr := unc.DRAM().Stats().WriteBytes; wr != 128*uncore.MinBurst {
		t.Errorf("scatter wrote %d bytes, want %d", wr, 128*uncore.MinBurst)
	}
}

func TestIndexedScatter(t *testing.T) {
	addrs := []mem.Addr{0x1000, 0x5000, 0x3000}
	e, _ := runDMA(t, func(task *sim.Task, e *Engine) {
		tag := e.QueueIndexed(task.Time(), Put, addrs, 16)
		e.Wait(task, tag)
	})
	if got := e.Stats().PutBytes; got != 48 {
		t.Errorf("PutBytes = %d, want 48", got)
	}
}

func TestWideStridedElementsUseLinePath(t *testing.T) {
	// Elements of 64 bytes (two lines) with a 256-byte stride: moved as
	// whole-line beats through the cached path, not as sparse bursts.
	e, unc := runDMA(t, func(task *sim.Task, e *Engine) {
		tag := e.QueueStrided(task.Time(), Get, 0x80000, 64, 256, 16)
		e.Wait(task, tag)
	})
	if got := e.Stats().Beats; got != 32 { // 16 elements x 2 lines
		t.Errorf("beats = %d, want 32", got)
	}
	if got := e.Stats().SparseElems; got != 0 {
		t.Errorf("sparse elems = %d, want 0 for wide elements", got)
	}
	// Line-path gets allocate in the L2 (strips are re-read by later
	// passes in real workloads).
	if occ := unc.L2().Occupancy(); occ == 0 {
		t.Error("wide strided get did not allocate in the L2")
	}
}

// The four Wait outcomes: a tag done but not yet collected, an
// in-flight tag (block, then collect), a tag already collected, and a
// second concurrent waiter.

func TestWaitDoneTagCollectsWithoutBlocking(t *testing.T) {
	var queued, completed, got, after sim.Time
	e, _ := runDMA(t, func(task *sim.Task, e *Engine) {
		tag := e.Queue(task.Time(), Get, 0x10000, 256)
		queued = task.Time()
		task.AdvanceTo(queued + sim.Millisecond) // long past completion
		var ok bool
		if completed, ok = e.Done(tag); !ok {
			t.Fatal("tag not done a millisecond after queueing")
		}
		got = e.Wait(task, tag)
		after = task.Time()
		if _, ok := e.Done(tag); ok {
			t.Error("Wait did not collect the tag")
		}
	})
	if got != completed || got <= queued {
		t.Errorf("Wait = %v, want the recorded completion %v (queued at %v)", got, completed, queued)
	}
	if after != queued+sim.Millisecond {
		t.Errorf("Wait on a done tag moved the caller to %v", after)
	}
	if e.waiter != nil {
		t.Error("Wait on a done tag registered a waiter")
	}
}

func TestWaitInFlightTagBlocksThenCollects(t *testing.T) {
	var queued, got, woke sim.Time
	runDMA(t, func(task *sim.Task, e *Engine) {
		tag := e.Queue(task.Time(), Get, 0x10000, 1024)
		queued = task.Time()
		if _, ok := e.Done(tag); ok {
			t.Fatal("fresh tag reported done")
		}
		got = e.Wait(task, tag)
		woke = task.Time()
		if _, ok := e.Done(tag); ok {
			t.Error("Wait did not collect the tag")
		}
		if e.waiter != nil {
			t.Error("waiter still registered after the wake")
		}
	})
	if got <= queued {
		t.Errorf("Wait = %v, want a completion after the queue time %v", got, queued)
	}
	if woke != got {
		t.Errorf("caller woke at %v, want the completion time %v", woke, got)
	}
}

func TestWaitCollectedTagReturnsCallerTime(t *testing.T) {
	var first, second, at sim.Time
	runDMA(t, func(task *sim.Task, e *Engine) {
		tag := e.Queue(task.Time(), Get, 0x10000, 256)
		first = e.Wait(task, tag)
		task.AdvanceTo(first + sim.Microsecond)
		at = task.Time()
		// Already collected: no done entry, no waiter, no block (a block
		// here would never be woken and the run would deadlock).
		second = e.Wait(task, tag)
		if task.Time() != at {
			t.Errorf("second Wait moved the caller from %v to %v", at, task.Time())
		}
	})
	if second != at {
		t.Errorf("second Wait = %v, want the caller's time %v (first completion %v)", second, at, first)
	}
}

func TestWaitSecondWaiterPanics(t *testing.T) {
	eng := sim.NewEngine()
	unc := uncore.New(uncore.DefaultConfig(), noc.New(noc.DefaultConfig(4)))
	e := New("dma0", 0, unc, lstore.New(0))
	e.Spawn(eng, 0)
	var tag Tag
	eng.Spawn("first", 0, func(task *sim.Task) {
		tag = e.Queue(task.Time(), Get, 0x10000, 1024)
		e.Wait(task, tag)
	})
	eng.Spawn("second", 0, func(task *sim.Task) { e.Wait(task, tag) })
	err := func() (err any) {
		defer func() { err = recover() }()
		eng.Run()
		return nil
	}()
	eng.Shutdown()
	pe, ok := err.(*sim.TaskPanicError)
	if !ok {
		t.Fatalf("Run panicked with %#v, want *sim.TaskPanicError", err)
	}
	if msg, _ := pe.Value.(string); pe.TaskName != "second" || !strings.Contains(msg, "already has a waiter") {
		t.Fatalf("panic = %q/%v, want task second and \"already has a waiter\"", pe.TaskName, pe.Value)
	}
}

func TestWaitUnissuedTagPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	// The guard fires before any task interaction, so no engine needed
	// (a panic inside a spawned task would kill the test process).
	e := New("dma", 0, nil, lstore.New(0))
	e.Wait(nil, 42)
}

func TestZeroLengthTransferPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e := New("dma", 0, nil, lstore.New(0))
	e.Queue(0, Get, 0, 0)
}
