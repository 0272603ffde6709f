package sim

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Engine is a conservative discrete-event engine. Every simulated agent
// (a processor core, a DMA engine, a scheduling thread) is a Task: either
// a coroutine (Spawn; see coro.go) or an inline state machine stepped
// as a plain function call (SpawnInline; see inline.go). One dispatch
// loop in Run pops the runnable task with the smallest (time, id) and
// either steps it or resumes its coroutine until the task yields back,
// which keeps mutations of shared model state (caches, resource
// servers) ordered by timestamp.
//
// Concurrency contract: an Engine and its Tasks form one isolated
// scheduling domain driven by the single goroutine that calls Run. A
// coroutine runs only between the loop's next call and its own yield,
// and the loop is suspended in next meanwhile, so exactly one body of
// the domain executes at a time and model code needs no locking. An
// Engine owns no process-global state, so any number of independent
// Engines may Run concurrently from different goroutines (the
// experiment runner in internal/bench relies on this); what is
// forbidden is sharing one Engine, Task, or any model object across
// domains. Run enforces the one-driver rule with an atomic guard so a
// violation fails loudly rather than racing.
//
// Fast-path invariant: Sync exists so that a task yields before touching
// shared state and resumes only once it is the globally minimal runnable
// task under the engine's (time, id) order. The dispatch loop, however,
// would resume the yielding task t immediately — without running
// anything else — exactly when t already precedes every queued task
// under that order (blocked tasks cannot become runnable meanwhile: only
// the single running task could unblock them, and that is t itself). In
// that case the yield is a provable no-op, so Sync skips it: it compares
// t against the scheduler heap's minimum and, if t wins (strictly
// earlier time, or equal time and smaller spawn id), keeps running after
// updating the engine clock to t's time. Because the skip condition is
// precisely "the loop's next pop would return t", the sequence of
// task-at-time steps — and therefore every simulated timestamp — is
// identical with the fast path on or off; TestFastPathScheduleEquivalence
// checks this on randomized schedules. The fast path declines when the
// task has passed MaxTime so the livelock safety net still trips inside
// Run.
//
// Single-dispatch-loop invariant: every slow-path Sync and every Block
// yields to the loop in Run, and only the loop pops the heap, advances
// the clock on a dispatch, and raises the typed failures (deadlock,
// livelock, abort, task panic). A task that yields runnable is kept as
// the loop's carry: the next pop takes the minimum of heap ∪ {carry} in
// one replaceMin sift instead of a push and a pop. Scheduler state
// (queue, now, met, live, tasks, the per-task flags) is touched by the
// running body or by the loop, never both at once: iter.Pull's
// coroutine switches carry race-detector annotations, so each resume
// and each yield is a happens-before edge `go test -race` observes.
type Engine struct {
	queue   taskHeap
	tasks   []*Task
	now     Time
	live    int // tasks spawned and not yet finished
	started atomic.Bool
	// MaxTime, when non-zero, aborts the run if simulated time passes it.
	// It is a safety net against model-level livelock.
	MaxTime Time
	// noFastPath forces every Sync through the dispatch loop; only the
	// determinism tests set it (the fast path must be unobservable).
	noFastPath bool
	// noInline makes SpawnInline fall back to a coroutine task driving
	// the same Runnable (DriveRunnable); only the determinism tests set
	// it (the inline representation must be unobservable — the
	// equivalence suite runs the {fastpath, inline} on/off matrix).
	noInline bool

	// Cooperative cancellation (Abort) and post-failure coroutine drain
	// (Shutdown). abortFlag is atomic because Abort may come from any
	// goroutine (a watchdog timer); it is read once per dispatch and once
	// every abortStride fast-path Syncs. abortPoll is the countdown to the
	// next poll — a plain field, written only by the domain's running
	// body — which keeps the watchdog's disabled cost on the fast path to
	// a decrement and branch instead of an atomic load
	// (BenchmarkSyncFastPathWatchdog gates it). drained is a plain field:
	// Shutdown runs strictly after Run has unwound.
	abortFlag   atomic.Bool
	abortPoll   int
	abortMu     sync.Mutex
	abortReason string
	drained     bool

	// Epoch sampling (SetEpoch). nextEpoch is the first simulated time at
	// which onEpoch fires; it is kept at the Time sentinel maximum while
	// sampling is off so the hot paths pay one always-false compare and
	// nothing else. The hook runs synchronously wherever the clock
	// advanced (the dispatch loop, or the running task on the Sync fast
	// path) and it must only read model state: it may not Sync, Spawn,
	// Block or Unblock, so the event order is provably identical with
	// sampling on or off.
	epoch     Time
	nextEpoch Time
	onEpoch   func(boundary Time)

	// fr, when non-nil, is the flight recorder (SetFlightRecorder): a
	// ring of the last K scheduler events embedded in every typed
	// failure's EngineState. Disabled it is one always-false nil compare
	// per record site; the Sync fast path never records, so its cost is
	// untouched in both modes. See flightrec.go.
	fr *flightRecorder

	met Metrics
}

// Metrics are the engine's self-observation counters: how often the
// yield-free Sync fast path fires, how much work the scheduler heap
// does, and how deep it gets. They cost one increment on the paths they
// count and exist so the fast path's effectiveness is continuously
// measurable in every run instead of one-off benchmarked.
type Metrics struct {
	SyncFast    uint64 // Syncs answered without a yield
	SyncSlow    uint64 // Syncs that yielded to the dispatch loop
	Dispatches  uint64 // coroutine resumes by Run's dispatch loop
	Handoffs    uint64 // always 0: tasks no longer resume each other; kept for the report schema
	InlineSteps uint64 // inline-task steps run as plain function calls
	Spawns      uint64 // tasks ever spawned
	Blocks      uint64 // yields that blocked awaiting an Unblock
	Unblocks    uint64 // wake-ups of blocked tasks
	HeapPushes  uint64
	HeapPops    uint64
	HeapMax     int // deepest the scheduler heap has been
}

// FastPathRate returns the fraction of Syncs served without a yield.
func (m Metrics) FastPathRate() float64 {
	tot := m.SyncFast + m.SyncSlow
	if tot == 0 {
		return 0
	}
	return float64(m.SyncFast) / float64(tot)
}

// InlineRate returns the fraction of dispatched events that ran as
// inline steps — plain function calls on the dispatch loop, cheaper even
// than a coroutine switch. Events here are inline steps plus coroutine
// dispatches; fast-path Syncs are excluded.
func (m Metrics) InlineRate() float64 {
	tot := m.InlineSteps + m.Dispatches
	if tot == 0 {
		return 0
	}
	return float64(m.InlineSteps) / float64(tot)
}

// Snapshot emits the counters in a fixed order; it satisfies the probe
// layer's snapshot contract (internal/probe). HeapMax is monotone
// non-decreasing, so it is well-defined as a probe Counter like the
// rest.
func (m Metrics) Snapshot(put func(name string, value float64)) {
	put("sync_fast", float64(m.SyncFast))
	put("sync_slow", float64(m.SyncSlow))
	put("dispatches", float64(m.Dispatches))
	put("handoffs", float64(m.Handoffs))
	put("spawns", float64(m.Spawns))
	put("blocks", float64(m.Blocks))
	put("unblocks", float64(m.Unblocks))
	put("heap_pushes", float64(m.HeapPushes))
	put("heap_pops", float64(m.HeapPops))
	put("heap_max", float64(m.HeapMax))
	put("inline_steps", float64(m.InlineSteps))
}

// NewEngine returns an empty engine.
func NewEngine() *Engine {
	return &Engine{nextEpoch: ^Time(0)}
}

// Metrics returns the engine's self-observation counters so far. Safe to
// call after Run, or from a running task.
func (e *Engine) Metrics() Metrics { return e.met }

// QueueLen returns the current scheduler-heap depth (runnable tasks not
// being executed right now).
func (e *Engine) QueueLen() int { return e.queue.len() }

// SetEpoch installs fn to be called the first time simulated time
// reaches or passes every multiple of interval, with the boundary as
// argument (a jump across several boundaries fires fn once per boundary,
// so samples stay regularly spaced). Call it before Run. The hook runs
// wherever the engine clock advanced and must only read
// model state — never Sync, Spawn, Block, Unblock or advance any clock —
// which is what makes sampling invisible to the event order; see the
// field comment.
func (e *Engine) SetEpoch(interval Time, fn func(boundary Time)) {
	if interval == 0 || fn == nil {
		panic("sim: SetEpoch needs a positive interval and a hook")
	}
	e.epoch = interval
	e.nextEpoch = interval
	e.onEpoch = fn
}

// epochTick fires the sampling hook for every boundary the clock just
// crossed. Out of line so the hot paths only inline the compare.
func (e *Engine) epochTick() {
	for e.now >= e.nextEpoch {
		at := e.nextEpoch
		e.nextEpoch += e.epoch
		e.onEpoch(at)
	}
}

// Now returns the time of the most recently dispatched event.
func (e *Engine) Now() Time { return e.now }

// Task is a simulated agent with its own local clock. All methods must be
// called from the task's own body unless documented otherwise.
type Task struct {
	engine  *Engine
	name    string
	id      int
	time    Time
	blocked bool
	queued  bool
	done    bool
	// waitingOn names the resource this task is blocked on (BlockOn);
	// empty while runnable or for a plain Block. Written by the task,
	// read by the dispatch loop in snapshotState.
	waitingOn string
	// next resumes the task's coroutine until it yields or returns, yield
	// hands control back to the dispatch loop, and stop unwinds a
	// suspended coroutine (Shutdown); see coro.go. All nil for inline
	// tasks.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	stop  func()
	// fault is a panic recovered from the coroutine body, raised out of
	// Run by the dispatch loop once the coroutine has returned.
	fault *TaskPanicError
	// inline, when non-nil, is the task's state-machine body: the task
	// has no coroutine, and the dispatch loop calls inline.Step directly
	// (see inline.go).
	inline Runnable
	// blockLabel is the pending WillBlockOn label, consumed by the next
	// StatusBlocked an inline Step (or DriveRunnable) returns.
	blockLabel string
}

// newTask registers a task of either kind; the caller attaches its body
// and pushes it.
func (e *Engine) newTask(name string, start Time) *Task {
	t := &Task{engine: e, name: name, id: len(e.tasks), time: start}
	e.tasks = append(e.tasks, t)
	e.live++
	e.met.Spawns++
	return t
}

func (e *Engine) push(t *Task) {
	if t.queued || t.done {
		return
	}
	t.queued = true
	t.blocked = false
	e.queue.push(t)
	e.met.HeapPushes++
	if d := e.queue.len(); d > e.met.HeapMax {
		e.met.HeapMax = d
	}
}

// Run dispatches events until every task has finished. It is the single
// dispatch loop: it pops the (time, id) minimum, advances the clock, and
// either steps an inline task or resumes a coroutine until it yields. A
// task that yields runnable becomes the carry, merged into the next pop
// by replaceMin. Run panics with a typed value (see abort.go) on
// deadlock (live tasks remain but none is runnable — always a bug in a
// model or workload, never a recoverable condition), on livelock past
// MaxTime, on a requested Abort, and when a task body panicked; every
// such value carries an EngineState snapshot. The run layer recovers
// these in one place (core.System.Run) and must call Shutdown afterwards
// to unwind the suspended coroutines.
// Run must be called exactly once, and only one goroutine may drive an
// Engine: the compare-and-swap below asserts it, making concurrent
// engines provably non-interfering (each is driven by its own caller).
func (e *Engine) Run() {
	if !e.started.CompareAndSwap(false, true) {
		panic("sim: Engine.Run called twice or from two goroutines")
	}
	var carry *Task
	for e.live > 0 {
		if e.abortFlag.Load() {
			if carry != nil {
				e.push(carry)
			}
			panic(e.abortError())
		}
		var t *Task
		if carry != nil {
			e.met.HeapPushes++
			e.met.HeapPops++
			t = e.queue.replaceMin(carry)
			if t != carry {
				carry.queued = true
			}
			carry = nil
		} else {
			if e.queue.len() == 0 {
				panic(&DeadlockError{State: e.snapshotState()})
			}
			t = e.queue.pop()
			e.met.HeapPops++
		}
		t.queued = false
		if t.inline == nil {
			e.met.Dispatches++
			e.record(flightDispatch, t)
		}
		if t.time < e.now {
			panic(fmt.Sprintf("sim: task %q scheduled in the past (%v < %v)", t.name, t.time, e.now))
		}
		e.now = t.time
		if e.MaxTime != 0 && e.now > e.MaxTime {
			panic(&LivelockError{MaxTime: e.MaxTime, State: e.snapshotState()})
		}
		if e.now >= e.nextEpoch {
			e.epochTick()
		}
		if t.inline != nil {
			carry = e.stepInline(t)
			continue
		}
		if _, ok := t.next(); ok {
			if !t.blocked {
				carry = t
			}
			continue
		}
		t.done = true
		e.live--
		if p := t.fault; p != nil {
			p.State = e.snapshotState()
			panic(p)
		}
	}
}

func (e *Engine) describeBlocked() string {
	return e.snapshotState().blockedSummary()
}

// Name returns the task's name.
func (t *Task) Name() string { return t.name }

// ID returns the task's spawn index.
func (t *Task) ID() int { return t.id }

// Time returns the task's local clock.
func (t *Task) Time() Time { return t.time }

// SetTime advances the task's local clock without yielding to the engine.
// Use it for purely local charges (e.g. L1 hits) that touch no shared
// state. It never moves the clock backwards.
func (t *Task) SetTime(tm Time) {
	if tm > t.time {
		t.time = tm
	}
}

// Advance adds d to the local clock without yielding.
func (t *Task) Advance(d Time) { t.time += d }

// Sync yields to the engine and returns once this task is globally minimal
// again. Call it before touching shared model state so that mutations are
// applied in timestamp order.
//
// When the task is already globally minimal — no queued task precedes it
// under (time, id) — the dispatch loop would resume it right back, so
// Sync returns without yielding (see the fast-path invariant in the
// Engine doc). The engine clock still advances to the task's time.
// Otherwise the task yields to the loop, which carries it into its next
// pop.
func (t *Task) Sync() {
	e := t.engine
	if !e.noFastPath && (e.MaxTime == 0 || t.time <= e.MaxTime) &&
		(e.queue.len() == 0 || t.before(e.queue.peek())) && e.abortPollOK() {
		e.met.SyncFast++
		e.now = t.time
		if e.now >= e.nextEpoch {
			e.epochTick()
		}
		return
	}
	e.met.SyncSlow++
	if t.inline != nil {
		panic("sim: Sync from inline task " + t.name + "'s Step; return StatusRunning instead")
	}
	t.suspend()
}

// suspend yields the task's coroutine to the dispatch loop and returns
// once the loop resumes it. A false yield means Shutdown is stopping the
// coroutine: the sentinel panic unwinds the body without running more
// model code.
func (t *Task) suspend() {
	if !t.yield(struct{}{}) {
		panic(taskAbortSignal{})
	}
}

// abortStride is how many fast-path Syncs may pass between polls of the
// abort flag. It bounds cancellation latency on an all-fast-path
// simulation (one task, never yielding) at 64 Syncs while keeping the
// common case free of the atomic load.
const abortStride = 64

// abortPollOK amortizes the watchdog's cost on the Sync fast path: a
// decrement and branch on abortStride-1 calls out of abortStride, one
// atomic abortFlag load on the rest. A requested Abort declines the fast
// path, forcing the yield after which the loop raises the typed abort.
// Without this poll an all-fast-path simulation would be uncancelable.
// abortPoll is a plain field: only the domain's running body calls Sync.
func (e *Engine) abortPollOK() bool {
	e.abortPoll--
	if e.abortPoll >= 0 {
		return true
	}
	e.abortPoll = abortStride - 1
	return !e.abortFlag.Load()
}

// AdvanceTo moves the local clock to tm (if later) and syncs.
func (t *Task) AdvanceTo(tm Time) {
	t.SetTime(tm)
	t.Sync()
}

// Block suspends the task until another task calls Unblock. The task's
// clock may be moved forward by the waker.
func (t *Task) Block() { t.block("") }

// BlockOn is Block with a label naming the resource the task is waiting
// for ("lock mq", "barrier start", "dma dma0"). The label appears in
// deadlock diagnostics and engine-state snapshots alongside the task's
// last sync time, so a deadlock on a resource names the resource, not
// just the tasks.
func (t *Task) BlockOn(label string) { t.block(label) }

func (t *Task) block(label string) {
	if t.inline != nil {
		panic("sim: Block from inline task " + t.name + "'s Step; return StatusBlocked instead")
	}
	t.waitingOn = label
	t.blocked = true
	t.engine.met.Blocks++
	t.engine.record(flightBlock, t)
	t.suspend()
	t.waitingOn = ""
}

// Unblock makes a blocked task runnable again, no earlier than time at.
// The wake time is additionally clamped to the engine's current time: a
// wake event generated by a task running at time T cannot take effect
// before T. It must be called from a different, currently-running task
// (the domain runs one body at a time, so this is race-free).
func (t *Task) Unblock(at Time) {
	if t.done {
		panic("sim: Unblock of finished task " + t.name)
	}
	if !t.blocked {
		panic("sim: Unblock of runnable task " + t.name)
	}
	if now := t.engine.now; at < now {
		at = now
	}
	t.SetTime(at)
	t.engine.met.Unblocks++
	t.engine.record(flightUnblock, t)
	t.engine.push(t)
}

// before reports whether t precedes u in dispatch order: earlier local
// time, with the spawn id breaking ties so dispatch is deterministic.
func (t *Task) before(u *Task) bool {
	if t.time != u.time {
		return t.time < u.time
	}
	return t.id < u.id
}

// taskHeap is a 4-ary min-heap of tasks ordered by (time, id). It is
// hand-specialized rather than using container/heap: no interface boxing
// on push/pop, and the sift loops compare the (time, id) key directly.
// 4-ary halves the tree depth of the binary heap, which matters because
// the heap is touched on every slow-path dispatch.
type taskHeap struct {
	s []*Task
}

const heapArity = 4

func (h *taskHeap) len() int { return len(h.s) }

// peek returns the minimum without removing it. Caller checks len > 0.
func (h *taskHeap) peek() *Task { return h.s[0] }

func (h *taskHeap) push(t *Task) {
	h.s = append(h.s, t)
	s := h.s
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / heapArity
		if !t.before(s[p]) {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = t
}

// replaceMin pushes t and pops the global minimum in a single sift, the
// dispatch loop's heap operation for its carry. When t precedes the current root —
// or the heap is empty — the heap is left untouched and t itself is
// returned; otherwise the root is returned and t sifts down from the
// root slot, halving the work of a separate push + pop. The result is
// always the minimum of {heap ∪ t}, and because (time, id) keys are
// unique and totally ordered, the pop sequence — hence the dispatch
// order — is identical to push(t) followed by pop() regardless of the
// differing internal heap shape.
func (h *taskHeap) replaceMin(t *Task) *Task {
	s := h.s
	n := len(s)
	if n == 0 || t.before(s[0]) {
		return t
	}
	top := s[0]
	i := 0
	for {
		first := i*heapArity + 1
		if first >= n {
			break
		}
		min := first
		end := first + heapArity
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if s[c].before(s[min]) {
				min = c
			}
		}
		if !s[min].before(t) {
			break
		}
		s[i] = s[min]
		i = min
	}
	s[i] = t
	return top
}

func (h *taskHeap) pop() *Task {
	s := h.s
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s[n] = nil
	h.s = s[:n]
	if n == 0 {
		return top
	}
	s = h.s
	// Sift the former tail down from the root.
	i := 0
	for {
		first := i*heapArity + 1
		if first >= n {
			break
		}
		min := first
		end := first + heapArity
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if s[c].before(s[min]) {
				min = c
			}
		}
		if !s[min].before(last) {
			break
		}
		s[i] = s[min]
		i = min
	}
	s[i] = last
	return top
}
