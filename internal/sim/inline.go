package sim

import "runtime/debug"

// This file is the inline-task representation: tasks whose bodies are
// explicit resumable state machines (Runnable) instead of coroutines.
// Run's dispatch loop runs an inline task's next step as a plain
// function call, so dispatching an inline task costs no coroutine
// switch. Coroutine and inline tasks interleave freely in one scheduler
// heap under the same (time, id) total order; the schedule is provably
// identical between the two representations because both are dispatched
// by the same "pop the global minimum" rule, and because DriveRunnable
// gives every Runnable an exact coroutine twin (the {inline on/off} axis
// of the schedule-equivalence matrix).
//
// An inline task's state-machine fields are part of the scheduling
// domain's state. The domain runs one body at a time (the
// single-dispatch-loop invariant; see DESIGN.md), so they need no
// further ordering.

// Status is what a Runnable's Step reports about the task's state.
type Status uint8

const (
	// StatusRunning: the step advanced the task's clock (or not) and the
	// task wants to be scheduled again — the inline equivalent of Sync.
	StatusRunning Status = iota
	// StatusBlocked: the task cannot proceed until another task calls
	// Unblock on it — the inline equivalent of Block/BlockOn (set the
	// label with WillBlockOn before returning).
	StatusBlocked
	// StatusDone: the task has finished; Step will not be called again.
	StatusDone
)

// Runnable is the body of an inline task: an explicit state machine
// whose Step runs the task up to its next yield point and reports why
// it stopped. Step must not call Sync, Block, BlockOn or AdvanceTo on
// its own task — those suspend a coroutine the task does not have; it
// yields by returning instead. Everything else is allowed: Advance and
// SetTime move the clock, Unblock wakes peers, Spawn/SpawnInline create
// tasks, and shared model state may be touched exactly as a
// coroutine body would between Syncs.
type Runnable interface {
	Step(t *Task) Status
}

// SpawnInline registers r as an inline task starting at time start. The
// task's steps run as plain function calls on the dispatch loop — no
// coroutine, no stack — which is what makes an inline dispatch cheaper
// than a coroutine switch. May be called before Run or from a running
// task (including from another Runnable's Step).
func (e *Engine) SpawnInline(name string, start Time, r Runnable) *Task {
	if r == nil {
		panic("sim: SpawnInline with nil Runnable")
	}
	if e.noInline {
		return e.Spawn(name, start, func(t *Task) { DriveRunnable(t, r) })
	}
	t := e.newTask(name, start)
	t.inline = r
	e.push(t)
	return t
}

// DriveRunnable runs r to completion on a coroutine task,
// translating each returned Status into the equivalent blocking call:
// StatusRunning → Sync, StatusBlocked → Block (with WillBlockOn's
// label), StatusDone → return. It is the noInline twin of an inline
// task: SpawnInline falls back to it when inline execution is
// disabled, so both modes execute the identical sequence of Step calls
// and yields, and the inline on/off schedule equivalence holds by
// construction.
func DriveRunnable(t *Task, r Runnable) {
	for {
		switch r.Step(t) {
		case StatusRunning:
			t.Sync()
		case StatusBlocked:
			t.block(t.takeBlockLabel())
		case StatusDone:
			return
		default:
			panic("sim: Runnable.Step returned an invalid Status")
		}
	}
}

// WillBlockOn records the label for the StatusBlocked this task's Step
// is about to return — the inline equivalent of BlockOn's resource
// label, shown in deadlock diagnostics and engine-state snapshots. It
// only takes effect through the next StatusBlocked.
func (t *Task) WillBlockOn(label string) { t.blockLabel = label }

// takeBlockLabel consumes the label set by WillBlockOn.
func (t *Task) takeBlockLabel() string {
	l := t.blockLabel
	t.blockLabel = ""
	return l
}

// runStep executes one Step of inline task n on the dispatch loop. A
// panic out of Step is routed exactly like a coroutine body's panic: it
// surfaces out of Run as a *TaskPanicError naming n.
func (e *Engine) runStep(n *Task) Status {
	e.met.InlineSteps++
	e.record(flightInlineStep, n)
	n.waitingOn = ""
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		n.done = true
		e.live--
		panic(&TaskPanicError{TaskName: n.name, Value: r, Stack: string(debug.Stack()), State: e.snapshotState()})
	}()
	return n.inline.Step(n)
}

// inlineSpinOK reports whether inline task t, which just yielded
// StatusRunning, may be stepped again immediately without touching the
// heap. The condition is exactly the Sync fast path's: t still precedes
// every queued task under (time, id), MaxTime is not crossed, and the
// strided abort poll stays clear — so the spin is schedule-invisible
// for the same reason the fast path is.
func (e *Engine) inlineSpinOK(t *Task) bool {
	return !e.noFastPath && (e.MaxTime == 0 || t.time <= e.MaxTime) &&
		(e.queue.len() == 0 || t.before(e.queue.peek())) && e.abortPollOK()
}

// stepInline dispatches inline task t from Run's loop: t has been
// popped and the clock advanced. While t stays globally minimal it is
// re-stepped without touching the heap (the inline fast path);
// otherwise it is returned as the loop's carry when still runnable, or
// marked blocked / retired, and the loop resumes scheduling.
func (e *Engine) stepInline(t *Task) (carry *Task) {
	for {
		switch e.runStep(t) {
		case StatusRunning:
			if e.inlineSpinOK(t) {
				e.now = t.time
				if e.now >= e.nextEpoch {
					e.epochTick()
				}
				continue
			}
			return t
		case StatusBlocked:
			t.blocked = true
			t.waitingOn = t.takeBlockLabel()
			e.met.Blocks++
			e.record(flightBlock, t)
			return nil
		case StatusDone:
			t.done = true
			e.live--
			return nil
		}
	}
}
