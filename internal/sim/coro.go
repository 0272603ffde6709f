//go:build go1.23

package sim

import (
	"iter"
	"runtime/debug"
)

// Spawn registers fn as a new task starting at time start. It may be called
// before Run or from a running task.
//
// The body runs as an iter.Pull coroutine: the dispatch loop in Run
// resumes it with next, and it hands control back by yielding (Sync's
// slow path, Block) or by returning. A coroutine switch runs the other
// side directly on the same thread, without the scheduler's park and
// wake of a channel handoff. The wrapper recovers a body panic with its
// stack for Run to raise as a *TaskPanicError, and swallows the
// Shutdown sentinel (stop makes yield return false; see Task.suspend).
func (e *Engine) Spawn(name string, start Time, fn func(*Task)) *Task {
	t := e.newTask(name, start)
	t.next, t.stop = iter.Pull(func(yield func(struct{}) bool) {
		t.yield = yield
		defer func() {
			r := recover()
			if r == nil {
				return
			}
			if _, ok := r.(taskAbortSignal); !ok {
				t.fault = &TaskPanicError{TaskName: t.name, Value: r, Stack: string(debug.Stack())}
			}
		}()
		fn(t)
	})
	e.push(t)
	return t
}
