package core

import (
	"errors"
	"fmt"
)

// FieldError reports one invalid Config field. Validate returns all of
// them joined, so a caller fixing a hand-built config sees every problem
// at once, and the CLIs can map fields back to flag names.
type FieldError struct {
	Field  string // Config field name, e.g. "Cores"
	Reason string
}

func (e *FieldError) Error() string { return "core: config." + e.Field + ": " + e.Reason }

// FieldErrors extracts every *FieldError from a Validate result (which
// is an errors.Join of them). Nil input yields nil.
func FieldErrors(err error) []*FieldError {
	if err == nil {
		return nil
	}
	var out []*FieldError
	if joined, ok := err.(interface{ Unwrap() []error }); ok {
		for _, e := range joined.Unwrap() {
			out = append(out, FieldErrors(e)...)
		}
		return out
	}
	var fe *FieldError
	if errors.As(err, &fe) {
		out = append(out, fe)
	}
	return out
}

// RunPanicError wraps a panic recovered by System.Run whose value was
// not already an error — a Setup or Verify bug on the driving goroutine.
// (Task-goroutine panics arrive as *sim.TaskPanicError instead.)
type RunPanicError struct{ Value any }

func (e *RunPanicError) Error() string { return fmt.Sprintf("core: run panicked: %v", e.Value) }

// ConservationError reports a core whose cycle-ledger classes do not sum
// exactly to its finish time: code moved the core's clock without
// charging a class, or charged a class without moving the clock. That
// is a simulator bug, so it fails the run the same way every time.
type ConservationError struct {
	Core int
	Gap  int64 // classes minus finish time, in femtoseconds
}

func (e *ConservationError) Error() string {
	return fmt.Sprintf("core: core %d cycle classes differ from its finish time by %d fs", e.Core, e.Gap)
}

// Validate checks the configuration before any machine is assembled —
// and therefore before any goroutine spawns: a config error must be a
// typed, synchronous result, never a panic out of a half-built engine.
// It returns nil or an errors.Join of *FieldError values covering every
// invalid field.
func (c Config) Validate() error {
	var errs []error
	add := func(field, format string, args ...any) {
		errs = append(errs, &FieldError{Field: field, Reason: fmt.Sprintf(format, args...)})
	}
	switch c.Model {
	case CC, STR, INC:
	default:
		add("Model", "unknown model %d (want CC, STR or INC)", int(c.Model))
	}
	if c.Cores <= 0 || c.Cores > 64 {
		add("Cores", "must be in 1..64 (got %d)", c.Cores)
	}
	if c.CoreMHz == 0 {
		add("CoreMHz", "must be positive; start from DefaultConfig")
	}
	if c.PrefetchDepth < 0 {
		add("PrefetchDepth", "must be non-negative (got %d)", c.PrefetchDepth)
	}
	// The prefetcher, store policy and snoop filter live in the CC
	// protocol layer; on other models they would silently do nothing,
	// which is a mistake to report, not to shrug off.
	if c.Model == STR || c.Model == INC {
		if c.PrefetchDepth > 0 {
			add("PrefetchDepth", "only applies to model CC (got model %s)", c.Model)
		}
		if c.NoWriteAllocate {
			add("NoWriteAllocate", "only applies to model CC (got model %s)", c.Model)
		}
		if c.SnoopFilter {
			add("SnoopFilter", "only applies to model CC (got model %s)", c.Model)
		}
	}
	for _, n := range []struct {
		field string
		v     int
	}{
		{"L2Banks", c.L2Banks},
		{"DRAMChannels", c.DRAMChannels},
		{"CoresPerCluster", c.CoresPerCluster},
		{"DMAOutstanding", c.DMAOutstanding},
		{"StoreBuffer", c.StoreBuffer},
	} {
		if n.v < 0 {
			add(n.field, "must be non-negative (got %d; 0 means the Table 2 default)", n.v)
		}
	}
	if c.FlightRecorder < 0 {
		add("FlightRecorder", "must be non-negative (got %d; 0 disables the recorder)", c.FlightRecorder)
	}
	if len(errs) == 0 {
		return nil
	}
	return errors.Join(errs...)
}
