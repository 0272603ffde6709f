package sim

// SetAcquireTap installs (or, with nil, removes) the Acquire observer for
// the external tests. Not safe while any simulation runs.
func SetAcquireTap(f func(s *Server, at, dur Time)) { acquireTap = f }
