package core

// ComputeGate admits server-side compute. When ServerConfig.Compute is
// set, the server acquires the gate around every back-half forward,
// backward and optimizer step (training, batched inference and eval
// forwards alike) and releases it as soon as the step finishes.
//
// The gate lets a caller observe or pace the server's math without
// touching the protocol: the benchmark's traced runs time every
// compute step through it. The gate never reorders anything —
// compute still runs on the session goroutine, in protocol order — so
// a gated session's weights are bit-identical to an ungated one.
//
// Acquire may block; it returns the matching release function. A gate
// is called from the session goroutine only, and acquisitions are
// never nested.
type ComputeGate interface {
	Acquire() (release func())
}

// acquireCompute enters the configured compute gate, or no-ops when
// the server runs ungated (the single-session default).
func (s *Server) acquireCompute() (release func()) {
	if s.cfg.Compute == nil {
		return func() {}
	}
	return s.cfg.Compute.Acquire()
}
