package noc

// ExecMode is the network's complete execution-mode configuration: every
// knob that changes *how* a simulation executes without changing *what* it
// computes. All combinations produce bit-identical results (the
// differential suites assert it); the knobs trade constant factors.
// ReferenceScan is the differential oracle the suites compare the
// incremental path against; IdleSkip is armed by every Simulator.
//
// The zero value is the conservative reference-friendly default:
// incremental stepping, no idle fast-forward.
type ExecMode struct {
	// ReferenceScan selects the retained O(nodes) scan-based stepping
	// path instead of the incremental O(active) one. It also disables
	// idle fast-forward: the reference path is the baseline the skipping
	// path is differenced against. A congestion.Detector over the
	// network follows this setting with its own full-mesh scan.
	ReferenceScan bool
	// IdleSkip arms event-driven idle fast-forward: when the network is
	// fully quiescent, TrySkipIdle jumps simulated time directly to the
	// next staged event instead of stepping empty cycles one by one.
	IdleSkip bool
}

// SetExecMode applies an execution mode atomically; it is the single
// execution-configuration surface. Mid-run flips are supported:
// idle-streak representations are converted and sleep checks re-armed as
// part of the transition.
//
// Stepping is sequential in every mode: GatingPolicy, PowerTracer, and
// sink callbacks all run on the goroutine calling Step.
func (n *Network) SetExecMode(m ExecMode) {
	n.idleSkip = m.IdleSkip
	n.applyReferenceScan(m.ReferenceScan)
}

// ExecMode returns the currently applied execution mode.
func (n *Network) ExecMode() ExecMode {
	return ExecMode{ReferenceScan: n.refScan, IdleSkip: n.idleSkip}
}
