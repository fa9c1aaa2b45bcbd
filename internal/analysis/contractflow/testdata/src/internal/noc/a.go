// Package noc is contractflow's golden test package: one example per
// propagation mechanism (direct call, method call, interface call,
// function value), the quiescent-only reachability check rooted at
// (*Network).Step, stale-annotation detection, and call-site
// suppression.
package noc

// --- direct calls -----------------------------------------------------

// Step is a hotpath root; its direct callees must join the closure.
//
//catnap:hotpath
func Step() {
	covered()
	helper() // want `helper is reachable from //catnap:hotpath code \(Step → helper\) but is not annotated`
}

//catnap:hotpath
func covered() {}

func helper() {}

// --- method calls -----------------------------------------------------

type ring struct{ n int }

//catnap:hotpath
func (r *ring) Advance() {
	r.bump() // want `\(\*ring\)\.bump is reachable from //catnap:hotpath code`
}

func (r *ring) bump() { r.n++ }

// --- interface calls (sound over-approximation) -----------------------

type ticker interface{ Tick() }

type clock struct{}

func (clock) Tick() {}

// Drive dispatches through an interface: the closure must cover every
// in-universe implementation with a matching method.
//
//catnap:hotpath
func Drive(t ticker) {
	t.Tick() // want `\(clock\)\.Tick is reachable from //catnap:hotpath code`
}

// --- function values --------------------------------------------------

// Dispatch invokes through a function value: every address-taken
// function with the same signature is a possible callee.
//
//catnap:hotpath
func Dispatch() {
	fn := target
	fn() // want `target is reachable from //catnap:hotpath code \(Dispatch → target\)`
}

func target() {}

// --- suppression prunes the frontier ----------------------------------

//catnap:hotpath
func Grow() {
	//lint:ignore contractflow one-time growth; amortised over the run
	expand()
}

func expand() {}

// --- quiescent-only: never reachable from (*Network).Step --------------

// Network mirrors the simulator's stepping surface: Step runs mid-cycle;
// TrySkipIdle and NextEventCycle run only between cycles.
type Network struct{ now int64 }

// Run interleaves idle skipping with stepping, as the simulator's run
// loop does: quiescent-only calls outside Step are fine.
func (n *Network) Run(end int64) {
	for n.now < end {
		if n.TrySkipIdle(end) == 0 {
			n.Step()
		}
	}
}

// Step is the root of the quiescent-only check; the finding is anchored
// at the first call on the offending path.
func (n *Network) Step() {
	n.observe() // want `//catnap:quiescent-only \(\*Network\)\.drain is reachable from \(\*Network\)\.Step \(\(\*Network\)\.Step → \(\*Network\)\.observe → \(\*Network\)\.drain\)`
	n.now++
}

func (n *Network) observe() {
	if n.now%2 == 0 {
		n.drain()
	}
}

//catnap:quiescent-only assumes the clock sits between cycles
func (n *Network) drain() {}

// TrySkipIdle may call other quiescent-only functions: only what Step
// reaches is checked.
//
//catnap:quiescent-only advances the clock between cycles
func (n *Network) TrySkipIdle(target int64) int64 {
	if at, ok := n.NextEventCycle(); ok && at < target {
		target = at
	}
	k := target - n.now
	n.now = target
	return k
}

//catnap:quiescent-only wheel arithmetic assumes the clock sits between cycles
func (n *Network) NextEventCycle() (int64, bool) { return n.now + 1, true }

// --- stale annotations ------------------------------------------------

// orphan's annotation asserts membership in the hotpath closure, but no
// hotpath function calls it anymore.
//
//catnap:hotpath
func orphan() {} // want `stale //catnap:hotpath on orphan`

// exported functions are never stale: external callers are invisible.
//
//catnap:hotpath
func Exported() {}
