package noc

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/catnap-noc/catnap/internal/topology"
)

// Reset-completeness test: a dirtied network rewound by Reset is walked
// field by field against a freshly constructed one, through every nested
// Subnet, Router, and NI. Any field that differs must appear in the
// explicit allowlist below with the reason it is exempt; a new struct
// field that Reset forgets therefore fails here with its exact path,
// before it ever corrupts a reused simulator.

// resetAllowlist maps "Type.field" to the reason the field is allowed to
// differ between a fresh network and a reset one. Everything else must
// compare equal.
var resetAllowlist = map[string]string{
	"Subnet.net": "back-pointer to the owning network",
	"Router.sub": "back-pointer to the owning subnet",
	"NI.net":     "back-pointer to the owning network",
	"NI.free":    "packet freelist retained deliberately; NewPacket overwrites every field of a recycled packet",
}

// coverageConfig is a small mesh that still exercises multiple subnets,
// regions, and VCs.
func coverageConfig() Config {
	return Config{
		Rows: 4, Cols: 4, TilesPerNode: 4, RegionDim: 2,
		Subnets: 2, LinkWidthBits: 128,
		VCs: 2, VCDepth: 4, InjQueueFlits: 16,
		RouterDelay: 2, LinkDelay: 1, CreditDelay: 1,
		TWakeup: 10, WakeupHidden: 3, TIdleDetect: 4, TBreakeven: 12,
	}
}

// covSelector is a minimal deterministic selector (internal tests cannot
// import internal/core — it depends on this package).
type covSelector struct{ next int }

func (s *covSelector) Select(now int64, node int, pkt *Packet, ready []bool) int {
	for i := range ready {
		k := (s.next + i) % len(ready)
		if ready[k] {
			s.next = (k + 1) % len(ready)
			return k
		}
	}
	return -1
}

// covGating lets every router sleep immediately and never wakes one
// proactively, so the dirty run accumulates power-gating state.
type covGating struct{}

func (covGating) AllowSleep(now int64, subnet, node int, idle int64) bool { return true }
func (covGating) WantWake(now int64, subnet, node int) bool               { return false }

// covObserver and covTracer dirty the hook slots.
type covObserver struct{}

func (covObserver) AfterCycle(now int64) {}

type covTracer struct{}

func (covTracer) RouterSlept(now int64, subnet, node int, idle int64)           {}
func (covTracer) RouterWoke(now int64, subnet, node int, c WakeCause, sl int64) {}

// dirtyNetwork builds a network and drives it hard across the mutable
// surface: packets in flight, packet recycling, gating transitions,
// observers, sinks, and a tracer installed.
func dirtyNetwork(t *testing.T) *Network {
	t.Helper()
	cfg := coverageConfig()
	net, err := New(cfg, &covSelector{})
	if err != nil {
		t.Fatal(err)
	}
	net.SetGatingPolicy(covGating{})
	net.AddObserver(covObserver{})
	net.SetPowerTracer(covTracer{})
	net.AddSink(func(now int64, p *Packet) {})
	net.SetExecMode(ExecMode{PacketRecycling: true})
	nodes := cfg.Nodes()
	for c := 0; c < 400; c++ {
		if c < 300 && c%2 == 0 {
			src := (c * 5) % nodes
			net.NewPacket(src, (src+7)%nodes, 0, 256)
		}
		net.Step()
	}
	return net
}

// TestResetCoverage compares a dirtied-then-Reset network against a
// fresh one field by field and enforces the allowlist.
func TestResetCoverage(t *testing.T) {
	cfg := coverageConfig()
	fresh, err := New(cfg, &covSelector{})
	if err != nil {
		t.Fatal(err)
	}
	reused := dirtyNetwork(t)
	if err := reused.Reset(cfg, &covSelector{}); err != nil {
		t.Fatal(err)
	}

	w := &resetWalker{t: t, seen: map[[2]uintptr]bool{}, hit: map[string]bool{}}
	w.walkStruct("Network", reflect.ValueOf(fresh).Elem(), reflect.ValueOf(reused).Elem())

	// Every allowlist entry must still name a real field, so renames and
	// removals cannot leave stale exemptions behind.
	types := map[string]reflect.Type{
		"Network": reflect.TypeOf(Network{}),
		"Subnet":  reflect.TypeOf(Subnet{}),
		"Router":  reflect.TypeOf(Router{}),
		"NI":      reflect.TypeOf(NI{}),
	}
	for key, why := range resetAllowlist {
		tn, fn, ok := strings.Cut(key, ".")
		if !ok {
			t.Fatalf("malformed allowlist key %q", key)
		}
		st, ok := types[tn]
		if !ok {
			t.Errorf("allowlist key %q names unknown type %q (%s)", key, tn, why)
			continue
		}
		if _, ok := st.FieldByName(fn); !ok {
			t.Errorf("allowlist key %q names a field that no longer exists (%s)", key, why)
		}
	}
}

// resetWalker compares two object graphs, reporting the path of every
// divergence not covered by the allowlist.
type resetWalker struct {
	t    *testing.T
	seen map[[2]uintptr]bool
	hit  map[string]bool // allowlist entries actually consulted
}

// walkStruct compares the fields of the named struct type, applying the
// allowlist keyed on the type's short name.
func (w *resetWalker) walkStruct(path string, a, b reflect.Value) {
	typeName := a.Type().Name()
	for i := 0; i < a.NumField(); i++ {
		f := a.Type().Field(i)
		key := typeName + "." + f.Name
		fieldPath := path + "." + f.Name
		if _, ok := resetAllowlist[key]; ok {
			w.hit[key] = true
			continue
		}
		w.compare(fieldPath, a.Field(i), b.Field(i))
	}
}

// compare recursively compares two values of the same type, descending
// into the four reset-covered struct types via walkStruct (so their
// allowlists apply at any depth) and into everything else structurally.
func (w *resetWalker) compare(path string, a, b reflect.Value) {
	switch a.Kind() {
	case reflect.Ptr:
		if a.IsNil() != b.IsNil() {
			w.t.Errorf("%s: nil-ness differs (fresh nil=%t, reset nil=%t)", path, a.IsNil(), b.IsNil())
			return
		}
		if a.IsNil() {
			return
		}
		pair := [2]uintptr{a.Pointer(), b.Pointer()}
		if w.seen[pair] {
			return
		}
		w.seen[pair] = true
		w.compare(path, a.Elem(), b.Elem())
	case reflect.Interface:
		if a.IsNil() != b.IsNil() {
			w.t.Errorf("%s: interface nil-ness differs", path)
			return
		}
		if a.IsNil() {
			return
		}
		if a.Elem().Type() != b.Elem().Type() {
			w.t.Errorf("%s: interface dynamic types differ: %v vs %v", path, a.Elem().Type(), b.Elem().Type())
			return
		}
		w.compare(path, a.Elem(), b.Elem())
	case reflect.Struct:
		switch a.Type() {
		case reflect.TypeOf(Network{}), reflect.TypeOf(Subnet{}), reflect.TypeOf(Router{}), reflect.TypeOf(NI{}):
			w.walkStruct(path, a, b)
			return
		}
		for i := 0; i < a.NumField(); i++ {
			w.compare(path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i))
		}
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			// Capacity-retaining resets may leave a longer all-zero slice
			// where a fresh network has none (e.g. a drained queue ring);
			// that is state-equivalent.
			if allZero(a) && allZero(b) {
				return
			}
			w.t.Errorf("%s: lengths differ (fresh %d, reset %d)", path, a.Len(), b.Len())
			return
		}
		for i := 0; i < a.Len(); i++ {
			w.compare(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i))
		}
	case reflect.Map:
		if a.Len() != b.Len() {
			w.t.Errorf("%s: map lengths differ", path)
			return
		}
		iter := a.MapRange()
		for iter.Next() {
			bv := b.MapIndex(iter.Key())
			if !bv.IsValid() {
				w.t.Errorf("%s: key %v missing on reset side", path, iter.Key())
				continue
			}
			w.compare(fmt.Sprintf("%s[%v]", path, iter.Key()), iter.Value(), bv)
		}
	case reflect.Func, reflect.Chan:
		if a.IsNil() != b.IsNil() {
			w.t.Errorf("%s: %v nil-ness differs — add it to the allowlist if retention is intended", path, a.Kind())
		} else if !a.IsNil() {
			w.t.Errorf("%s: non-nil %v is not comparable — reset must clear it or the field needs an allowlist entry", path, a.Kind())
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			w.t.Errorf("%s: fresh %t, reset %t", path, a.Bool(), b.Bool())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			w.t.Errorf("%s: fresh %d, reset %d", path, a.Int(), b.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			w.t.Errorf("%s: fresh %d, reset %d", path, a.Uint(), b.Uint())
		}
	case reflect.Float32, reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			w.t.Errorf("%s: fresh %v, reset %v", path, a.Float(), b.Float())
		}
	case reflect.String:
		if a.String() != b.String() {
			w.t.Errorf("%s: fresh %q, reset %q", path, a.String(), b.String())
		}
	default:
		w.t.Errorf("%s: unhandled kind %v in reset coverage walk", path, a.Kind())
	}
}

// allZero reports whether every element of the slice/array is its type's
// zero value.
func allZero(v reflect.Value) bool {
	for i := 0; i < v.Len(); i++ {
		if !v.Index(i).IsZero() {
			return false
		}
	}
	return true
}

// TestResetSharesPrecompute pins the shared immutable precompute: two
// networks of the same shape must point at the same cached topology and
// feeder table, and a reset to a different shape must swap, not mutate.
func TestResetSharesPrecompute(t *testing.T) {
	cfg := coverageConfig()
	a, err := New(cfg, &covSelector{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg, &covSelector{})
	if err != nil {
		t.Fatal(err)
	}
	if a.pre != b.pre {
		t.Error("same-shape networks do not share one precompute instance")
	}
	for s := 0; s < a.Subnets(); s++ {
		if &a.Subnet(s).feeder[0] != &b.pre.feeder[0] {
			t.Errorf("subnet %d feeder does not alias the shared precompute", s)
		}
	}

	big := coverageConfig()
	big.Rows, big.Cols, big.RegionDim = 8, 8, 4
	old := a.pre
	if err := a.Reset(big, &covSelector{}); err != nil {
		t.Fatal(err)
	}
	if a.pre == old {
		t.Error("reset to a different shape kept the old precompute")
	}
	if err := a.Reset(cfg, &covSelector{}); err != nil {
		t.Fatal(err)
	}
	if a.pre != old {
		t.Error("reset back to the original shape did not rehit the precompute cache")
	}
	var _ topology.Topology = a.topo
}
