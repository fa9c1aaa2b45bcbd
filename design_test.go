package catnap

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/catnap-noc/catnap/internal/power"
)

// TestDesignOperatingPoints pins the supply voltage every registered
// design resolves to, and the Table 2 solve behind it at every power-of-two
// width from 16 to 1024 bits and 1, 2 and 3 GHz. The values are exact: the
// solve scans a 5 mV grid, so any change in how or when a design resolves
// its voltage shows here as a changed operating point.
func TestDesignOperatingPoints(t *testing.T) {
	want := map[string]float64{
		"1NT-128b":          0.625,
		"1NT-128b-PG":       0.625,
		"1NT-512b":          0.75,
		"1NT-512b-PG":       0.75,
		"1NT-512b-fbfly":    0.75,
		"1NT-512b-torus":    0.75,
		"2NT-256b":          0.665,
		"4NT-128b":          0.625,
		"4NT-128b-PG":       0.625,
		"4NT-128b-PG-RR":    0.625,
		"4NT-128b-PG-fbfly": 0.625,
		"4NT-128b-PG-torus": 0.625,
		"64c-1NT-256b-PG":   0.665,
		"64c-2NT-128b-PG":   0.625,
		"8NT-64b":           0.605,
	}
	names := Designs()
	if len(names) != len(want) {
		t.Errorf("%d designs registered, want %d: %v", len(names), len(want), names)
	}
	for _, n := range names {
		v, ok := want[n]
		if !ok {
			t.Errorf("design %q has no pinned voltage", n)
			continue
		}
		if got := mustDesign(n).VoltageV; got != v {
			t.Errorf("Design(%q).VoltageV = %v, want %v", n, got, v)
		}
	}

	p := power.DefaultParams()
	for _, c := range []struct {
		width int
		ghz   float64
		v     float64
		ok    bool
	}{
		{16, 1, 0.485, true}, {32, 1, 0.49, true}, {64, 1, 0.495, true},
		{128, 1, 0.5, true}, {256, 1, 0.52, true}, {512, 1, 0.555, true},
		{1024, 1, 0.63, true},
		{16, 2, 0.59, true}, {32, 2, 0.595, true}, {64, 2, 0.605, true},
		{128, 2, 0.625, true}, {256, 2, 0.665, true}, {512, 2, 0.75, true},
		{1024, 2, 0.97, true},
		{16, 3, 0.71, true}, {32, 3, 0.715, true}, {64, 3, 0.735, true},
		{128, 3, 0.77, true}, {256, 3, 0.845, true}, {512, 3, 1.025, true},
		{1024, 3, 0, false},
	} {
		if v, ok := p.MinVoltageFor(c.width, c.ghz); v != c.v || ok != c.ok {
			t.Errorf("MinVoltageFor(%d, %v) = %v, %v; want %v, %v", c.width, c.ghz, v, ok, c.v, c.ok)
		}
	}
}

// TestDesignAllocFree pins that looking a design up allocates nothing:
// sweeps call Design once per point.
func TestDesignAllocFree(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() {
		if _, err := Design("4NT-128b-PG"); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Design allocates %v times per call, want 0", n)
	}
}

// TestDesignReturnsCopy pins that a caller's edits to the config Design
// returned never reach the next caller. Design hands out copies of one
// resolved value per design, so Config must stay free of fields that
// share memory between copies.
func TestDesignReturnsCopy(t *testing.T) {
	ct := reflect.TypeOf(Config{})
	for i := 0; i < ct.NumField(); i++ {
		if f := ct.Field(i); sharesMemory(f.Type) {
			t.Errorf("Config.%s (%s) would be shared by every copy of a design", f.Name, f.Type)
		}
	}
	for _, n := range Designs() {
		want := mustDesign(n)
		c := mustDesign(n)
		c.Name = "edited"
		c.Subnets = 3
		c.LinkWidthBits = 96
		c.VoltageV = 1.1
		c.Seed = 99
		c.Torus = !c.Torus
		if got := mustDesign(n); got != want {
			t.Errorf("Design(%q) after an edit to an earlier result = %+v, want %+v", n, got, want)
		}
	}
}

// sharesMemory reports whether copies of a value of type t can reach the
// same memory.
func sharesMemory(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Chan, reflect.Func, reflect.Interface, reflect.UnsafePointer:
		return true
	case reflect.Array:
		return sharesMemory(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if sharesMemory(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// designDigest is the SHA-256 of designDump over every registered design.
const designDigest = "ef90cc4c8ced13923a6d3a58b6678aed0116181a8226ec94983cff4a2efc8fe6"

// designDump prints every registered design's 28 fields, one design per
// line. It reads each field by name, so the dump does not depend on how
// Config arranges its fields.
func designDump() string {
	var b strings.Builder
	for _, n := range Designs() {
		c := mustDesign(n)
		fmt.Fprintf(&b, "Name=%v Rows=%v Cols=%v TilesPerNode=%v RegionDim=%v Torus=%v FBfly=%v "+
			"Subnets=%v LinkWidthBits=%v VoltageV=%v VCs=%v VCDepth=%v InjQueueFlits=%v "+
			"RouterDelay=%v LinkDelay=%v CreditDelay=%v "+
			"TWakeup=%v WakeupHidden=%v TIdleDetect=%v TBreakeven=%v "+
			"Selector=%v Gating=%v Metric=%v MetricThreshold=%v LocalOnly=%v "+
			"AppTraffic=%v OrderedForward=%v Seed=%v\n",
			c.Name, c.Rows, c.Cols, c.TilesPerNode, c.RegionDim, c.Torus, c.FBfly,
			c.Subnets, c.LinkWidthBits, c.VoltageV, c.VCs, c.VCDepth, c.InjQueueFlits,
			c.RouterDelay, c.LinkDelay, c.CreditDelay,
			c.TWakeup, c.WakeupHidden, c.TIdleDetect, c.TBreakeven,
			c.Selector, c.Gating, c.Metric, c.MetricThreshold, c.LocalOnly,
			c.AppTraffic, c.OrderedForward, c.Seed)
	}
	return b.String()
}

// TestDesignKnownAnswers pins the value every registered design resolves
// to, field by field: a changed default, a changed design or a design
// added or removed changes the digest. On failure the dump is printed, so
// the changed field can be found by comparing it with the previous one.
func TestDesignKnownAnswers(t *testing.T) {
	dump := designDump()
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(dump))); got != designDigest {
		t.Errorf("design digest %s, want %s; designs:\n%s", got, designDigest, dump)
	}
}
