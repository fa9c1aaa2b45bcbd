package power

import (
	"testing"
	"testing/quick"

	"github.com/catnap-noc/catnap/internal/noc"
)

func cfgFor(subnets, width int) *noc.Config {
	return &noc.Config{
		Rows: 8, Cols: 8, TilesPerNode: 4, RegionDim: 4,
		Subnets: subnets, LinkWidthBits: width,
		VCs: 4, VCDepth: 4, InjQueueFlits: 16,
		RouterDelay: 2, LinkDelay: 1, CreditDelay: 1,
	}
}

// TestPropertyVoltageMonotonic: power never decreases with supply voltage
// (dynamic ∝ V², leakage ∝ V^exp, exp ≥ 0).
func TestPropertyVoltageMonotonic(t *testing.T) {
	p := DefaultParams()
	f := func(widthSel uint8, v1Sel, v2Sel uint8) bool {
		widths := []int{64, 128, 256, 512}
		w := widths[int(widthSel)%4]
		v1 := 0.5 + float64(v1Sel%50)/100 // 0.50..0.99
		v2 := v1 + 0.01 + float64(v2Sel%20)/100
		lo := NewModel(p, cfgFor(1, w), v1)
		hi := NewModel(p, cfgFor(1, w), v2)
		if hi.StaticPower() < lo.StaticPower() {
			return false
		}
		a := lo.AnalyticLoadPoint(0.3, 0.15)
		b := hi.AnalyticLoadPoint(0.3, 0.15)
		return b.Total >= a.Total && b.Dynamic >= a.Dynamic
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPropertyLoadMonotonic: dynamic power never decreases with load.
func TestPropertyLoadMonotonic(t *testing.T) {
	p := DefaultParams()
	m := NewModel(p, cfgFor(4, 128), 0.625)
	prev := -1.0
	for load := 0.0; load <= 1.0; load += 0.05 {
		b := m.AnalyticLoadPoint(load, 0.15)
		if b.Dynamic < prev {
			t.Fatalf("dynamic power decreased at load %.2f", load)
		}
		prev = b.Dynamic
	}
}

// TestPropertyBreakdownNonNegative: every component of every measured
// breakdown is non-negative for arbitrary (consistent) event counts.
func TestPropertyBreakdownNonNegative(t *testing.T) {
	p := DefaultParams()
	m := NewModel(p, cfgFor(4, 128), 0.625)
	f := func(w, x, l, ni, active uint16, trans uint8) bool {
		ev := noc.PowerEvents{
			BufferWrites: int64(w), XbarTraversals: int64(x),
			LinkTraversals: int64(l), NIFlits: int64(ni),
			ActiveRouterCycles: int64(active), GatingTransitions: int64(trans),
		}
		b := m.Measure(ev, 1000, 12, int64(trans))
		for _, v := range []float64{b.Buffer, b.Crossbar, b.Control, b.Clock, b.Link, b.NI, b.Static, b.Gating, b.Dynamic, b.Total} {
			if v < 0 {
				return false
			}
		}
		return b.Total >= b.Dynamic && b.Total >= b.Static
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestAggregateBufferInvariance: bandwidth-equivalent designs hold
// aggregate buffer leakage constant — the §2.3 constant-resource rule.
func TestAggregateBufferInvariance(t *testing.T) {
	p := DefaultParams()
	ref := NewModel(p, cfgFor(1, 512), p.Vref)
	refBuf := ref.RouterLeakPJ() // includes non-buffer terms; compare via buffer bits instead
	_ = refBuf
	bitsAt := func(subnets, width int) float64 {
		m := NewModel(p, cfgFor(subnets, width), p.Vref)
		return m.bufferBitsPerRouter() * float64(subnets)
	}
	base := bitsAt(1, 512)
	for _, c := range [][2]int{{2, 256}, {4, 128}, {8, 64}} {
		if got := bitsAt(c[0], c[1]); got != base {
			t.Errorf("%dNT-%db aggregate buffer bits %v != %v", c[0], c[1], got, base)
		}
	}
}

// TestCriticalPathMonotonic: wider crossbars and lower voltages are never
// faster.
func TestCriticalPathMonotonic(t *testing.T) {
	p := DefaultParams()
	f := func(w1Sel, w2Sel, vSel uint8) bool {
		widths := []int{64, 128, 256, 512}
		w1 := widths[int(w1Sel)%4]
		w2 := widths[int(w2Sel)%4]
		if w1 > w2 {
			w1, w2 = w2, w1
		}
		v := 0.5 + float64(vSel%40)/100
		return p.FrequencyGHz(w1, v) >= p.FrequencyGHz(w2, v) &&
			p.FrequencyGHz(w1, v+0.05) >= p.FrequencyGHz(w1, v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestMinVoltageBelowVthImpossible: frequencies are zero at or below the
// threshold voltage, and MinVoltageFor fails for absurd targets.
func TestMinVoltageBelowVthImpossible(t *testing.T) {
	p := DefaultParams()
	if f := p.FrequencyGHz(512, p.Vth); f != 0 {
		t.Errorf("frequency at Vth = %v", f)
	}
	if _, ok := p.MinVoltageFor(512, 100); ok {
		t.Error("100 GHz should be unreachable")
	}
}
