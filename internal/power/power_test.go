package power

import (
	"math"
	"testing"

	"github.com/catnap-noc/catnap/internal/noc"
)

func paperConfig(subnets int) *noc.Config {
	return &noc.Config{
		Rows: 8, Cols: 8, TilesPerNode: 4, RegionDim: 4,
		Subnets: subnets, LinkWidthBits: 512 / subnets,
		VCs: 4, VCDepth: 4, InjQueueFlits: 16,
		RouterDelay: 2, LinkDelay: 1, CreditDelay: 1,
		TWakeup: 10, WakeupHidden: 3, TIdleDetect: 4, TBreakeven: 12,
	}
}

// TestStaticPowerAnchors pins the calibration to the paper's reported
// ~25 W network static power for both evaluated designs (§6.2).
func TestStaticPowerAnchors(t *testing.T) {
	p := DefaultParams()
	single := NewModel(p, paperConfig(1), 0.750)
	multi := NewModel(p, paperConfig(4), 0.625)

	if s := single.StaticPower(); s < 23.5 || s > 26.5 {
		t.Errorf("Single-NoC static power = %.2f W, want ~25 W", s)
	}
	if s := multi.StaticPower(); s < 22.0 || s > 27.0 {
		t.Errorf("Multi-NoC static power = %.2f W, want ~25 W", s)
	}
}

// TestFig7Shape checks the Figure 7 relationships: at the near-saturation
// operating point, Multi-NoC at equal voltage is no more power-hungry than
// Single-NoC, and voltage scaling gives Multi-NoC a clear dynamic win.
func TestFig7Shape(t *testing.T) {
	p := DefaultParams()
	single := NewModel(p, paperConfig(1), 0.750).AnalyticLoadPoint(0.5, 0.15)
	multiHi := NewModel(p, paperConfig(4), 0.750).AnalyticLoadPoint(0.5, 0.15)
	multiLo := NewModel(p, paperConfig(4), 0.625).AnalyticLoadPoint(0.5, 0.15)

	if single.Total < 55 || single.Total > 80 {
		t.Errorf("Single-NoC @0.5 load = %.1f W, want ~70 W (Fig 7)", single.Total)
	}
	if multiHi.Total > single.Total*1.05 {
		t.Errorf("Multi-NoC @0.750V (%.1f W) should not exceed Single-NoC (%.1f W)", multiHi.Total, single.Total)
	}
	if multiLo.Total > multiHi.Total*0.90 {
		t.Errorf("voltage scaling should cut Multi-NoC power: %.1f W vs %.1f W", multiLo.Total, multiHi.Total)
	}
	// The crossbar component must shrink superlinearly with width.
	if multiHi.Crossbar > single.Crossbar/2 {
		t.Errorf("narrow crossbars should be far cheaper: multi=%.1f single=%.1f", multiHi.Crossbar, single.Crossbar)
	}
	// Aggregate buffer energy is width-independent at equal voltage.
	if r := multiHi.Buffer / single.Buffer; r < 0.95 || r > 1.05 {
		t.Errorf("buffer power ratio = %.2f, want ~1 (aggregate bits constant)", r)
	}
	// Multi-NoC pays the 12%% link layout overhead at equal voltage.
	if r := multiHi.Link / single.Link; r < 1.05 || r > 1.20 {
		t.Errorf("link power ratio = %.2f, want ~1.12", r)
	}
}

// TestTable2Reproduced checks the four frequency/voltage pairs.
func TestTable2Reproduced(t *testing.T) {
	p := DefaultParams()
	want := map[[2]int]float64{ // {width, mV} -> GHz
		{512, 750}: 2.0,
		{512, 625}: 1.4,
		{128, 750}: 2.9,
		{128, 625}: 2.0,
	}
	for k, ghz := range want {
		got := p.FrequencyGHz(k[0], float64(k[1])/1000)
		if math.Abs(got-ghz) > 0.07 {
			t.Errorf("FrequencyGHz(%db, %dmV) = %.3f, want %.1f", k[0], k[1], got, ghz)
		}
	}
	// The §5.2 conclusion: a 128-bit router reaches 2 GHz at a lower
	// voltage than a 512-bit router.
	v128, ok1 := p.MinVoltageFor(128, 2.0)
	v512, ok2 := p.MinVoltageFor(512, 2.0)
	if !ok1 || !ok2 || v128 >= v512 {
		t.Errorf("MinVoltageFor: 128b=%v(%.3f) 512b=%v(%.3f), want 128b lower", ok1, v128, ok2, v512)
	}
}

// TestMeasureGatingAccounting verifies the measured static power drops
// with sleep cycles and that gating transitions are charged.
func TestMeasureGatingAccounting(t *testing.T) {
	p := DefaultParams()
	m := NewModel(p, paperConfig(4), 0.625)
	cycles := int64(10000)
	routers := int64(64 * 4)

	allActive := noc.PowerEvents{ActiveRouterCycles: cycles * routers}
	halfAsleep := noc.PowerEvents{
		ActiveRouterCycles: cycles * routers / 2,
		GatingTransitions:  100,
	}
	a := m.Measure(allActive, cycles, 12, 0)
	h := m.Measure(halfAsleep, cycles, 12, 0)
	if h.Static >= a.Static {
		t.Errorf("sleeping half the router-cycles should cut static power: %.2f vs %.2f", h.Static, a.Static)
	}
	if h.Gating <= 0 {
		t.Error("gating transitions should carry an energy cost")
	}
	// NI leakage floor: static never reaches zero even fully gated.
	zero := m.Measure(noc.PowerEvents{}, cycles, 12, 0)
	if zero.Static <= 0 {
		t.Error("NI leakage should persist when routers sleep")
	}
	if zero.Static >= a.Static/4 {
		t.Errorf("fully gated static (%.2f) should be far below active (%.2f)", zero.Static, a.Static)
	}
}

// TestBreakevenCost: a sleep period shorter than T-breakeven must cost
// more energy than staying awake — the trade CSC captures.
func TestBreakevenCost(t *testing.T) {
	p := DefaultParams()
	m := NewModel(p, paperConfig(4), 0.625)
	leak := m.RouterLeakPJ()
	// A 5-cycle sleep (below break-even 12) with one transition: leakage
	// saved is 5 cycles' worth, the transition costs 12 cycles' worth.
	saved := 5 * leak
	paid := 12 * leak
	if paid <= saved {
		t.Fatalf("5-cycle sleep should not break even: paid %.1f pJ vs saved %.1f pJ", paid, saved)
	}
	// And the model's Measure must charge exactly that transition cost.
	short := noc.PowerEvents{GatingTransitions: 1}
	b := m.Measure(short, 5, 12, 0)
	wantGatingW := paid * 1e-12 * p.FreqHz / 5
	if math.Abs(b.Gating-wantGatingW) > wantGatingW*1e-9 {
		t.Errorf("gating power = %v W, want %v W", b.Gating, wantGatingW)
	}
}
