package power

import "math"

// This file models the router critical path (Table 2): for datapaths of
// 256 bits and wider the matrix crossbar dominates the critical path, so
// delay grows with width, and the supply voltage needed to reach a target
// frequency grows with it. This is the §5.2 argument for Multi-NoC's
// dynamic-power advantage: four 128-bit routers reach 2 GHz at 0.625 V
// while one 512-bit router needs 0.750 V, and dynamic power scales with V².

// gateSpeed returns the alpha-power-law drive factor (V−Vth)^α / V,
// normalized by the caller.
func (p *Params) gateSpeed(v float64) float64 {
	if v <= p.Vth {
		return 0
	}
	return math.Pow(v-p.Vth, p.Alpha) / v
}

// CriticalPathNs returns the router critical-path delay in nanoseconds for
// a datapath of widthBits at supply voltage v.
func (p *Params) CriticalPathNs(widthBits int, v float64) float64 {
	base := p.DFixedNs + p.DXbarNs*float64(widthBits)/p.RefWidth
	s := p.gateSpeed(v)
	if s == 0 {
		return math.Inf(1)
	}
	return base * p.gateSpeed(p.Vref) / s
}

// FrequencyGHz returns the maximum router frequency for widthBits at v.
func (p *Params) FrequencyGHz(widthBits int, v float64) float64 {
	d := p.CriticalPathNs(widthBits, v)
	if math.IsInf(d, 1) {
		return 0
	}
	return 1 / d
}

// MinVoltageFor returns the lowest voltage on a 5 mV grid at which a
// router of widthBits reaches targetGHz, searching [Vth+50mV, 1.2 V]. The
// boolean is false when even 1.2 V is insufficient.
func (p *Params) MinVoltageFor(widthBits int, targetGHz float64) (float64, bool) {
	for mv := int(float64((p.Vth+0.05)*1000) + 0.5); mv <= 1200; mv += 5 {
		v := float64(mv) / 1000
		if p.FrequencyGHz(widthBits, v) >= targetGHz {
			return v, true
		}
	}
	return 0, false
}

// Table2Row is one row of Table 2.
type Table2Row struct {
	Design    string
	WidthBits int
	FreqGHz   float64
	VoltV     float64
}

// Table2 reproduces the paper's Table 2: the frequencies achievable by
// 512-bit and 128-bit routers at 0.750 V and 0.625 V.
func (p *Params) Table2() []Table2Row {
	rows := []Table2Row{
		{"Single-NoC", 512, 0, 0.750},
		{"Single-NoC", 512, 0, 0.625},
		{"Multi-NoC", 128, 0, 0.750},
		{"Multi-NoC", 128, 0, 0.625},
	}
	for i := range rows {
		rows[i].FreqGHz = p.FrequencyGHz(rows[i].WidthBits, rows[i].VoltV)
	}
	return rows
}
