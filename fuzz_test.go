package catnap

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"github.com/catnap-noc/catnap/internal/congestion"
	"github.com/catnap-noc/catnap/internal/traffic"
)

// fuzzField is one Config field FuzzNewConfig sets: a fuzz byte picks its
// value from opts. Each list holds zero (take the default), a negative
// value, in-range values and an out-of-range one. Rows and Cols leave
// zero out, because its default (8) would lift the mesh past the 5x5 cap
// that keeps each execution in milliseconds; their option 0 is 4, every
// other field's is 0.
type fuzzField struct {
	name string
	opts []float64
	set  func(c *Config, v float64)
}

var fuzzFields = []fuzzField{
	{"Rows", []float64{4, 1, 2, 3, 5, -1}, func(c *Config, v float64) { c.Rows = int(v) }},
	{"Cols", []float64{4, 1, 2, 3, 5, -1}, func(c *Config, v float64) { c.Cols = int(v) }},
	{"TilesPerNode", []float64{0, 1, 4, -1}, func(c *Config, v float64) { c.TilesPerNode = int(v) }},
	{"RegionDim", []float64{0, 1, 2, 4, 5, -1}, func(c *Config, v float64) { c.RegionDim = int(v) }},
	{"Torus", []float64{0, 1}, func(c *Config, v float64) { c.Torus = v != 0 }},
	{"FBfly", []float64{0, 1}, func(c *Config, v float64) { c.FBfly = v != 0 }},
	{"Subnets", []float64{0, 1, 2, 4, 8, -1}, func(c *Config, v float64) { c.Subnets = int(v) }},
	{"LinkWidthBits", []float64{0, 64, 128, 512, 1, 4096, -64}, func(c *Config, v float64) { c.LinkWidthBits = int(v) }},
	{"VoltageV", []float64{0, 0.625, 0.75, 1, 3, -1, math.NaN(), math.Inf(1)}, func(c *Config, v float64) { c.VoltageV = v }},
	{"VCs", []float64{0, 1, 2, 3, 4, 33, -1}, func(c *Config, v float64) { c.VCs = int(v) }},
	{"VCDepth", []float64{0, 1, 4, -1}, func(c *Config, v float64) { c.VCDepth = int(v) }},
	{"InjQueueFlits", []float64{0, 1, 16, -1}, func(c *Config, v float64) { c.InjQueueFlits = int(v) }},
	{"RouterDelay", []float64{0, 1, 3, -1}, func(c *Config, v float64) { c.RouterDelay = int(v) }},
	{"LinkDelay", []float64{0, 1, 3, -1}, func(c *Config, v float64) { c.LinkDelay = int(v) }},
	{"CreditDelay", []float64{0, 2, -1}, func(c *Config, v float64) { c.CreditDelay = int(v) }},
	{"TWakeup", []float64{0, 1, 20, -1}, func(c *Config, v float64) { c.TWakeup = int(v) }},
	{"WakeupHidden", []float64{0, 1, 30, -1}, func(c *Config, v float64) { c.WakeupHidden = int(v) }},
	{"TIdleDetect", []float64{0, 1, 8, -1}, func(c *Config, v float64) { c.TIdleDetect = int(v) }},
	{"TBreakeven", []float64{0, 1, 30, -1}, func(c *Config, v float64) { c.TBreakeven = int(v) }},
	{"Selector", []float64{0, 1, 2, 3, -1}, func(c *Config, v float64) { c.Selector = SelectorKind(v) }},
	{"Gating", []float64{0, 1, 2, 3, -1}, func(c *Config, v float64) { c.Gating = GatingKind(v) }},
	{"Metric", []float64{0, 1, 2, 3, 4, 5, -1}, func(c *Config, v float64) { c.Metric = congestion.MetricKind(v) }},
	{"MetricThreshold", []float64{0, 0.1, 2, 6, -1, math.NaN()}, func(c *Config, v float64) { c.MetricThreshold = v }},
	{"LocalOnly", []float64{0, 1}, func(c *Config, v float64) { c.LocalOnly = v != 0 }},
	{"AppTraffic", []float64{0, 1}, func(c *Config, v float64) { c.AppTraffic = v != 0 }},
	{"OrderedForward", []float64{0, 1}, func(c *Config, v float64) { c.OrderedForward = v != 0 }},
	{"Seed", []float64{0, 1, 2, 12345}, func(c *Config, v float64) { c.Seed = uint64(v) }},
}

// fuzzConfig decodes fuzz input: byte i picks field i's option, and a
// missing byte picks option 0.
func fuzzConfig(data []byte) Config {
	var cfg Config
	for i, f := range fuzzFields {
		k := 0
		if i < len(data) {
			k = int(data[i]) % len(f.opts)
		}
		f.set(&cfg, f.opts[k])
	}
	return cfg
}

// fuzzSeed encodes the named field values as fuzz input for fuzzConfig;
// every other field takes option 0.
func fuzzSeed(values map[string]float64) []byte {
	data := make([]byte, len(fuzzFields))
	for name, v := range values {
		found := false
		for i, f := range fuzzFields {
			if f.name != name {
				continue
			}
			for k, o := range f.opts {
				if o == v || math.IsNaN(o) && math.IsNaN(v) {
					data[i], found = byte(k), true
				}
			}
		}
		if !found {
			panic(fmt.Sprintf("fuzzSeed: %s=%v is not an option", name, v))
		}
	}
	return data
}

// nonFinite returns the path of the first NaN or infinite float in v, or
// "" when every float is finite.
func nonFinite(v reflect.Value, path string) string {
	switch v.Kind() {
	case reflect.Float64:
		if f := v.Float(); math.IsNaN(f) || math.IsInf(f, 0) {
			return path
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if p := nonFinite(v.Field(i), path+"."+v.Type().Field(i).Name); p != "" {
				return p
			}
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			if p := nonFinite(v.Index(i), fmt.Sprintf("%s[%d]", path, i)); p != "" {
				return p
			}
		}
	}
	return ""
}

// FuzzNewConfig builds a Config from small per-field ranges: New must
// either return an error, or a simulator that runs a 200-cycle synthetic
// burst without a panic and reports finite Results. It asserts no
// liveness property (that every packet eventually drains). The seeds
// include four configurations New used to accept: a negative mesh
// dimension (a panic inside construction), a non-positive or non-finite
// supply voltage (non-finite power), AppTraffic VC masks with no VC below
// VCs (response and ack classes that can never allocate a VC), and a
// one-node mesh (a panic picking a uniform-random destination).
func FuzzNewConfig(f *testing.F) {
	f.Add(fuzzSeed(nil))
	f.Add(fuzzSeed(map[string]float64{"Rows": -1}))
	f.Add(fuzzSeed(map[string]float64{"VoltageV": -1}))
	f.Add(fuzzSeed(map[string]float64{"VoltageV": math.NaN()}))
	f.Add(fuzzSeed(map[string]float64{"VoltageV": math.Inf(1)}))
	f.Add(fuzzSeed(map[string]float64{"AppTraffic": 1, "VCs": 2}))
	f.Add(fuzzSeed(map[string]float64{"Rows": 1, "Cols": 1}))
	f.Add(fuzzSeed(map[string]float64{"Subnets": 4, "LinkWidthBits": 128, "Selector": 2, "Gating": 2}))
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := fuzzConfig(data)
		sim, err := New(cfg)
		if err != nil {
			return
		}
		res := sim.RunSynthetic(traffic.UniformRandom{}, traffic.Constant(0.3), 0, 200)
		if p := nonFinite(reflect.ValueOf(res), "Results"); p != "" {
			t.Fatalf("%s is not finite for %+v", p, cfg)
		}
	})
}
