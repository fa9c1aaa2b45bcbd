package catnap

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

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
// fail exactly when ApplyDefaults followed by Validate fails, and
// otherwise return a simulator that runs a 200-cycle synthetic burst
// without a panic and reports finite Results. It asserts no liveness
// property (that every packet eventually drains). The seeds
// include four configurations New used to accept: a negative mesh
// dimension (a panic inside construction), a non-positive or non-finite
// supply voltage (non-finite power), AppTraffic with fewer than 4 VCs
// (response and ack classes that can never allocate a VC), and a
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
		resolved := cfg
		resolved.ApplyDefaults()
		verr := resolved.Validate()
		sim, err := New(cfg)
		if (err == nil) != (verr == nil) {
			t.Fatalf("New error %v, but ApplyDefaults then Validate gives %v, for %+v", err, verr, cfg)
		}
		if err != nil {
			return
		}
		res := sim.RunSynthetic(traffic.UniformRandom{}, traffic.Constant(0.3), 0, 200)
		if p := nonFinite(reflect.ValueOf(res), "Results"); p != "" {
			t.Fatalf("%s is not finite for %+v", p, cfg)
		}
	})
}

// optField is one ExperimentOpts field FuzzExperimentOpts sets: a fuzz
// byte picks option k of n, and option 0 is the seeds' baseline.
type optField struct {
	name string
	n    int
	set  func(o *ExperimentOpts, k int)
}

// opt builds an optField whose options are opts.
func opt[T any](name string, opts []T, set func(o *ExperimentOpts, v T)) optField {
	return optField{name, len(opts), func(o *ExperimentOpts, k int) { set(o, opts[k]) }}
}

// loadAt returns a setter for Loads[i] that leaves a shorter list alone.
func loadAt(i int) func(o *ExperimentOpts, v float64) {
	return func(o *ExperimentOpts, v float64) {
		if i < len(o.Loads) {
			o.Loads[i] = v
		}
	}
}

// fuzzLoads are the per-load options: in range, zero, negative, above 1,
// NaN and both infinities.
var fuzzLoads = []float64{0.05, 0, -0.1, 0.3, 1, 1.5, math.NaN(), math.Inf(1), math.Inf(-1)}

// optFields lists the fuzzed fields. Each list holds zero (take the
// default), a negative value, in-range values and an out-of-range one,
// and NaN and ±Inf for floats, with three exceptions that bound one
// execution (the slowest, fig11 at three saturating loads and the
// longest scale on one worker, takes about 2 s on one core): Scale leaves
// zero out (its default is the paper's 15,000-cycle point), Loads always
// holds one to three values (none would select the eleven-load default
// sweep), and Sweep.Jobs stays at 1 or 2 workers (0 means GOMAXPROCS).
var optFields = []optField{
	opt("Scale.Warmup", []int64{100, 1, 300, -1}, func(o *ExperimentOpts, v int64) { o.Scale.Warmup = v }),
	opt("Scale.Measure", []int64{200, 1, 400, -1}, func(o *ExperimentOpts, v int64) { o.Scale.Measure = v }),
	opt("len(Loads)", []int{1, 2, 3}, func(o *ExperimentOpts, n int) { o.Loads = make([]float64, n) }),
	opt("Loads[0]", fuzzLoads, loadAt(0)),
	opt("Loads[1]", fuzzLoads, loadAt(1)),
	opt("Loads[2]", fuzzLoads, loadAt(2)),
	opt("Pattern", []string{"", "transpose", "uniform-random", "no-such-pattern"},
		func(o *ExperimentOpts, v string) { o.Pattern = v }),
	opt("Mixes", [][]string{nil, {"Light"}, {"no-such-mix"}}, func(o *ExperimentOpts, v []string) { o.Mixes = v }),
	opt("Designs", [][]string{nil, {"4NT-128b-PG"}, {"no-such-design"}},
		func(o *ExperimentOpts, v []string) { o.Designs = v }),
	opt("Total", []int64{300, 0, -1, 1000}, func(o *ExperimentOpts, v int64) { o.Total = v }),
	opt("Window", []int64{0, 50, -1, 500, 5000}, func(o *ExperimentOpts, v int64) { o.Window = v }),
	opt("Explore.Load", []float64{0, 0.1, -0.1, 1.5, math.NaN(), math.Inf(1)},
		func(o *ExperimentOpts, v float64) { o.Explore.Load = v }),
	opt("Explore.Budget", []int64{0, 4, -1}, func(o *ExperimentOpts, v int64) { o.Explore.Budget = v }),
	opt("Explore.Batch", []int{0, 8, -1}, func(o *ExperimentOpts, v int) { o.Explore.Batch = v }),
	opt("Explore.ExploreFrac", []float64{0, 0.5, -0.1, 1.5, math.NaN(), math.Inf(1)},
		func(o *ExperimentOpts, v float64) { o.Explore.ExploreFrac = v }),
	opt("Explore.MinAccepted", []float64{0, 0.9, -0.1, 1.5, math.NaN(), math.Inf(-1)},
		func(o *ExperimentOpts, v float64) { o.Explore.MinAccepted = v }),
	opt("Explore.Space", []ExploreSpace{{}, {Subnets: []int{1, 4}}, {Subnets: []int{0}}, {Subnets: []int{2, 2}},
		{Metrics: []string{"no-such-metric"}}, {Thresholds: []float64{math.NaN()}}},
		func(o *ExperimentOpts, v ExploreSpace) { o.Explore.Space = v }),
	opt("Sweep.Jobs", []int{1, 2, -1}, func(o *ExperimentOpts, v int) { o.Sweep.Jobs = v }),
	opt("Sweep.Timeout", []time.Duration{0, time.Minute, -1, time.Nanosecond},
		func(o *ExperimentOpts, v time.Duration) { o.Sweep.Timeout = v }),
}

// fuzzOpts decodes fuzz input: byte i picks field i's option, and a
// missing byte picks option 0.
func fuzzOpts(data []byte) ExperimentOpts {
	var o ExperimentOpts
	for i, f := range optFields {
		k := 0
		if i < len(data) {
			k = int(data[i]) % f.n
		}
		f.set(&o, k)
	}
	return o
}

// optSeed encodes the named option indices as fuzz input for fuzzOpts;
// every other field takes option 0.
func optSeed(picks map[string]int) []byte {
	data := make([]byte, len(optFields))
	for name, k := range picks {
		i := slices.IndexFunc(optFields, func(f optField) bool { return f.name == name })
		if i < 0 || k >= optFields[i].n {
			panic(fmt.Sprintf("optSeed: %s option %d does not exist", name, k))
		}
		data[i] = byte(k)
	}
	return data
}

// FuzzExperimentOpts builds ExperimentOpts from small per-field option
// lists. Validate must not panic, and must name the field it rejects
// (every error begins "catnap: ExperimentOpts."). Accepted options must
// run fig12 and fig11 without a panic, in the experiment itself or in a
// sweep point; an error is fine. explore is not run: with Budget 0 its
// default space makes one execution far too slow.
func FuzzExperimentOpts(f *testing.F) {
	f.Add(optSeed(nil))
	f.Add(optSeed(map[string]int{"Scale.Warmup": 3}))
	f.Add(optSeed(map[string]int{"Loads[0]": 6}))
	f.Add(optSeed(map[string]int{"len(Loads)": 2, "Loads[2]": 7}))
	f.Add(optSeed(map[string]int{"Loads[0]": 4, "Pattern": 1}))
	f.Add(optSeed(map[string]int{"Pattern": 3}))
	f.Add(optSeed(map[string]int{"Mixes": 2}))
	f.Add(optSeed(map[string]int{"Designs": 2}))
	f.Add(optSeed(map[string]int{"Total": 1, "Window": 1}))
	f.Add(optSeed(map[string]int{"Window": 3}))
	f.Add(optSeed(map[string]int{"Explore.Load": 4}))
	f.Add(optSeed(map[string]int{"Explore.ExploreFrac": 5}))
	f.Add(optSeed(map[string]int{"Explore.MinAccepted": 5}))
	f.Add(optSeed(map[string]int{"Explore.Space": 5}))
	f.Add(optSeed(map[string]int{"Sweep.Jobs": 1, "Sweep.Timeout": 3}))
	f.Add(optSeed(map[string]int{"Sweep.Timeout": 2}))
	f.Fuzz(func(t *testing.T, data []byte) {
		o := fuzzOpts(data)
		if err := o.Validate(); err != nil {
			if !strings.HasPrefix(err.Error(), "catnap: ExperimentOpts.") {
				t.Fatalf("rejection does not name its field: %v", err)
			}
			return
		}
		for _, name := range []string{"fig12", "fig11"} {
			_, err := RunExperiment(context.Background(), name, o)
			if err != nil && strings.Contains(err.Error(), "panicked") {
				t.Fatalf("%s panicked for %+v: %v", name, o, err)
			}
		}
	})
}
