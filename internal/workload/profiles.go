// Package workload defines the 35 application profiles and the four
// multiprogrammed workload mixes of the paper's Table 3.
//
// The paper drives its simulator with Pin-collected instruction traces of
// SPEC CPU2006, SPLASH-2, SpecOMP and four commercial applications. Those
// traces are proprietary, so this reproduction substitutes per-benchmark
// *statistical profiles*: miss rates (the only thing the network ever sees
// from a trace), phase burstiness, and coherence behaviour. Profile MPKI
// values are calibrated so that each Table 3 mix reproduces the paper's
// reported average MPKI exactly (Light 3.9, Medium-Light 7.8, Medium-Heavy
// 11.7, Heavy 39.0, where a benchmark's MPKI is its L1-MPKI + L2-MPKI);
// individual values are plausible for the benchmark but are synthetic —
// see DESIGN.md §2.
package workload

import "fmt"

// Profile is the statistical description of one application's memory
// behaviour, replayed by the closed-loop core model (internal/cpusim).
type Profile struct {
	// Name is the benchmark's conventional name.
	Name string
	// Suite records the benchmark's origin (documentation only).
	Suite string
	// L1MPKI is the L1 misses per kilo-instruction: every one is a
	// network request to the block's L2 home node.
	L1MPKI float64
	// L2MPKI is the L2 misses per kilo-instruction: the subset of L1
	// misses that also miss the distributed L2 and go to memory.
	L2MPKI float64
	// BurstRatio is the high-phase to low-phase MPKI ratio; applications
	// with strong phase behaviour (§1: "bursty network traffic") have
	// large ratios. 1 disables phases.
	BurstRatio float64
	// BurstFrac is the long-run fraction of time spent in the high phase.
	BurstFrac float64
	// WriteFrac is the fraction of misses that are stores (GetM); they
	// produce writeback traffic on eviction.
	WriteFrac float64
	// SharedFrac is the fraction of misses to blocks owned by another
	// core's L1, requiring the 4-hop forward path through the directory.
	SharedFrac float64
	// PeakIPC is the core's instruction throughput when no miss stalls it
	// (≤ the 2-wide issue width).
	PeakIPC float64
}

// MPKI returns the benchmark's total misses per kilo-instruction, the
// quantity Table 3 averages (L1-MPKI + L2-MPKI).
func (p *Profile) MPKI() float64 { return p.L1MPKI + p.L2MPKI }

// profile builds a Profile from a total MPKI (the Table 3 quantity,
// L1-MPKI + L2-MPKI) and an L2-miss ratio (the fraction of L1 misses that
// also miss the L2, so L2MPKI = ratio × L1MPKI and L2 ⊆ L1 always holds).
func profile(name, suite string, totalMPKI, l2Ratio, burstRatio, burstFrac, writeFrac, sharedFrac, peakIPC float64) Profile {
	return Profile{
		Name:       name,
		Suite:      suite,
		L1MPKI:     totalMPKI / (1 + l2Ratio),
		L2MPKI:     totalMPKI * l2Ratio / (1 + l2Ratio),
		BurstRatio: burstRatio,
		BurstFrac:  burstFrac,
		WriteFrac:  writeFrac,
		SharedFrac: sharedFrac,
		PeakIPC:    peakIPC,
	}
}

// Profiles is the library of 35 applications (SPEC CPU2006, SPEC
// CPU2000/OMP, SPLASH-2, and the four commercial workloads). MPKI totals
// for the 18 benchmarks appearing in Table 3's mixes jointly satisfy the
// four mix-average constraints; the rest are set to representative values.
var Profiles = []Profile{
	// SPEC CPU2006 / CPU2000 benchmarks used in the Table 3 mixes.
	profile("applu", "SPEC", 6.0, 0.25, 4, 0.20, 0.35, 0.10, 1.6),
	profile("gromacs", "SPEC", 1.2, 0.20, 2, 0.15, 0.30, 0.05, 1.9),
	profile("deal", "SPEC", 2.0, 0.20, 2, 0.15, 0.30, 0.05, 1.8),
	profile("hmmer", "SPEC", 1.6, 0.15, 2, 0.10, 0.40, 0.05, 1.9),
	profile("calculix", "SPEC", 1.8, 0.20, 2, 0.15, 0.30, 0.05, 1.8),
	profile("gcc", "SPEC", 6.6, 0.25, 4, 0.20, 0.35, 0.08, 1.5),
	profile("sjeng", "SPEC", 1.5, 0.20, 2, 0.10, 0.30, 0.05, 1.8),
	profile("wrf", "SPEC", 10.5, 0.25, 4, 0.25, 0.35, 0.10, 1.4),
	profile("gobmk", "SPEC", 4.4, 0.20, 3, 0.15, 0.30, 0.05, 1.6),
	profile("h264ref", "SPEC", 8.5, 0.22, 3, 0.20, 0.35, 0.08, 1.5),
	profile("sphinx", "SPEC", 28.0, 0.20, 5, 0.25, 0.30, 0.10, 1.1),
	profile("cactus", "SPEC", 38.0, 0.25, 5, 0.30, 0.35, 0.10, 1.0),
	profile("namd", "SPEC", 5.5, 0.20, 3, 0.15, 0.30, 0.05, 1.7),
	profile("astar", "SPEC", 45.4, 0.22, 5, 0.30, 0.35, 0.10, 0.9),
	profile("mcf", "SPEC", 95.0, 0.25, 6, 0.35, 0.30, 0.10, 0.7),
	profile("tonto", "SPEC", 38.0, 0.20, 4, 0.25, 0.30, 0.08, 1.0),
	// Commercial applications (traced natively in the paper).
	profile("sjas", "commercial", 42.0, 0.22, 6, 0.30, 0.40, 0.25, 0.9),
	profile("tpcw", "commercial", 60.0, 0.22, 6, 0.35, 0.40, 0.25, 0.8),
	profile("sap", "commercial", 35.0, 0.22, 6, 0.30, 0.40, 0.25, 0.9),
	profile("sjbb", "commercial", 30.0, 0.22, 6, 0.30, 0.40, 0.25, 1.0),
	// SPLASH-2.
	profile("barnes", "SPLASH-2", 5.0, 0.25, 3, 0.20, 0.30, 0.30, 1.6),
	profile("cholesky", "SPLASH-2", 8.0, 0.28, 3, 0.20, 0.30, 0.25, 1.4),
	profile("fft", "SPLASH-2", 18.0, 0.30, 4, 0.30, 0.35, 0.20, 1.2),
	profile("fmm", "SPLASH-2", 4.0, 0.25, 3, 0.20, 0.30, 0.25, 1.7),
	profile("lu", "SPLASH-2", 7.0, 0.28, 3, 0.20, 0.30, 0.20, 1.5),
	profile("ocean", "SPLASH-2", 25.0, 0.30, 5, 0.30, 0.35, 0.25, 1.0),
	profile("radiosity", "SPLASH-2", 3.0, 0.20, 2, 0.15, 0.30, 0.30, 1.7),
	profile("radix", "SPLASH-2", 30.0, 0.30, 5, 0.30, 0.40, 0.20, 1.0),
	profile("raytrace", "SPLASH-2", 6.0, 0.25, 3, 0.20, 0.30, 0.30, 1.5),
	profile("water", "SPLASH-2", 2.5, 0.20, 2, 0.15, 0.30, 0.25, 1.8),
	// SpecOMP / SPEC CPU2000 FP.
	profile("swim", "SpecOMP", 40.0, 0.30, 5, 0.30, 0.35, 0.15, 0.9),
	profile("mgrid", "SpecOMP", 12.0, 0.28, 4, 0.25, 0.30, 0.12, 1.3),
	profile("art", "SpecOMP", 55.0, 0.25, 6, 0.35, 0.30, 0.12, 0.8),
	profile("equake", "SpecOMP", 20.0, 0.28, 4, 0.25, 0.35, 0.12, 1.2),
	profile("ammp", "SpecOMP", 9.0, 0.28, 3, 0.20, 0.30, 0.10, 1.4),
}

// ByName returns the profile with the given name.
func ByName(name string) (*Profile, error) {
	for i := range Profiles {
		if Profiles[i].Name == name {
			return &Profiles[i], nil
		}
	}
	return nil, fmt.Errorf("workload: unknown benchmark %q", name)
}

// Mix is one multiprogrammed workload of Table 3: eight benchmarks, each
// replicated 32 times to fill the 256 cores.
type Mix struct {
	// Name is the Table 3 row name.
	Name string
	// Benchmarks lists the eight applications; each runs 32 instances.
	Benchmarks []string
	// PaperMPKI is the average MPKI Table 3 reports for the mix.
	PaperMPKI float64
}

// Mixes reproduces Table 3.
var Mixes = []Mix{
	{
		Name:       "Light",
		Benchmarks: []string{"applu", "gromacs", "deal", "hmmer", "calculix", "gcc", "sjeng", "wrf"},
		PaperMPKI:  3.9,
	},
	{
		Name:       "Medium-Light",
		Benchmarks: []string{"gromacs", "deal", "gobmk", "wrf", "h264ref", "sphinx", "applu", "calculix"},
		PaperMPKI:  7.8,
	},
	{
		Name:       "Medium-Heavy",
		Benchmarks: []string{"cactus", "deal", "calculix", "hmmer", "namd", "sjas", "gromacs", "sjeng"},
		PaperMPKI:  11.7,
	},
	{
		Name:       "Heavy",
		Benchmarks: []string{"sjas", "astar", "mcf", "sphinx", "tonto", "tpcw", "deal", "hmmer"},
		PaperMPKI:  39.0,
	},
}

// MixByName returns the Table 3 mix with the given name.
func MixByName(name string) (*Mix, error) {
	for i := range Mixes {
		if Mixes[i].Name == name {
			return &Mixes[i], nil
		}
	}
	return nil, fmt.Errorf("workload: unknown mix %q", name)
}

// CoreAssignment returns, for a system with cores processor cores, the
// profile each core runs: benchmark i's 32 (cores/8) instances occupy the
// contiguous core range [i*cores/8, (i+1)*cores/8). Contiguous placement
// matches multiprogrammed scheduling and creates the spatially non-uniform
// traffic the regional congestion detector exists for.
func (m *Mix) CoreAssignment(cores int) ([]*Profile, error) {
	if cores%len(m.Benchmarks) != 0 {
		return nil, fmt.Errorf("workload: %d cores not divisible by %d benchmarks", cores, len(m.Benchmarks))
	}
	per := cores / len(m.Benchmarks)
	out := make([]*Profile, cores)
	for i, b := range m.Benchmarks {
		p, err := ByName(b)
		if err != nil {
			return nil, err
		}
		for c := i * per; c < (i+1)*per; c++ {
			out[c] = p
		}
	}
	return out, nil
}
