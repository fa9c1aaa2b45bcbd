package workload

import (
	"math"
	"testing"
)

// averageMPKI returns the mix's average MPKI over its benchmarks, which
// must reproduce Table 3's last column.
func averageMPKI(t *testing.T, m *Mix) float64 {
	t.Helper()
	sum := 0.0
	for _, b := range m.Benchmarks {
		p, err := ByName(b)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		sum += p.MPKI()
	}
	return sum / float64(len(m.Benchmarks))
}

// TestTable3Averages pins the mix MPKI averages to the paper's Table 3.
func TestTable3Averages(t *testing.T) {
	for i := range Mixes {
		m := &Mixes[i]
		if avg := averageMPKI(t, m); math.Abs(avg-m.PaperMPKI) > 0.01 {
			t.Errorf("%s average MPKI = %.2f, want %.1f", m.Name, avg, m.PaperMPKI)
		}
	}
}

// TestMixOrdering: the four mixes must be strictly ordered by demand.
func TestMixOrdering(t *testing.T) {
	prev := -1.0
	for i := range Mixes {
		m := &Mixes[i]
		avg := averageMPKI(t, m)
		if avg <= prev {
			t.Errorf("mix %s MPKI %.2f not greater than previous %.2f", m.Name, avg, prev)
		}
		prev = avg
	}
}

func TestProfileLibrary(t *testing.T) {
	if len(Profiles) != 35 {
		t.Errorf("profile library has %d applications, want 35 (paper §6.2)", len(Profiles))
	}
	seen := map[string]bool{}
	for i := range Profiles {
		p := &Profiles[i]
		if seen[p.Name] {
			t.Errorf("duplicate profile %q", p.Name)
		}
		seen[p.Name] = true
		if p.L1MPKI < 0 || p.L2MPKI < 0 || p.L2MPKI > p.L1MPKI {
			t.Errorf("%s: implausible MPKIs L1=%.2f L2=%.2f (L2 misses are a subset of L1 misses)", p.Name, p.L1MPKI, p.L2MPKI)
		}
		if p.PeakIPC <= 0 || p.PeakIPC > 2 {
			t.Errorf("%s: peak IPC %.2f outside (0, 2] for a 2-wide core", p.Name, p.PeakIPC)
		}
		if p.BurstRatio < 1 {
			t.Errorf("%s: burst ratio %.2f < 1", p.Name, p.BurstRatio)
		}
		if p.BurstFrac < 0 || p.BurstFrac > 1 || p.WriteFrac < 0 || p.WriteFrac > 1 || p.SharedFrac < 0 || p.SharedFrac > 1 {
			t.Errorf("%s: fraction out of range", p.Name)
		}
	}
	// Every benchmark referenced by a mix must exist.
	for _, m := range Mixes {
		if len(m.Benchmarks) != 8 {
			t.Errorf("%s: %d benchmarks, want 8", m.Name, len(m.Benchmarks))
		}
		for _, b := range m.Benchmarks {
			if _, err := ByName(b); err != nil {
				t.Errorf("%s: %v", m.Name, err)
			}
		}
	}
}

func TestCoreAssignment(t *testing.T) {
	m, err := MixByName("Heavy")
	if err != nil {
		t.Fatal(err)
	}
	assign, err := m.CoreAssignment(256)
	if err != nil {
		t.Fatal(err)
	}
	if len(assign) != 256 {
		t.Fatalf("got %d assignments", len(assign))
	}
	// 32 contiguous instances per benchmark.
	counts := map[string]int{}
	for _, p := range assign {
		counts[p.Name]++
	}
	for _, b := range m.Benchmarks {
		if counts[b] != 32 {
			t.Errorf("%s: %d instances, want 32", b, counts[b])
		}
	}
	if _, err := m.CoreAssignment(100); err == nil {
		t.Error("CoreAssignment(100) should fail for 8 benchmarks")
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nosuch"); err == nil {
		t.Error("want error for unknown benchmark")
	}
	if _, err := MixByName("nosuch"); err == nil {
		t.Error("want error for unknown mix")
	}
}
