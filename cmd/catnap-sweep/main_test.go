package main

import (
	"math"
	"strings"
	"testing"
)

func TestParseLoads(t *testing.T) {
	got, err := parseLoads("0.02, 0.5,0.10")
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.02, 0.5, 0.10}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	for _, bad := range []string{"", "0", "1.5", "abc", "-0.1", ",,", "NaN"} {
		if _, err := parseLoads(bad); err == nil {
			t.Errorf("parseLoads(%q) accepted", bad)
		}
	}
}

func TestCheckFlags(t *testing.T) {
	if err := checkFlags(0, 1, 0, 0); err != nil {
		t.Fatalf("smallest valid flags rejected: %v", err)
	}
	for _, c := range []struct {
		warmup, measure int64
		jobs            int
		threshold       float64
		flag            string
	}{
		{-100, 900, 0, 0, "-warmup"},
		{300, 0, 0, 0, "-measure"},
		{300, -5, 0, 0, "-measure"},
		{300, 900, -3, 0, "-jobs"},
		{300, 900, 0, -2, "-threshold"},
		{300, 900, 0, math.NaN(), "-threshold"},
		{300, 900, 0, math.Inf(1), "-threshold"},
	} {
		err := checkFlags(c.warmup, c.measure, c.jobs, c.threshold)
		if err == nil || !strings.HasPrefix(err.Error(), c.flag+" ") {
			t.Errorf("checkFlags(%d, %d, %d, %g) = %v, want an error naming %s",
				c.warmup, c.measure, c.jobs, c.threshold, err, c.flag)
		}
	}
}
