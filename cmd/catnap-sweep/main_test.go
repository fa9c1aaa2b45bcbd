package main

import "testing"

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
