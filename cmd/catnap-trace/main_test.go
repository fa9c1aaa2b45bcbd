package main

import (
	"strings"
	"testing"
)

func TestRunRejectsNegativeSeries(t *testing.T) {
	if err := run("trace.jsonl", -5); err == nil || !strings.HasPrefix(err.Error(), "-series ") {
		t.Fatalf("run with -series -5 = %v, want an error naming -series", err)
	}
}
