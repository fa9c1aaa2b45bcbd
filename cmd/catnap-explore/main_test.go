package main

import (
	"bytes"
	"context"
	"flag"
	"strings"
	"testing"

	catnap "github.com/catnap-noc/catnap"
)

// TestHeaderReportsEffectiveEval runs a one-point campaign whose zero
// -load, -warmup and -measure select the defaults: the header must
// report the values the campaign ran with, not the flags.
func TestHeaderReportsEffectiveEval(t *testing.T) {
	err := flag.CommandLine.Parse(strings.Fields(
		"-subnets 1 -widths 512 -vcdepths 4 -tidles 4 -metrics BFM -thresholds 0 -grid -load 0 -warmup 0 -measure 0 -jobs 1"))
	if err != nil {
		t.Fatal(err)
	}
	opts, err := buildOpts()
	if err != nil {
		t.Fatal(err)
	}
	r, err := catnap.RunExplore(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	writeFront(&buf, r)
	header, _, _ := strings.Cut(buf.String(), "\n")
	if !strings.Contains(header, " load=0.1 warmup=1000 measure=4000 seed=1 ") {
		t.Fatalf("header %q, want load=0.1 warmup=1000 measure=4000 seed=1", header)
	}
}
