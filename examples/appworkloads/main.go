// Appworkloads: run the paper's multiprogrammed Table 3 mixes on the full
// closed-loop 256-core system (cores, caches, MESI directory, memory
// controllers) and compare the Catnap Multi-NoC against the
// bandwidth-equivalent Single-NoC — the Figure 8 story: a large network
// power saving for a small performance cost, growing with how light the
// workload is.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	catnap "github.com/catnap-noc/catnap"
)

var (
	warmup  = flag.Int64("warmup", 5000, "warmup cycles")
	measure = flag.Int64("measure", 15000, "measurement cycles")
	mixes   = flag.String("mixes", "Light,Heavy", "comma-separated Table 3 mixes")
)

func main() {
	flag.Parse()
	opts := catnap.ExperimentOpts{
		Scale:   catnap.Scale{Warmup: *warmup, Measure: *measure},
		Designs: []string{"1NT-512b", "4NT-128b-PG"},
	}

	fmt.Printf("%-14s %-14s %9s %9s %9s %7s %7s\n",
		"workload", "design", "dyn (W)", "stat (W)", "total (W)", "CSC%", "perf")
	for _, mix := range splitList(*mixes) {
		opts.Mixes = []string{mix}
		res, err := catnap.RunExperiment(context.Background(), "fig8", opts)
		if err != nil {
			log.Fatal(err)
		}
		rows := res.Data.([]catnap.AppRow)
		for _, r := range rows {
			fmt.Printf("%-14s %-14s %9.1f %9.1f %9.1f %7.1f %7.3f\n",
				r.Workload, r.Design,
				r.Results.Power.Dynamic, r.Results.Power.Static, r.Results.Power.Total,
				r.Results.CSCPercent, r.NormalizedPerf)
		}
		saving := 1 - rows[1].Results.Power.Total/rows[0].Results.Power.Total
		fmt.Printf("  -> Catnap saves %.0f%% network power on %s for a %.1f%% performance cost\n\n",
			saving*100, mix, (1-rows[1].NormalizedPerf)*100)
	}
}

func splitList(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}
