// Policies: compare the congestion-detection policies of paper §3.4 on
// the adversarial transpose pattern — the Figure 11(b) story. Transpose
// concentrates traffic along the diagonal under X-Y routing, so a policy
// that detects congestion late (IQOcc) or dilutes it (BFA) oversubscribes
// the lower subnets and loses latency/throughput, while regional BFM
// detection reacts in time. Round-robin (RR) avoids congestion by
// spreading load — and thereby destroys every power-gating opportunity.
package main

import (
	"context"
	"fmt"
	"log"

	catnap "github.com/catnap-noc/catnap"
)

func main() {
	loads := []float64{0.05, 0.10, 0.15, 0.20}

	fmt.Println("Transpose traffic on 4NT-128b with power gating")
	fmt.Printf("%-12s", "policy")
	for _, l := range loads {
		fmt.Printf("  lat@%.2f", l)
	}
	fmt.Printf("  CSC@%.2f\n", loads[0])

	res, err := catnap.RunExperiment(context.Background(), "fig11", catnap.ExperimentOpts{
		Scale: catnap.Scale{Warmup: 2000, Measure: 8000}, Pattern: "transpose", Loads: loads,
	})
	if err != nil {
		log.Fatal(err)
	}
	points := res.Data.([]catnap.Fig11Point)

	// Group the sweep by policy for tabular printing.
	byPolicy := map[string][]catnap.Fig11Point{}
	var order []string
	for _, p := range points {
		if _, ok := byPolicy[p.Policy]; !ok {
			order = append(order, p.Policy)
		}
		byPolicy[p.Policy] = append(byPolicy[p.Policy], p)
	}
	for _, name := range order {
		fmt.Printf("%-12s", name)
		for _, p := range byPolicy[name] {
			fmt.Printf("  %8.1f", p.Latency)
		}
		fmt.Printf("  %7.1f%%\n", byPolicy[name][0].CSCPercent)
	}

	fmt.Println(`
What to look for (paper Figure 11):
  - RR keeps latency acceptable only by never gating: its CSC is the lowest.
  - BFM (regional) tracks the best latency at every load AND exposes high CSC.
  - BFM-local trails regional BFM on this non-uniform pattern: back-pressure
    reaches the injecting node too late without the 1-bit OR network.
  - IQOcc-local reacts slowest: injection queues fill only after routers do.`)
}
