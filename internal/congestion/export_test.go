package congestion

// Sample and SampleScan expose the raw metric reads to the external
// tests.
func (d *Detector) Sample(subnet, node int) float64     { return d.sample(subnet, node) }
func (d *Detector) SampleScan(subnet, node int) float64 { return d.sampleScan(subnet, node) }
