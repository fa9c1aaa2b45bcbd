package noc

// UsesRequestMasks reports whether r allocates through the occupancy
// bitmask and per-output request masks rather than the full slot scan.
func (r *Router) UsesRequestMasks() bool { return r.slotMask }

// CheckAggregates runs the incremental-aggregate cross-checks, allocation
// masks included, as of the router phase of cycle now; "" means none
// drifted.
func (s *Subnet) CheckAggregates(now int64) string { return s.checkAggregates(now) }
