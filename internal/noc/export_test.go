package noc

// UsesRequestMasks reports whether r allocates through the occupancy
// bitmask and per-output request masks rather than the full slot scan.
func (r *Router) UsesRequestMasks() bool { return r.slotMask }
