package admit

import "repro/internal/edf"

// Stats counts admission outcomes, mirroring what the switch's RT channel
// management software would expose. Both adapters (core.Controller,
// topo.Controller) keep one and are the only code that advances it.
// Every request not accepted counts under exactly one Rejected cause; a
// refused atomic list counts all its requests under its cause.
type Stats struct {
	Requests             int // requests seen (an atomic list counts len(list))
	Accepted             int // channels admitted
	RejectedInvalid      int // spec validation failures
	RejectedNoRoute      int // unroutable or unattached-endpoint rejections
	RejectedUtilization  int // first-constraint rejections
	RejectedDemand       int // second-constraint rejections
	RejectedInconclusive int // analysis hit configured limits, or no channel ID was free
	Released             int // channels torn down
	LinksChecked         int // cumulative feasibility tests run
	Repartitions         int // repartition passes run by the kernel
}

// NoteRejection classifies a feasibility rejection of n requests into the
// counters.
func (s *Stats) NoteRejection(res edf.Result, n int) {
	switch res.Verdict {
	case edf.InfeasibleUtilization:
		s.RejectedUtilization += n
	case edf.InfeasibleDemand:
		s.RejectedDemand += n
	default:
		s.RejectedInconclusive += n
	}
}
