package admit

import "repro/internal/edf"

// Stats counts admission outcomes, mirroring what the switch's RT channel
// management software would expose. Both adapters (core.Controller,
// topo.Controller) keep one and are the only code that advances it.
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

// NoteRejection classifies one feasibility rejection into the counters.
func (s *Stats) NoteRejection(res edf.Result) {
	switch res.Verdict {
	case edf.InfeasibleUtilization:
		s.RejectedUtilization++
	case edf.InfeasibleDemand:
		s.RejectedDemand++
	default:
		s.RejectedInconclusive++
	}
}
