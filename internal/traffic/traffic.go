// Package traffic generates the workloads of the paper's evaluation: the
// master-slave request pattern of §18.4.2 (10 masters, 50 slaves, uniform
// channels C=3, P=100, d=40), randomized channel populations for
// robustness experiments, and arrival processes for background
// best-effort load.
package traffic

import (
	"math/rand"

	"repro/internal/core"
)

// PaperSpec is the uniform channel of Fig. 18.5: C_i = 3, P_i = 100,
// d_i = 40 (endpoints filled per request).
var PaperSpec = core.ChannelSpec{C: 3, P: 100, D: 40}

// MasterSlaveLayout describes the node population of the paper's
// experiment: master nodes 0..Masters-1 and slave nodes
// SlaveBase..SlaveBase+Slaves-1.
type MasterSlaveLayout struct {
	Masters   int
	Slaves    int
	SlaveBase core.NodeID
}

// PaperLayout is the configuration of §18.4.2: 10 masters and 50 slaves.
var PaperLayout = MasterSlaveLayout{Masters: 10, Slaves: 50, SlaveBase: 100}

// Nodes returns every node ID in the layout, masters first.
func (l MasterSlaveLayout) Nodes() []core.NodeID {
	ids := make([]core.NodeID, 0, l.Masters+l.Slaves)
	for m := 0; m < l.Masters; m++ {
		ids = append(ids, core.NodeID(m))
	}
	for s := 0; s < l.Slaves; s++ {
		ids = append(ids, l.SlaveBase+core.NodeID(s))
	}
	return ids
}

// Master returns the ID of master m.
func (l MasterSlaveLayout) Master(m int) core.NodeID { return core.NodeID(m % l.Masters) }

// Slave returns the ID of slave s.
func (l MasterSlaveLayout) Slave(s int) core.NodeID {
	return l.SlaveBase + core.NodeID(s%l.Slaves)
}

// Requests produces n channel requests in the paper's round-robin
// master-slave pattern: request k goes from master k mod Masters to slave
// k mod Slaves, with the given per-channel parameters.
func (l MasterSlaveLayout) Requests(n int, params core.ChannelSpec) []core.ChannelSpec {
	out := make([]core.ChannelSpec, n)
	for k := 0; k < n; k++ {
		s := params
		s.Src = l.Master(k)
		s.Dst = l.Slave(k)
		out[k] = s
	}
	return out
}

// ReverseRequests produces slave→master channels (the response direction
// of a master-slave protocol), same round-robin pairing.
func (l MasterSlaveLayout) ReverseRequests(n int, params core.ChannelSpec) []core.ChannelSpec {
	out := make([]core.ChannelSpec, n)
	for k := 0; k < n; k++ {
		s := params
		s.Src = l.Slave(k)
		s.Dst = l.Master(k)
		out[k] = s
	}
	return out
}

// PoissonArrivals returns arrival slots of a Poisson process with the
// given mean rate (frames per slot) over [0, horizon). Deterministic for
// a given rng state.
func PoissonArrivals(rng *rand.Rand, rate float64, horizon int64) []int64 {
	if rate <= 0 || horizon <= 0 {
		return nil
	}
	var arrivals []int64
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if int64(t) >= horizon {
			return arrivals
		}
		arrivals = append(arrivals, int64(t))
	}
}

// UniformOffsets returns n release offsets drawn uniformly from
// [0, maxOffset]; offset 0 for maxOffset <= 0. The synchronous case
// (all zero) is the analysis' worst case; random offsets model unsynced
// stations.
func UniformOffsets(rng *rand.Rand, n int, maxOffset int64) []int64 {
	out := make([]int64, n)
	if maxOffset <= 0 {
		return out
	}
	for i := range out {
		out[i] = rng.Int63n(maxOffset + 1)
	}
	return out
}
