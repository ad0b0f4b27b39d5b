package core

import "fmt"

// DPS is a deadline partitioning scheme (§18.4): a function that maps the
// deadline d_i of every channel in a system state into the pair
// {d_iu, d_id} such that d_iu + d_id = d_i (condition (8)). The paper
// stresses that a DPS is not optional — the system cannot operate without
// one — and that it is a function of the system state. Every scheme here
// reads the state only through the loads LL of the links the channel
// traverses, so a DPS is declared per channel (Split): that is what lets
// the admission kernel recompute only the channels whose split can have
// moved — under a LoadAdaptive scheme each channel on a link a decision
// touched, otherwise the decision's new channels alone.
//
// Implementations must be deterministic and must return partitions
// satisfying ValidFor for every channel (the helper clampPartition takes
// care of condition (9) rounding at the boundaries).
type DPS interface {
	// Name identifies the scheme in reports ("SDPS", "ADPS", ...).
	Name() string
	// Split computes {d_iu, d_id} for a channel with spec s from hopLoads,
	// the loads of the links it traverses in hop order: its uplink, then
	// its downlink (one per sink for a multicast channel).
	Split(s ChannelSpec, hopLoads []int64) Partition
	// LoadAdaptive reports whether Split reads hopLoads; a scheme that
	// does not is fixed by the spec, so no committed split ever moves.
	LoadAdaptive() bool
	// Partition computes {d_iu, d_id} for every channel in st: Split under
	// each channel's current hop loads.
	Partition(st *State) map[ChannelID]Partition
}

// partition is the full-state Partition every scheme shares.
func partition(st *State, d DPS) map[ChannelID]Partition {
	parts := make(map[ChannelID]Partition, st.Len())
	var loads []int64
	for _, ch := range st.Channels() {
		loads = st.k.HopLoads(ch, loads[:0])
		parts[ch.ID] = d.Split(ch.Spec, loads)
	}
	return parts
}

// clampPartition builds the partition with the requested uplink share,
// clamped so that both halves respect condition (9): d_iu, d_id >= C_i.
// The spec must already satisfy D >= 2C (checked at validation), so a
// valid clamp always exists.
func clampPartition(s ChannelSpec, up int64) Partition {
	if up < s.C {
		up = s.C
	}
	if max := s.D - s.C; up > max {
		up = max
	}
	return Partition{Up: up, Down: s.D - up}
}

// SDPS is the Symmetric Deadline Partitioning Scheme (§18.4.1): every
// channel's deadline is split in half, d_iu = d_id = d_i/2, regardless of
// the system state. With integer slots an odd deadline gives the floor to
// the uplink and the remainder to the downlink.
//
// Viewed as the paper's vector field, SDPS is the constant vector 0.5.
type SDPS struct{}

// Name implements DPS.
func (SDPS) Name() string { return "SDPS" }

// Split implements DPS.
func (SDPS) Split(s ChannelSpec, _ []int64) Partition { return clampPartition(s, s.D/2) }

// LoadAdaptive implements DPS: the symmetric split is fixed by the spec.
func (SDPS) LoadAdaptive() bool { return false }

// Partition implements DPS.
func (d SDPS) Partition(st *State) map[ChannelID]Partition { return partition(st, d) }

// ADPS is the Asymmetric Deadline Partitioning Scheme (§18.4.2): the
// deadline budget is distributed to where it is most needed, in proportion
// to the link loads of the two links the channel traverses:
//
//	U_part,i = LL(Source_i) / (LL(Source_i) + LL(Destination_i))   (Eq. 18.16)
//	D_part,i = LL(Destination_i) / (LL(Source_i) + LL(Destination_i))
//
// where LL is the number of channels traversing a link. A bottlenecked
// uplink (many channels, as on a master node's uplink in master-slave
// traffic) therefore receives a larger share of every deadline that
// crosses it, relieving the bottleneck.
type ADPS struct{}

// Name implements DPS.
func (ADPS) Name() string { return "ADPS" }

// Split implements DPS: the load-weighted split of Eq. 18.16. For a
// multicast channel the downlink weight is the load of its most loaded
// sink downlink: the shared d_id must hold on every branch, so the
// bottleneck branch sets the asymmetry.
func (ADPS) Split(s ChannelSpec, hopLoads []int64) Partition {
	var llUp, llDown int64
	if len(hopLoads) > 0 {
		llUp = hopLoads[0]
		for _, l := range hopLoads[1:] {
			llDown = max(llDown, l)
		}
	}
	up := s.D / 2 // unreachable for an admitted channel, which loads its own links
	if total := llUp + llDown; total > 0 {
		up = s.D * llUp / total
	}
	return clampPartition(s, up)
}

// LoadAdaptive implements DPS: the split follows the link loads.
func (ADPS) LoadAdaptive() bool { return true }

// Partition implements DPS.
func (a ADPS) Partition(st *State) map[ChannelID]Partition { return partition(st, a) }

// FixedDPS assigns every channel the same uplink fraction of its deadline.
// It is not part of the paper; it generalizes SDPS (fraction 0.5) and is
// used by ablation experiments to show that no static split matches ADPS
// on asymmetric workloads.
type FixedDPS struct {
	// UpNum/UpDen is the uplink fraction, e.g. 5/6.
	UpNum, UpDen int64
}

// Name implements DPS.
func (f FixedDPS) Name() string { return fmt.Sprintf("Fixed(%d/%d)", f.UpNum, f.UpDen) }

// Split implements DPS.
func (f FixedDPS) Split(s ChannelSpec, _ []int64) Partition {
	return clampPartition(s, s.D*f.UpNum/f.UpDen)
}

// LoadAdaptive implements DPS: like SDPS the split is fixed by the spec.
func (FixedDPS) LoadAdaptive() bool { return false }

// Partition implements DPS.
func (f FixedDPS) Partition(st *State) map[ChannelID]Partition { return partition(st, f) }

// Partition installation — walking the channels whose split can have
// moved, writing the computed splits into the state, tracking which links
// changed, and rolling back rejected repartitions — is the shared
// kernel's job; see internal/admit.Engine.
