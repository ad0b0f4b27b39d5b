package core

import "fmt"

// DPS is a deadline partitioning scheme (§18.4): a function that maps the
// deadline d_i of every channel in a system state into the pair
// {d_iu, d_id} such that d_iu + d_id = d_i (condition (8)). The paper
// stresses that a DPS is not optional — the system cannot operate without
// one — and that it is a function of the whole system state, so Partition
// receives the full (tentative) state and returns a split for every
// channel in it.
//
// Implementations must be deterministic and must return partitions
// satisfying ValidFor for every channel (the helper clampPartition takes
// care of condition (9) rounding at the boundaries). A channel's split
// may depend only on its own spec and the loads of the links it
// traverses (true for SDPS, ADPS and FixedDPS): that is what lets the
// admission controller repartition only the channels on the links a
// mutation touched.
type DPS interface {
	// Name identifies the scheme in reports ("SDPS", "ADPS", ...).
	Name() string
	// Partition computes {d_iu, d_id} for every channel in st.
	Partition(st *State) map[ChannelID]Partition
	// PartitionTouched returns new partitions after a mutation that
	// touched the given links: one for every channel without a partition
	// yet, and, for every other returned channel (all of which traverse
	// a touched link), what Partition(st) would return. Channels it omits
	// keep their committed partitions.
	PartitionTouched(st *State, touched []Link) map[ChannelID]Partition
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

// Partition implements DPS.
func (SDPS) Partition(st *State) map[ChannelID]Partition {
	parts := make(map[ChannelID]Partition, st.Len())
	for _, ch := range st.Channels() {
		parts[ch.ID] = clampPartition(ch.Spec, ch.Spec.D/2)
	}
	return parts
}

// partitionTouched is the shared shell of the load-adaptive
// PartitionTouched implementations: collect the split of each channel
// traversing a touched link, deduplicating channels that traverse two of
// them.
func partitionTouched(st *State, touched []Link, split func(*Channel) Partition) map[ChannelID]Partition {
	parts := make(map[ChannelID]Partition)
	for _, l := range touched {
		for _, r := range st.channelsOn(l) {
			ch := r.Ch
			if _, done := parts[ch.ID]; done {
				continue
			}
			parts[ch.ID] = split(ch)
		}
	}
	return parts
}

// partitionTouchedNew is partitionTouched for schemes whose split depends
// only on the channel's own spec: only channels that carry no partition
// yet — the ones the current request just added — get a split, keeping
// incremental admission O(new channels) per request. Under such a scheme
// (SDPS, FixedDPS) a committed or forced partition is never recomputed:
// a ForceAdd partition that differs from the scheme's split stays as
// forced for the channel's lifetime.
//
// It reads each touched link's hops from the tail and stops at the first
// partitioned channel. That finds every new channel because the channels
// without a partition form a suffix of every link's list: an admission
// appends its new channels at the tail of every link it touches, a
// removal keeps the order of the rest, and every committed or ForceAdded
// channel holds a partition.
func partitionTouchedNew(st *State, touched []Link, split func(*Channel) Partition) map[ChannelID]Partition {
	parts := make(map[ChannelID]Partition)
	for _, l := range touched {
		refs := st.channelsOn(l)
		for k := len(refs) - 1; k >= 0 && refs[k].Ch.Part == (Partition{}); k-- {
			ch := refs[k].Ch
			if _, done := parts[ch.ID]; !done {
				parts[ch.ID] = split(ch)
			}
		}
	}
	return parts
}

// PartitionTouched implements DPS. The symmetric split depends only on
// the spec, so beyond the request's own new channels nothing can move.
func (SDPS) PartitionTouched(st *State, touched []Link) map[ChannelID]Partition {
	return partitionTouchedNew(st, touched, func(ch *Channel) Partition {
		return clampPartition(ch.Spec, ch.Spec.D/2)
	})
}

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

// Partition implements DPS.
func (a ADPS) Partition(st *State) map[ChannelID]Partition {
	parts := make(map[ChannelID]Partition, st.Len())
	for _, ch := range st.Channels() {
		parts[ch.ID] = a.partitionOf(st, ch)
	}
	return parts
}

// partitionOf computes the load-weighted split of one channel (Eq. 18.16)
// — shared by the full and incremental paths so they agree bit for bit.
// For a multicast channel the downlink weight is the load of its most
// loaded sink downlink: the shared d_id must hold on every branch, so
// the bottleneck branch sets the asymmetry. The loads are read by hop
// (uplink first, then the downlinks; Dst is Sinks[0] for multicast).
func (ADPS) partitionOf(st *State, ch *Channel) Partition {
	var buf [2]int64
	var llUp, llDown int64
	if ll := st.k.HopLoads(ch, buf[:0]); len(ll) > 0 {
		llUp = ll[0]
		for _, l := range ll[1:] {
			llDown = max(llDown, l)
		}
	}
	total := llUp + llDown
	var up int64
	if total == 0 {
		// Unreachable for channels inside st (their own traversal
		// counts), but keep a sane symmetric fallback.
		up = ch.Spec.D / 2
	} else {
		up = ch.Spec.D * llUp / total
	}
	return clampPartition(ch.Spec, up)
}

// PartitionTouched implements DPS. A channel's split depends on the loads
// of its own two links only, so after a mutation that touched a link set,
// exactly the channels traversing those links can move.
func (a ADPS) PartitionTouched(st *State, touched []Link) map[ChannelID]Partition {
	return partitionTouched(st, touched, func(ch *Channel) Partition {
		return a.partitionOf(st, ch)
	})
}

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

// Partition implements DPS.
func (f FixedDPS) Partition(st *State) map[ChannelID]Partition {
	parts := make(map[ChannelID]Partition, st.Len())
	for _, ch := range st.Channels() {
		up := ch.Spec.D * f.UpNum / f.UpDen
		parts[ch.ID] = clampPartition(ch.Spec, up)
	}
	return parts
}

// PartitionTouched implements DPS: like SDPS the split depends only on
// the spec, so only the request's own new channels matter.
func (f FixedDPS) PartitionTouched(st *State, touched []Link) map[ChannelID]Partition {
	return partitionTouchedNew(st, touched, func(ch *Channel) Partition {
		return clampPartition(ch.Spec, ch.Spec.D*f.UpNum/f.UpDen)
	})
}

// Partition installation — writing the computed splits into the state,
// tracking which links changed, and rolling back rejected repartitions —
// is the shared kernel's job; see internal/admit.Engine.
