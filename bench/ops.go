package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"

	"repro/rtether"
)

// opKind is one caller-visible operation of the admission plane.
type opKind uint8

const (
	opEstablish opKind = iota
	opMulticast
	opRelease
	opReadMetrics  // GET /v1/metrics?id (wire) / Channel.Metrics (in-process)
	opReadChannels // GET /v1/channels
	opReadStats    // Stats on the caller's transport
)

// class folds the op kinds into the three latency classes the
// end-to-end metrics report.
func (k opKind) class() string {
	switch k {
	case opEstablish, opMulticast:
		return "establish"
	case opRelease:
		return "release"
	default:
		return "read"
	}
}

// op is one generated operation of a caller's stream. Establishes own a
// slot (their index among the caller's establishes); releases and
// metrics reads name the slot they act on. The stream is a pure function
// of the seed: whether a slot is live when a later op names it depends
// on the admission verdict, which the oracle supplies.
type op struct {
	Kind  opKind
	Slot  int32
	Spec  rtether.ChannelSpec
	Sinks []rtether.NodeID `json:",omitempty"`
}

// multicast returns the multicast request of an opMulticast establish.
func (o op) multicast() rtether.MulticastSpec {
	return rtether.MulticastSpec{Src: o.Spec.Src, Sinks: o.Sinks, C: o.Spec.C, P: o.Spec.P, D: o.Spec.D}
}

// want is the oracle's answer for one op.
type want struct {
	// Skip marks a release/metrics read whose slot is not live (its
	// establish was rejected): the op is not issued and not counted.
	Skip bool
	// Accept and Budgets are an establish's verdict and committed
	// per-hop budgets.
	Accept  bool
	Budgets []int64
	// Live and Digest describe the caller's own channels after the op:
	// how many are established and a hash of their current budgets in
	// slot order (checked by channel-list reads).
	Live   int
	Digest uint64
}

// callerInput is everything one closed-loop caller is given: the
// channels it preloads in set-up, its warm-up cycle and its measured
// stream, with the oracle's expectations alongside.
type callerInput struct {
	Name    string
	Preload []rtether.ChannelSpec
	Warm    rtether.ChannelSpec // establish→release of this spec is the warm-up cycle
	Stream  []op

	// Filled by the oracle.
	PreloadBudgets [][]int64
	Want           []want
	Stats          rtether.AdmissionStats // admission counters of the replay
}

// digestBudgets hashes budgets in slot order; callers compare digests
// instead of carrying every live channel's budgets per read.
func digestBudgets(slots []int32, budgets func(int32) []int64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, s := range slots {
		binary.LittleEndian.PutUint32(b[:4], uint32(s))
		h.Write(b[:4])
		for _, v := range budgets(s) {
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// ---------------------------------------------------------------------------
// Oracle: in-process replay of one caller's stream on a fresh Network.

// replay runs the caller's preload and measured stream on net — a fresh
// network holding only this caller's channels, which link-disjointness
// makes equivalent to the shared daemon — recording the expected
// verdict, budgets and own-channel digest of every op.
func (c *callerInput) replay(net *rtether.Network) error {
	if len(c.Preload) > 0 {
		chs, err := net.EstablishAll(c.Preload)
		if err != nil {
			return fmt.Errorf("caller %s: preload rejected: %w", c.Name, err)
		}
		c.PreloadBudgets = make([][]int64, len(chs))
		for i, ch := range chs {
			c.PreloadBudgets[i] = ch.Budgets()
		}
	}
	handles := make(map[int32]*rtether.Channel)
	var order []int32 // live slots in establish order
	c.Want = make([]want, len(c.Stream))
	for i, o := range c.Stream {
		w := &c.Want[i]
		switch o.Kind {
		case opEstablish, opMulticast:
			// The daemon decides every establish, unicast or multicast,
			// through the merged per-request batch path; the replay uses
			// the same entry point.
			chs, errs := net.EstablishEachMixed([]rtether.EstablishReq{{Spec: o.Spec, Sinks: o.Sinks}})
			ch, err := chs[0], errs[0]
			switch {
			case err == nil:
				w.Accept = true
				w.Budgets = ch.Budgets()
				handles[o.Slot] = ch
				order = append(order, o.Slot)
			case !errors.Is(err, rtether.ErrInfeasible):
				return fmt.Errorf("caller %s: op %d (%v): %w", c.Name, i, o.Spec, err)
			}
		case opRelease:
			ch := handles[o.Slot]
			if ch == nil {
				w.Skip = true
				continue
			}
			if err := ch.Release(); err != nil {
				return fmt.Errorf("caller %s: op %d: release: %w", c.Name, i, err)
			}
			delete(handles, o.Slot)
			for j, s := range order {
				if s == o.Slot {
					order = append(order[:j], order[j+1:]...)
					break
				}
			}
		case opReadMetrics:
			ch := handles[o.Slot]
			if ch == nil {
				w.Skip = true
				continue
			}
			_ = ch.Metrics()
		case opReadChannels:
			_ = net.Channels()
		case opReadStats:
			_ = net.AdmissionStats()
		}
		w.Live = len(order)
		if o.Kind == opReadChannels {
			w.Digest = digestBudgets(order, func(s int32) []int64 { return handles[s].Budgets() })
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Generators. Each takes the seed and a measured-stream length and
// returns the callers' inputs; nothing here consults the system.

// starWireLayout is the star-wire topology: 16 sources 1..16 and 16
// sinks 101..116 on one switch, ADPS.
func starWireLayout() layout {
	var nodes []uint16
	for k := 1; k <= starCallers; k++ {
		nodes = append(nodes, uint16(k))
	}
	for k := 1; k <= starCallers; k++ {
		nodes = append(nodes, uint16(100+k))
	}
	return starLayout("star-wire", "adps", nodes)
}

const starCallers = 16

// genStarWire builds the 16 star-wire callers. Caller k owns source k
// and sink 100+k, so it is the only one ever naming that uplink and
// that downlink. Its stream keeps at most two channels live and is
// almost always admissible; every starRejectEvery-th establish asks for
// the whole link (C = P) while another channel is live, which the
// utilization test must refuse, so the rejection round trip is covered.
func genStarWire(seed int64, opsPerCaller int) []*callerInput {
	callers := make([]*callerInput, starCallers)
	for k := range callers {
		rng := rand.New(rand.NewSource(seed*1009 + int64(k)))
		src, dst := rtether.NodeID(k+1), rtether.NodeID(101+k)
		c := &callerInput{
			Name: fmt.Sprintf("star-%02d", k+1),
			Warm: rtether.ChannelSpec{Src: src, Dst: dst, C: 1, P: 100, D: 40},
		}
		var live []int32
		slot := int32(0)
		releases := 0
		for len(c.Stream) < opsPerCaller {
			if len(live) == 0 || (len(live) == 1 && rng.Intn(2) == 0) {
				spec := rtether.ChannelSpec{
					Src: src, Dst: dst,
					C: int64(1 + rng.Intn(3)),
					P: []int64{50, 100, 200}[rng.Intn(3)],
					D: []int64{20, 40, 80}[rng.Intn(3)],
				}
				if len(live) == 1 && slot%starRejectEvery == starRejectEvery-1 {
					spec.C, spec.P, spec.D = 50, 50, 100
				}
				c.Stream = append(c.Stream, op{Kind: opEstablish, Slot: slot, Spec: spec})
				live = append(live, slot)
				slot++
				continue
			}
			i := rng.Intn(len(live))
			c.Stream = append(c.Stream, op{Kind: opRelease, Slot: live[i]})
			live = append(live[:i], live[i+1:]...)
			releases++
			if releases%4 == 0 {
				c.Stream = append(c.Stream, op{Kind: opReadStats})
			}
		}
		callers[k] = c
	}
	return callers
}

const starRejectEvery = 32

// fabricChurnLayout is the fabric-churn topology: the 4-switch line with
// 100 nodes per side, H-ADPS.
func fabricChurnLayout() layout { return fabricLayout("fabric-churn", "adps", fabricPerSide) }

// Fabric-churn population sizes per caller: the standing preload and the
// band the requested-live churn population oscillates in. The band sits
// above what the shared trunk can hold, so a steady share of establishes
// is refused.
const (
	fabricPreload  = 250
	fabricChurnLo  = 60
	fabricChurnHi  = 90
	fabricPerSide  = 100
	fabricMcastMin = 3
	fabricMcastMax = 5
)

// genFabricChurn builds the two fabric-churn callers: east-bound (west
// sources, east sinks) and west-bound. The two directions of every
// full-duplex link are distinct directed links, so the callers share
// none. Per caller: a standing preload, then a seeded mix of 70 %
// unicast and 10 % multicast establish/release and 20 % reads.
func genFabricChurn(seed int64, opsPerCaller int) []*callerInput {
	dirs := []struct {
		name             string
		srcBase, dstBase int
	}{
		{"east", westBase, eastBase},
		{"west", eastBase, westBase},
	}
	callers := make([]*callerInput, len(dirs))
	for k, d := range dirs {
		rng := rand.New(rand.NewSource(seed*1013 + int64(k)))
		node := func(base int) rtether.NodeID { return rtether.NodeID(base + 1 + rng.Intn(fabricPerSide)) }
		spec := func() rtether.ChannelSpec {
			return rtether.ChannelSpec{
				Src: node(d.srcBase), Dst: node(d.dstBase),
				C: int64(1 + rng.Intn(2)),
				P: []int64{400, 450, 500}[rng.Intn(3)],
				D: []int64{4000, 5000, 6000}[rng.Intn(3)],
			}
		}
		c := &callerInput{Name: d.name}
		c.Warm = rtether.ChannelSpec{
			Src: rtether.NodeID(d.srcBase + 1), Dst: rtether.NodeID(d.dstBase + 2), C: 1, P: 500, D: 6000}
		for i := 0; i < fabricPreload; i++ {
			c.Preload = append(c.Preload, spec())
		}
		var live []int32
		slot := int32(0)
		for len(c.Stream) < opsPerCaller {
			r := rng.Float64()
			if r < 0.20 {
				// Of the reads: 5 % channel listings, 20 % stats, 75 % one
				// channel's metrics.
				switch pick := rng.Intn(20); {
				case pick == 0:
					c.Stream = append(c.Stream, op{Kind: opReadChannels})
				case pick <= 4 || len(live) == 0:
					c.Stream = append(c.Stream, op{Kind: opReadStats})
				default:
					c.Stream = append(c.Stream, op{Kind: opReadMetrics, Slot: live[rng.Intn(len(live))]})
				}
				continue
			}
			multicast := r < 0.30
			if len(live) < fabricChurnLo || (len(live) < fabricChurnHi && rng.Intn(2) == 0) {
				o := op{Kind: opEstablish, Slot: slot, Spec: spec()}
				if multicast {
					o.Kind = opMulticast
					n := fabricMcastMin + rng.Intn(fabricMcastMax-fabricMcastMin+1)
					seen := map[rtether.NodeID]bool{}
					for len(o.Sinks) < n {
						s := node(d.dstBase)
						if !seen[s] {
							seen[s] = true
							o.Sinks = append(o.Sinks, s)
						}
					}
					o.Spec.Dst = o.Sinks[0]
				}
				c.Stream = append(c.Stream, o)
				live = append(live, slot)
				slot++
				continue
			}
			i := rng.Intn(len(live))
			c.Stream = append(c.Stream, op{Kind: opRelease, Slot: live[i]})
			live = append(live[:i], live[i+1:]...)
		}
		callers[k] = c
	}
	return callers
}
