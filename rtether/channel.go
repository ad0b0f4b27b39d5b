package rtether

import (
	"errors"
	"slices"
)

// ErrChannelClosed is returned by Channel methods after the channel has
// been released or torn down through any path.
var ErrChannelClosed = errors.New("rtether: channel is closed")

// Channel is the handle to one established RT channel. It is returned by
// Network.Establish and carries the channel's whole lifecycle — traffic
// control, introspection, and teardown — so callers never thread raw
// ChannelIDs through Network methods.
//
// A Channel is bound to the Network that created it and shares its
// concurrency contract: the handle is safe to use from any goroutine.
// Lifecycle methods (Start, Stop, Release, Reconfigure, Teardown)
// serialize with the Network's management/simulation plane; queries
// (Spec, Budgets, Metrics, GuaranteedDelay) take the shared read lock.
type Channel struct {
	net *Network
	id  ChannelID
	// spec and, for a multicast channel, sinks (nil for unicast) are the
	// committed contract. Reconfigure and failure recovery replace them
	// under the network's write lock; queries read them under the read
	// lock.
	spec  ChannelSpec
	sinks []NodeID

	// closed flips when the channel is released or torn down. It is
	// written under the network's write lock and read under either lock
	// side, so handle methods observe it coherently from any goroutine.
	closed bool
}

// ID returns the network-unique RT channel identifier (16 bits in a
// star's frames, 32 on a fabric), for logs and for correlating with
// Report.Channels.
func (c *Channel) ID() ChannelID { return c.id }

// Spec returns the committed channel spec {Src, Dst, P, C, D}. For a
// multicast channel, Dst is the first sink; see Sinks for the full set.
func (c *Channel) Spec() ChannelSpec {
	c.net.mu.RLock()
	defer c.net.mu.RUnlock()
	return c.spec
}

// Sinks returns the sink set of a multicast channel in request order,
// or nil for a unicast channel. The returned slice is a copy.
func (c *Channel) Sinks() []NodeID {
	c.net.mu.RLock()
	defer c.net.mu.RUnlock()
	return slices.Clone(c.sinks)
}

// Multicast reports whether this channel was established with
// EstablishMulticast.
func (c *Channel) Multicast() bool {
	c.net.mu.RLock()
	defer c.net.mu.RUnlock()
	return len(c.sinks) > 0
}

// Budgets returns the channel's current per-hop deadline budgets, which
// sum to D: [d_up, d_down] on a star network, one entry per routed link
// on a fabric. The budgets may change when later admissions or releases
// repartition the system; Budgets returns the committed values at the
// time of the call.
func (c *Channel) Budgets() []int64 { return c.net.channelBudgets(c) }

// Start attaches the channel's periodic traffic source: C maximal frames
// every P slots, first release offset slots from now.
func (c *Channel) Start(offset int64) error { return c.net.startChannel(c, offset) }

// Stop detaches the traffic source without releasing the reservation;
// Start may be called again later.
func (c *Channel) Stop() error { return c.net.stopChannel(c) }

// Release tears the channel down through the management plane: traffic
// stops and the reservation is freed immediately, without consuming
// virtual time.
func (c *Channel) Release() error {
	_, err := c.net.apply([]*Channel{c}, nil)
	return err
}

// Reconfigure replaces the channel's contract in one atomic admission
// decision that keeps its ID: the old reservation leaves and the new one
// joins together, so nothing else can take the freed capacity in between.
// C, P, D, the destination and a multicast channel's sink set (Sinks set,
// Spec.Dst ignored, as in EstablishEachMixed) may change; Src may not,
// nor may the channel switch between unicast and multicast. If the new
// contract does not fit, the channel keeps its ID, spec, budgets and
// traffic, and the rejection is returned (*AdmissionError). On success a
// running source carries on under the new contract, measurements and
// release phase kept. It runs through the management plane, like
// EstablishAll: no handshake, no virtual time.
func (c *Channel) Reconfigure(req EstablishReq) error { return c.net.reconfigureChannel(c, req) }

// Teardown releases the channel over the wire: the source stops its
// traffic and sends a Teardown control frame; the switch frees the
// reservation when the frame arrives, so teardown consumes virtual time
// (unlike Release). On a multi-switch network — which models RT traffic
// only — Teardown is equivalent to Release.
func (c *Channel) Teardown() error { return c.net.teardownChannel(c) }

// Metrics returns an independent snapshot of the channel's delivery
// measurements as of the call, or nil when nothing has been measured yet
// — a channel with only deadline misses on record still reports them.
// Measurements survive release and teardown; the snapshot does not
// change as the simulation continues.
func (c *Channel) Metrics() *ChannelMetrics { return c.net.channelMetrics(c) }

// GuaranteedDelay returns the delivery guarantee for this channel,
// T_max = d + T_latency (Eq. 18.1); on a fabric T_latency scales with the
// hop count of the channel's committed route — for a multicast channel
// that of its farthest sink, so the bound holds for every sink. An
// established channel always has a route, so the value is positive (see
// Network.GuaranteedDelay for the 0 = "no route" convention on raw specs).
func (c *Channel) GuaranteedDelay() int64 { return c.net.channelGuarantee(c) }
