package netsim

import (
	"encoding/binary"
	"fmt"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Node is one end-node: application, RT layer and uplink transmitter
// (the left half of Fig. 18.2). The RT layer stamps outgoing RT
// datagrams with their absolute deadline, keeps the deadline-sorted
// uplink queue, runs the source half of the establishment protocol and
// measures arriving RT traffic against its guarantees.
type Node struct {
	net *Network
	id  core.NodeID
	mac frame.MAC
	ip  frame.IPv4

	up *transmitter // to the switch

	// Establishment client state.
	nextReqID uint8
	pending   map[uint8]func(core.ChannelID, error)

	// AcceptPolicy decides whether this node, as a destination, accepts
	// an incoming RT channel request. Defaults to accepting everything.
	AcceptPolicy func(frame.Request) bool

	// Traffic sources for channels originating here. sourceOrder keeps
	// attachment order so (re)arming is deterministic — map iteration
	// order must never influence the schedule; armSources drops the
	// stopped sources from it as it walks.
	sources     map[core.ChannelID]*source
	sourceOrder []*source

	// Receiver-side metrics.
	rxChannels map[core.ChannelID]*ChannelMetrics
	rxNonRT    *stats.Delay
	rxNonRTN   int64
	rxBadFrame int64

	seq uint64 // payload sequence numbers for frames sent by this node
}

// source generates the periodic traffic of one RT channel: C_i maximal
// frames every P_i slots, starting at the offset.
type source struct {
	fire    func() // the release event, bound once
	channel core.ChannelID
	spec    core.ChannelSpec
	next    int64
	armed   bool
	stopped bool
	sent    int64
}

func newNode(n *Network, id core.NodeID) *Node {
	node := &Node{
		net:          n,
		id:           id,
		mac:          frame.NodeMAC(uint16(id)),
		ip:           frame.NodeIP(uint16(id)),
		pending:      make(map[uint8]func(core.ChannelID, error)),
		AcceptPolicy: func(frame.Request) bool { return true },
		sources:      make(map[core.ChannelID]*source),
		rxChannels:   make(map[core.ChannelID]*ChannelMetrics),
		rxNonRT:      stats.NewDelay(0),
	}
	node.up = newTransmitter(n.eng, &n.cfg,
		func(b []byte, class sched.Class) { n.sw.ingress(node, b, class) })
	return node
}

// ID returns the node's identifier.
func (nd *Node) ID() core.NodeID { return nd.id }

// MAC returns the node's Ethernet address.
func (nd *Node) MAC() frame.MAC { return nd.mac }

// requestChannel starts the establishment handshake: it encodes a
// RequestFrame (Fig. 18.3) and queues it on the uplink as control
// traffic. done fires when the matching ResponseFrame arrives.
func (nd *Node) requestChannel(spec core.ChannelSpec, done func(core.ChannelID, error)) {
	reqID := nd.nextReqID
	nd.nextReqID++
	if _, busy := nd.pending[reqID]; busy {
		done(0, fmt.Errorf("netsim: node %d has 256 establishment requests in flight", nd.id))
		return
	}
	nd.pending[reqID] = done
	req := frame.Request{
		SrcMAC:   nd.mac,
		DstMAC:   frame.NodeMAC(uint16(spec.Dst)),
		SrcIP:    nd.ip,
		DstIP:    frame.NodeIP(uint16(spec.Dst)),
		Period:   uint32(spec.P),
		Capacity: uint32(spec.C),
		Deadline: uint32(spec.D),
		ReqID:    reqID,
	}
	nd.up.enqueueNonRT(req.Encode())
}

// StartTraffic attaches a periodic source for an established channel
// originating at this node, with the given release offset (phase).
func (nd *Node) StartTraffic(id core.ChannelID, offset int64) error {
	ch := nd.net.ctrl.State().Get(id)
	if ch == nil {
		return fmt.Errorf("netsim: channel %d not established", id)
	}
	if ch.Spec.Src != nd.id {
		return fmt.Errorf("netsim: channel %d originates at node %d, not %d", id, ch.Spec.Src, nd.id)
	}
	if _, dup := nd.sources[id]; dup {
		return fmt.Errorf("netsim: channel %d already has a source", id)
	}
	start := nd.net.eng.Now() + offset
	s := &source{channel: id, spec: ch.Spec, next: start}
	s.fire = func() { nd.release(s) }
	nd.sources[id] = s
	nd.sourceOrder = append(nd.sourceOrder, s)
	nd.armSources()
	return nil
}

func (nd *Node) stopSource(id core.ChannelID) {
	if s := nd.sources[id]; s != nil {
		s.stopped = true
		delete(nd.sources, id)
	}
}

// armSources (re)schedules release events for all sources whose next
// release falls within the network horizon, in attachment order, and
// forgets the stopped ones.
func (nd *Node) armSources() {
	live := nd.sourceOrder[:0]
	for _, s := range nd.sourceOrder {
		if !s.stopped {
			nd.armSource(s)
			live = append(live, s)
		}
	}
	clear(nd.sourceOrder[len(live):])
	nd.sourceOrder = live
}

func (nd *Node) armSource(s *source) {
	if s.armed || s.stopped {
		return
	}
	// The clock may have moved past the next release while the source was
	// unarmed (e.g. establishment handshakes for later channels consumed
	// time before the first Run). Missed periods are not released
	// retroactively — the generator was simply not running yet.
	for now := nd.net.eng.Now(); s.next < now; {
		s.next += s.spec.P
	}
	if s.next > nd.net.horizon {
		return
	}
	s.armed = true
	nd.net.eng.AtPrio(s.next, sim.PrioRelease, s.fire)
}

// release emits one period's worth of frames (C_i maximal frames) for a
// channel: each frame is stamped with the absolute end-to-end deadline
// (release + d_i) and EDF-queued on the uplink under the uplink-local
// deadline (release + d_iu) from the channel's current partition.
func (nd *Node) release(s *source) {
	s.armed = false
	if s.stopped {
		return
	}
	now := nd.net.eng.Now()
	ch := nd.net.ctrl.State().Get(s.channel)
	if ch == nil { // torn down concurrently
		s.stopped = true
		return
	}
	for k := int64(0); k < s.spec.C; k++ {
		payload := make([]byte, 16)
		binary.BigEndian.PutUint64(payload[0:8], uint64(now))
		binary.BigEndian.PutUint64(payload[8:16], nd.seq)
		nd.seq++
		d := frame.Data{
			SrcMAC:   nd.mac,
			DstMAC:   frame.NodeMAC(uint16(s.spec.Dst)),
			Deadline: now + s.spec.D,
			Channel:  uint16(s.channel),
			Payload:  payload,
		}
		raw, err := frame.EncodeData(d)
		if err != nil {
			panic(fmt.Sprintf("netsim: encoding RT frame: %v", err))
		}
		nd.net.emit(EvRelease, nd.id, s.channel, d.Deadline)
		nd.up.enqueueRT(now+ch.Part.Up, ch.Part.Up, raw)
		s.sent++
	}
	s.next += s.spec.P
	nd.armSource(s)
}

// CloseChannel initiates a wire-level teardown of a channel originating
// at this node: the local source stops immediately and a Teardown frame
// travels to the switch, which releases the reservation and notifies the
// destination. (Extension — the paper defines establishment only.)
func (nd *Node) CloseChannel(id core.ChannelID) error {
	ch := nd.net.ctrl.State().Get(id)
	if ch == nil {
		return fmt.Errorf("netsim: unknown channel %d", id)
	}
	if ch.Spec.Src != nd.id {
		return fmt.Errorf("netsim: channel %d originates at node %d, not %d", id, ch.Spec.Src, nd.id)
	}
	nd.stopSource(id)
	nd.up.enqueueNonRT(frame.Teardown{SrcMAC: nd.mac, Channel: uint16(id)}.Encode())
	return nil
}

// SendNonRT queues one best-effort frame to another node; the payload is
// prefixed with the send slot so the receiver can measure delay. It
// reports false if the bounded FCFS queue dropped the frame.
func (nd *Node) SendNonRT(dst core.NodeID, payload []byte) bool {
	buf := make([]byte, 8+len(payload))
	binary.BigEndian.PutUint64(buf[0:8], uint64(nd.net.eng.Now()))
	copy(buf[8:], payload)
	p := frame.Plain{
		SrcMAC:  nd.mac,
		DstMAC:  frame.NodeMAC(uint16(dst)),
		SrcIP:   nd.ip,
		DstIP:   frame.NodeIP(uint16(dst)),
		Payload: buf,
	}
	raw, err := frame.EncodePlain(p)
	if err != nil {
		panic(fmt.Sprintf("netsim: encoding non-RT frame: %v", err))
	}
	ok := nd.up.enqueueNonRT(raw)
	if !ok {
		nd.net.emit(EvNonRTDrop, nd.id, 0, 0)
	}
	return ok
}

// receive handles a frame delivered on the node's downlink.
func (nd *Node) receive(b []byte, _ sched.Class) {
	if nd.net.linkDown[nd.id] {
		// The link died with the frame in flight (or queued): drop it, and
		// account RT data as a miss at this receiver.
		if frame.Classify(b) == frame.KindRTData {
			if _, chID, err := frame.PeekDeadline(b); err == nil {
				nd.noteLinkDrop(core.ChannelID(chID))
			}
		}
		return
	}
	switch frame.Classify(b) {
	case frame.KindRTData:
		nd.receiveRTData(b)
	case frame.KindConnect:
		nd.receiveConnect(b)
	case frame.KindResponse:
		nd.receiveResponse(b)
	case frame.KindTeardown:
		// Destination-side notification: per-channel receive state stays
		// for reporting; nothing to free in this model.
	default:
		nd.receiveNonRT(b)
	}
}

// noteLinkDrop counts a frame lost to a dead link as a missed deadline
// of the channel at this receiver — data that never arrives is the
// hardest possible deadline miss.
func (nd *Node) noteLinkDrop(id core.ChannelID) { nd.rx(id).Misses++ }

// rx returns the receiver metrics of a channel, made on first use.
func (nd *Node) rx(id core.ChannelID) *ChannelMetrics {
	m := nd.rxChannels[id]
	if m == nil {
		m = newChannelMetrics()
		nd.rxChannels[id] = m
		nd.net.measured = true
	}
	return m
}

// receiveRTData validates and measures an RT datagram against the
// channel's guarantee T_max = d_i + T_latency (Eq. 18.1).
func (nd *Node) receiveRTData(b []byte) {
	d, err := frame.DecodeData(b)
	if err != nil || len(d.Payload) < 16 {
		nd.rxBadFrame++
		return
	}
	id := core.ChannelID(d.Channel)
	m := nd.rx(id)
	release := int64(binary.BigEndian.Uint64(d.Payload[0:8]))
	now := nd.net.eng.Now()
	delay := now - release
	m.Delays.Observe(delay)
	m.Delivered++
	nd.net.emit(EvDeliver, nd.id, id, delay)
	// The stamped absolute deadline bounds queueing+transmission; the
	// constant propagation component is admitted on top (Eq. 18.1).
	if now > d.Deadline+nd.net.ExtraLatency() {
		m.Misses++
		nd.net.emit(EvMiss, nd.id, id, delay)
	}
}

// receiveConnect runs the destination side of the handshake: accept or
// reject per policy, answering with a ResponseFrame (Fig. 18.4) sent as
// control traffic on the uplink.
func (nd *Node) receiveConnect(b []byte) {
	req, err := frame.DecodeRequest(b)
	if err != nil {
		nd.rxBadFrame++
		return
	}
	resp := frame.Response{
		Channel: req.Channel,
		Accept:  nd.AcceptPolicy(req),
		ReqID:   req.ReqID,
	}
	nd.up.enqueueNonRT(resp.Encode(frame.SwitchMAC))
}

// receiveResponse completes a pending establishment request at the
// source.
func (nd *Node) receiveResponse(b []byte) {
	resp, err := frame.DecodeResponse(b)
	if err != nil {
		nd.rxBadFrame++
		return
	}
	done := nd.pending[resp.ReqID]
	if done == nil {
		nd.rxBadFrame++
		return
	}
	delete(nd.pending, resp.ReqID)
	if !resp.Accept {
		done(0, core.ErrInfeasible)
		return
	}
	done(core.ChannelID(resp.Channel), nil)
}

// receiveNonRT measures best-effort delivery.
func (nd *Node) receiveNonRT(b []byte) {
	p, err := frame.DecodePlain(b)
	if err != nil || len(p.Payload) < 8 {
		nd.rxBadFrame++
		return
	}
	sent := int64(binary.BigEndian.Uint64(p.Payload[0:8]))
	nd.rxNonRT.Observe(nd.net.eng.Now() - sent)
	nd.rxNonRTN++
}

// UplinkBusySlots returns the slots this node's uplink spent transmitting.
func (nd *Node) UplinkBusySlots() int64 { return nd.up.busySlots }

// UplinkDrops returns non-RT frames dropped at this node's uplink queue.
func (nd *Node) UplinkDrops() int64 { return nd.up.port.Drops() }
