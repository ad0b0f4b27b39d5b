package netsim

import (
	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/sched"
)

// Switch is the store-and-forward switch with the RT layer of Fig. 18.2:
// per-port output queue pairs (EDF + FCFS), the RT channel management
// entity that runs admission control on RequestFrames, and — beyond the
// paper — an optional release-guard shaper that keeps the downlink's
// periodic-task model exact (see Config.DisableShaping).
type Switch struct {
	net *Network

	// down holds one transmitter per attached node (the switch port
	// facing that node).
	down map[core.NodeID]*transmitter
	// macs maps node MACs to IDs for forwarding.
	macs map[frame.MAC]core.NodeID

	// dataplane is the RT channel forwarding table: channel → destination
	// set (one entry for unicast, the sink set for multicast fan-out).
	dataplane map[core.ChannelID][]core.NodeID
	// pendingResp tracks establishment handshakes awaiting the
	// destination's ResponseFrame: channel → requesting node.
	pendingResp map[core.ChannelID]core.NodeID

	holds *hold // free list

	// Counters.
	rtForwarded    int64
	nonRTForwarded int64
	shapedHolds    int64
	unroutable     int64
	badFrames      int64
}

func newSwitch(n *Network) *Switch {
	return &Switch{
		net:         n,
		down:        make(map[core.NodeID]*transmitter),
		macs:        make(map[frame.MAC]core.NodeID),
		dataplane:   make(map[core.ChannelID][]core.NodeID),
		pendingResp: make(map[core.ChannelID]core.NodeID),
	}
}

// hold is an RT frame the release guard keeps back from a downlink
// until it becomes eligible. Fired holds return to the switch's free
// list.
type hold struct {
	sw       *Switch
	tx       *transmitter
	ch       *core.Channel
	deadline int64
	b        []byte
	next     *hold
	fire     func() // run, bound once
}

// run queues the held frame under the channel's downlink budget and
// returns the hold to the free list.
func (h *hold) run() {
	sw, tx, ch, deadline, b := h.sw, h.tx, h.ch, h.deadline, h.b
	h.tx, h.ch, h.b, h.next, sw.holds = nil, nil, nil, sw.holds, h
	tx.enqueueRT(deadline, ch.Part.Down, b)
}

func (sw *Switch) attachNode(node *Node) {
	nd := node // capture for the closure
	sw.down[node.id] = newTransmitter(sw.net.eng, &sw.net.cfg,
		func(b []byte, class sched.Class) { nd.receive(b, class) })
	sw.macs[node.mac] = node.id
}

func (sw *Switch) forget(id core.ChannelID) {
	delete(sw.dataplane, id)
	delete(sw.pendingResp, id)
}

// ingress handles a frame arriving from a node's uplink.
func (sw *Switch) ingress(from *Node, b []byte, _ sched.Class) {
	if sw.net.linkDown[from.id] {
		sw.dropDead(b)
		return
	}
	switch frame.Classify(b) {
	case frame.KindRTData:
		sw.ingressRTData(b)
	case frame.KindConnect:
		sw.ingressConnect(from, b)
	case frame.KindResponse:
		sw.ingressResponse(b)
	case frame.KindTeardown:
		sw.ingressTeardown(from, b)
	default:
		sw.ingressNonRT(b)
	}
}

// dropDead accounts a frame lost crossing a dead uplink. RT data counts
// as a miss at every destination it would have reached; control and
// best-effort frames vanish, as they would on a real unplugged cable.
func (sw *Switch) dropDead(b []byte) {
	if frame.Classify(b) != frame.KindRTData {
		return
	}
	_, chID, err := frame.PeekDeadline(b)
	if err != nil {
		return
	}
	id := core.ChannelID(chID)
	for _, dst := range sw.dataplane[id] {
		if node := sw.net.nodes[dst]; node != nil {
			node.noteLinkDrop(id)
		}
	}
}

// ingressTeardown releases a channel on request of its source node and
// forwards the notification to the destination.
func (sw *Switch) ingressTeardown(from *Node, b []byte) {
	td, err := frame.DecodeTeardown(b)
	if err != nil {
		sw.badFrames++
		return
	}
	id := core.ChannelID(td.Channel)
	ch := sw.net.ctrl.State().Get(id)
	if ch == nil || ch.Spec.Src != from.id {
		// Unknown channel or a node trying to tear down someone else's.
		sw.badFrames++
		return
	}
	dsts := fanout(ch)
	sw.forget(id)
	_ = sw.net.ctrl.Release(id)
	for i, dst := range dsts {
		tx := sw.down[dst]
		if tx == nil {
			continue
		}
		copyB := b
		if i > 0 {
			copyB = append([]byte(nil), b...)
		}
		tx.enqueueNonRT(copyB)
	}
}

// ingressRTData forwards an RT datagram to the destination port's EDF
// queue under its stamped absolute deadline — for a multicast channel,
// to every sink port, each copy scheduled independently under the
// shared downlink budget. With shaping enabled the frame only becomes
// eligible at absDeadline - d_id — a frame that beat its uplink budget
// waits out the difference, so the downlink never sees a release
// pattern burstier than the periodic one its feasibility test assumed.
func (sw *Switch) ingressRTData(b []byte) {
	deadline, chID, err := frame.PeekDeadline(b)
	if err != nil {
		sw.badFrames++
		return
	}
	id := core.ChannelID(chID)
	dsts, ok := sw.dataplane[id]
	if !ok {
		sw.unroutable++
		return
	}
	ch := sw.net.ctrl.State().Get(id)
	if ch == nil {
		sw.unroutable++
		return
	}
	now := sw.net.eng.Now()
	eligible := deadline - ch.Part.Down
	for i, dst := range dsts {
		tx := sw.down[dst]
		if tx == nil {
			sw.unroutable++
			continue
		}
		sw.rtForwarded++
		copyB := b
		if i > 0 {
			// Fan-out replicates the frame; each sink's copy must be
			// independent (delivery hooks may mutate the bytes).
			copyB = append([]byte(nil), b...)
		}
		if !sw.net.cfg.DisableShaping && eligible > now {
			sw.shapedHolds++
			sw.net.emit(EvShaperHold, dst, id, eligible)
			h := sw.holds
			if h == nil {
				h = &hold{sw: sw}
				h.fire = h.run
			} else {
				sw.holds = h.next
			}
			h.tx, h.ch, h.deadline, h.b = tx, ch, deadline, copyB
			sw.net.eng.At(eligible, h.fire)
			continue
		}
		tx.enqueueRT(deadline, ch.Part.Down, copyB)
	}
}

// fanout returns a channel's destination set for the forwarding table:
// the sink set of a multicast channel, the single destination otherwise.
func fanout(ch *core.Channel) []core.NodeID {
	if ch.Multicast() {
		return ch.Sinks
	}
	return []core.NodeID{ch.Spec.Dst}
}

// ingressConnect is the RT channel management entry point (§18.2.2): run
// the feasibility test; on success assign the network-unique channel ID,
// install nothing yet, and forward the RequestFrame to the destination;
// on failure answer the source directly with a rejecting ResponseFrame.
func (sw *Switch) ingressConnect(from *Node, b []byte) {
	req, err := frame.DecodeRequest(b)
	if err != nil {
		sw.badFrames++
		return
	}
	dstID, ok := sw.macs[req.DstMAC]
	if !ok {
		sw.reply(from.id, frame.Response{Accept: false, ReqID: req.ReqID})
		return
	}
	spec := core.ChannelSpec{
		Src: from.id,
		Dst: dstID,
		P:   int64(req.Period),
		C:   int64(req.Capacity),
		D:   int64(req.Deadline),
	}
	ch, err := sw.net.ctrl.Request(spec)
	if err != nil {
		sw.net.lastReject = err
		sw.net.emit(EvRejected, from.id, 0, 0)
		sw.reply(from.id, frame.Response{Accept: false, ReqID: req.ReqID})
		return
	}
	sw.net.issued(ch.ID, nil)
	sw.net.emit(EvAdmitted, from.id, ch.ID, int64(ch.Part.Up))
	// Feasible: forward the request, now carrying the assigned ID, to the
	// destination for its consent.
	req.Channel = uint16(ch.ID)
	sw.pendingResp[ch.ID] = from.id
	fwd := req.Encode()
	// Rewrite the Ethernet header: switch → destination node.
	dstMAC := frame.NodeMAC(uint16(dstID))
	copy(fwd[0:6], dstMAC[:])
	copy(fwd[6:12], frame.SwitchMAC[:])
	if tx := sw.down[dstID]; tx != nil {
		tx.enqueueNonRT(fwd)
	}
}

// ingressResponse completes the handshake: on acceptance the dataplane
// entry goes live and the response is forwarded to the source; on
// rejection the tentatively admitted channel is released first.
func (sw *Switch) ingressResponse(b []byte) {
	resp, err := frame.DecodeResponse(b)
	if err != nil {
		sw.badFrames++
		return
	}
	id := core.ChannelID(resp.Channel)
	src, ok := sw.pendingResp[id]
	if !ok {
		sw.badFrames++
		return
	}
	delete(sw.pendingResp, id)
	if resp.Accept {
		if ch := sw.net.ctrl.State().Get(id); ch != nil {
			sw.dataplane[id] = fanout(ch)
		}
	} else {
		_ = sw.net.ctrl.Release(id)
	}
	sw.reply(src, resp)
}

// ingressNonRT forwards best-effort traffic by destination MAC through
// the FCFS queue of the destination port.
func (sw *Switch) ingressNonRT(b []byte) {
	h, err := frame.ParseHeader(b)
	if err != nil {
		sw.badFrames++
		return
	}
	dst, ok := sw.macs[h.Dst]
	if !ok {
		sw.unroutable++
		return
	}
	sw.nonRTForwarded++
	sw.down[dst].enqueueNonRT(b)
}

// reply queues a ResponseFrame to a node as control traffic.
func (sw *Switch) reply(to core.NodeID, resp frame.Response) {
	if tx := sw.down[to]; tx != nil {
		tx.enqueueNonRT(resp.Encode(frame.NodeMAC(uint16(to))))
	}
}

// DownlinkBusySlots returns the observed busy slots of one switch port.
func (sw *Switch) DownlinkBusySlots(id core.NodeID) int64 {
	if tx := sw.down[id]; tx != nil {
		return tx.busySlots
	}
	return 0
}

// DownlinkDrops returns non-RT drops at one switch port.
func (sw *Switch) DownlinkDrops(id core.NodeID) int64 {
	if tx := sw.down[id]; tx != nil {
		return tx.port.Drops()
	}
	return 0
}

// Counters returns the switch's forwarding counters: RT and non-RT frames
// forwarded, shaper holds, unroutable frames and undecodable frames.
func (sw *Switch) Counters() (rt, nonRT, shaped, unroutable, bad int64) {
	return sw.rtForwarded, sw.nonRTForwarded, sw.shapedHolds, sw.unroutable, sw.badFrames
}
