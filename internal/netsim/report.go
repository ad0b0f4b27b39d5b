package netsim

import (
	"sort"

	"repro/internal/core"
	"repro/internal/stats"
)

// ChannelMetrics aggregates receiver-side measurements for one RT channel.
type ChannelMetrics struct {
	Delivered int64 // RT frames delivered to the destination RT layer
	Misses    int64 // frames arriving after d_i + T_latency
	// HopLate counts frames that completed a hop after their hop-local
	// deadline (release + the budgets through that hop). Only the
	// fabric measures it; the star reports 0.
	HopLate int64
	Delays  *stats.Delay // end-to-end delay distribution (slots)
}

func newChannelMetrics() *ChannelMetrics {
	return &ChannelMetrics{Delays: stats.NewDelay(0)}
}

// Report is a snapshot of everything the experiments measure.
type Report struct {
	Now int64 // simulation time of the snapshot

	// Channels maps every channel with delivered traffic to its metrics.
	Channels map[core.ChannelID]*ChannelMetrics

	// NonRTDelivered counts best-effort frames that reached their
	// destination; NonRTDelay is their delay distribution.
	NonRTDelivered int64
	NonRTDelay     *stats.Delay
	// NonRTDrops counts frames dropped at bounded FCFS queues anywhere.
	NonRTDrops int64

	// BadFrames counts undecodable frames seen by nodes or switch
	// (always 0 in a healthy simulation).
	BadFrames int64

	// LinkBusy maps each directed link to the fraction of elapsed slots
	// its transmitter spent sending (observed utilization, both traffic
	// classes).
	LinkBusy map[core.Link]float64
}

// Report gathers metrics from all nodes and the switch. Aggregates are
// merged deterministically (nodes in creation order).
func (n *Network) Report() *Report {
	r := &Report{
		Now:        n.eng.Now(),
		Channels:   make(map[core.ChannelID]*ChannelMetrics),
		NonRTDelay: stats.NewDelay(0),
		LinkBusy:   make(map[core.Link]float64),
	}
	_, _, _, _, bad := n.sw.Counters()
	r.BadFrames = bad
	for _, id := range n.nodeIDs {
		node := n.nodes[id]
		for chID, m := range node.rxChannels {
			if prev := r.Channels[chID]; prev != nil {
				// Several receivers (multicast): aggregate into a snapshot
				// instead of overwriting one sink's view with another's.
				merged := newChannelMetrics()
				merged.Delivered = prev.Delivered + m.Delivered
				merged.Misses = prev.Misses + m.Misses
				merged.Delays.Merge(prev.Delays)
				merged.Delays.Merge(m.Delays)
				r.Channels[chID] = merged
				continue
			}
			r.Channels[chID] = m
		}
		r.NonRTDelivered += node.rxNonRTN
		r.NonRTDrops += node.UplinkDrops()
		r.NonRTDrops += n.sw.DownlinkDrops(id)
		r.BadFrames += node.rxBadFrame
		r.NonRTDelay.Merge(node.rxNonRT)
		if r.Now > 0 {
			r.LinkBusy[core.Uplink(id)] = float64(node.UplinkBusySlots()) / float64(r.Now)
			r.LinkBusy[core.Downlink(id)] = float64(n.sw.DownlinkBusySlots(id)) / float64(r.Now)
		}
	}
	return r
}

// WorstDelay returns the maximum observed end-to-end delay across all
// channels, with the channel it occurred on. Zero values when no RT
// traffic was delivered.
func (r *Report) WorstDelay() (core.ChannelID, int64) {
	var worstID core.ChannelID
	var worst int64 = -1
	ids := make([]core.ChannelID, 0, len(r.Channels))
	for id := range r.Channels {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if m := r.Channels[id]; m.Delays.Max() > worst {
			worst = m.Delays.Max()
			worstID = id
		}
	}
	if worst < 0 {
		return 0, 0
	}
	return worstID, worst
}

// TotalMisses sums deadline misses across channels.
func (r *Report) TotalMisses() int64 {
	var total int64
	for _, m := range r.Channels {
		total += m.Misses
	}
	return total
}

// TotalDelivered sums delivered RT frames across channels.
func (r *Report) TotalDelivered() int64 {
	var total int64
	for _, m := range r.Channels {
		total += m.Delivered
	}
	return total
}
