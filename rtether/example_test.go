package rtether_test

import (
	"errors"
	"fmt"

	"repro/rtether"
)

// The canonical session: build a star network, establish a guaranteed
// channel, run traffic, verify the guarantee.
func Example() {
	net := rtether.New(rtether.WithADPS())
	net.MustAddNode(1)
	net.MustAddNode(2)

	ch, err := net.Establish(rtether.ChannelSpec{Src: 1, Dst: 2, C: 3, P: 100, D: 40})
	if err != nil {
		fmt.Println("rejected:", err)
		return
	}
	ch.Start(0)
	net.RunFor(1000)

	m := ch.Metrics()
	fmt.Printf("misses=%d worst<=guarantee=%v\n",
		m.Misses, m.Delays.Max() <= ch.GuaranteedDelay())
	// Output: misses=0 worst<=guarantee=true
}

// Admission control rejects what it cannot guarantee — and says why: the
// seventh channel on one uplink under SDPS overloads link(1,up).
func ExampleNetwork_Establish_rejection() {
	net := rtether.New() // SDPS by default
	for id := rtether.NodeID(1); id <= 8; id++ {
		net.MustAddNode(id)
	}
	for i := 0; i < 7; i++ {
		_, err := net.Establish(rtether.ChannelSpec{
			Src: 1, Dst: rtether.NodeID(2 + i), C: 3, P: 100, D: 40,
		})
		var ae *rtether.AdmissionError
		if errors.As(err, &ae) {
			fmt.Printf("rejected at %s (hop %d): infeasible=%v\n",
				ae.Link, ae.Hop, errors.Is(err, rtether.ErrInfeasible))
		}
	}
	// Output: rejected at link(1,up) (hop 0): infeasible=true
}

// ADPS splits deadlines by link load: a master uplink carrying five
// channels gets five sixths of each deadline.
func ExampleADPS() {
	net := rtether.New(rtether.WithADPS())
	net.MustAddNode(1)
	for id := rtether.NodeID(10); id < 15; id++ {
		net.MustAddNode(id)
	}
	var last *rtether.Channel
	for id := rtether.NodeID(10); id < 15; id++ {
		ch, err := net.Establish(rtether.ChannelSpec{Src: 1, Dst: id, C: 3, P: 100, D: 40})
		if err != nil {
			panic(err)
		}
		last = ch
	}
	b := last.Budgets()
	fmt.Printf("up=%d down=%d\n", b[0], b[1])
	// Output: up=33 down=7
}

// A multi-switch topology routes channels across interconnected switches
// and splits deadlines per hop.
func ExampleWithTopology() {
	top := rtether.NewTopology()
	top.AddSwitch(0)
	top.AddSwitch(1)
	top.Trunk(0, 1)
	top.Attach(1, 0)
	top.Attach(2, 1)

	net := rtether.New(rtether.WithTopology(top), rtether.WithHDPS(rtether.HADPS()))
	ch, err := net.Establish(rtether.ChannelSpec{Src: 1, Dst: 2, C: 3, P: 100, D: 42})
	if err != nil {
		panic(err)
	}
	sum := int64(0)
	for _, b := range ch.Budgets() {
		sum += b
	}
	fmt.Printf("hops=%d sum=%d\n", len(ch.Budgets()), sum)
	// Output: hops=3 sum=42
}

// The flight recorder captures admission decisions and per-frame events.
func ExampleNetwork_SetTracer() {
	net := rtether.New()
	net.MustAddNode(1)
	net.MustAddNode(2)
	tr := rtether.NewRingTracer(128)
	net.SetTracer(tr)

	ch, _ := net.Establish(rtether.ChannelSpec{Src: 1, Dst: 2, C: 1, P: 50, D: 20})
	ch.Start(0)
	net.RunFor(200)

	admits, delivers := 0, 0
	for _, e := range tr.Events() {
		switch e.Kind {
		case rtether.EvAdmitted:
			admits++
		case rtether.EvDeliver:
			delivers++
		}
	}
	fmt.Printf("admits=%d delivered>0=%v\n", admits, delivers > 0)
	// Output: admits=1 delivered>0=true
}

// The paper's headline in miniature: master controllers polling slave
// devices over one switch, channels requested until the network
// refuses. ADPS gives the loaded master uplinks a larger share of each
// deadline and accepts almost twice as many channels as SDPS; the
// accepted set then runs with every frame on time.
func Example_masterSlave() {
	for _, dps := range []rtether.DPS{rtether.SDPS(), rtether.ADPS()} {
		net := rtether.New(rtether.WithDPS(dps))
		for m := rtether.NodeID(0); m < 4; m++ {
			net.MustAddNode(m)
		}
		for s := rtether.NodeID(100); s < 120; s++ {
			net.MustAddNode(s)
		}
		accepted := 0
		for k := 0; k < 80; k++ {
			ch, err := net.Establish(rtether.ChannelSpec{
				Src: rtether.NodeID(k % 4), Dst: rtether.NodeID(100 + k%20), C: 3, P: 100, D: 40,
			})
			if err != nil {
				continue
			}
			ch.Start(0)
			accepted++
		}
		net.RunFor(3000)
		fmt.Printf("%s accepted %d of 80, misses=%d\n", dps.Name(), accepted, net.Report().TotalMisses())
	}
	// Output:
	// SDPS accepted 24 of 80, misses=0
	// ADPS accepted 44 of 80, misses=0
}

// Real-time channels and best-effort traffic share one Ethernet: a
// control loop keeps its delays while a bulk transfer from the same
// node tries to send a frame every slot and gets only the leftover
// bandwidth.
func Example_mixedTraffic() {
	net := rtether.New(rtether.WithADPS(), rtether.WithNonRTQueueCap(128))
	for id := rtether.NodeID(1); id <= 3; id++ {
		net.MustAddNode(id)
	}
	loop, err := net.Establish(rtether.ChannelSpec{Src: 1, Dst: 2, C: 2, P: 50, D: 20})
	if err != nil {
		panic(err)
	}
	loop.Start(0)
	net.RunFor(2000)
	m := loop.Metrics()
	fmt.Printf("alone:   max delay %d, misses=%d\n", m.Delays.Max(), m.Misses)

	start := net.Now()
	for t := int64(0); t < 4000; t++ {
		net.SendBestEffort(1, 3, []byte("chunk"))
		net.RunUntil(start + t + 1)
	}
	m = loop.Metrics()
	rep := net.Report()
	fmt.Printf("flooded: max delay %d, misses=%d\n", m.Delays.Max(), m.Misses)
	fmt.Printf("bulk: delivered %d, dropped %d\n", rep.NonRTDelivered, rep.NonRTDrops)
	// Output:
	// alone:   max delay 12, misses=0
	// flooded: max delay 12, misses=0
	// bulk: delivered 3839, dropped 32
}

// Channels come and go at run time: a controller tears down two slow
// monitoring channels over the wire and establishes faster, tighter
// control channels to the same sensors without a missed deadline.
func Example_reconfiguration() {
	net := rtether.New(rtether.WithADPS())
	net.MustAddNode(1)
	sensors := []rtether.NodeID{10, 11, 12, 13}
	var monitoring []*rtether.Channel
	for _, s := range sensors {
		net.MustAddNode(s)
		ch, err := net.Establish(rtether.ChannelSpec{Src: 1, Dst: s, C: 2, P: 200, D: 100})
		if err != nil {
			panic(err)
		}
		ch.Start(0)
		monitoring = append(monitoring, ch)
	}
	net.RunFor(2000)

	for _, ch := range monitoring[:2] {
		if err := ch.Teardown(); err != nil {
			panic(err)
		}
	}
	net.RunFor(10) // the teardown frames reach the switch
	for _, s := range sensors[:2] {
		ch, err := net.Establish(rtether.ChannelSpec{Src: 1, Dst: s, C: 2, P: 50, D: 20})
		if err != nil {
			panic(err)
		}
		ch.Start(0)
	}
	net.RunFor(2000)
	rep := net.Report()
	fmt.Printf("active=%d delivered=%d misses=%d\n", len(net.Channels()), rep.TotalDelivered(), rep.TotalMisses())
	// Output: active=4 delivered=276 misses=0
}

// Two cells joined by one trunk: every channel crosses it. H-SDPS
// splits each deadline equally over the three hops and the trunk
// saturates first; H-ADPS weights the split by link load and admits
// more than twice as many channels.
func Example_multiSwitch() {
	top := rtether.NewTopology()
	top.AddSwitch(0)
	top.AddSwitch(1)
	top.Trunk(0, 1)
	for m := rtether.NodeID(0); m < 6; m++ {
		top.Attach(m, 0)
	}
	for d := rtether.NodeID(100); d < 112; d++ {
		top.Attach(d, 1)
	}
	for _, hdps := range []rtether.HDPS{rtether.HSDPS(), rtether.HADPS()} {
		net := rtether.New(rtether.WithTopology(top), rtether.WithHDPS(hdps))
		accepted := 0
		var first *rtether.AdmissionError
		for k := 0; k < 120; k++ {
			ch, err := net.Establish(rtether.ChannelSpec{
				Src: rtether.NodeID(k % 6), Dst: rtether.NodeID(100 + k%12), C: 3, P: 300, D: 60,
			})
			if err != nil {
				if first == nil {
					errors.As(err, &first)
				}
				continue
			}
			ch.Start(0)
			accepted++
		}
		net.RunFor(3000)
		fmt.Printf("%s accepted %d of 120, first rejection at %s, misses=%d\n",
			hdps.Name(), accepted, first.Link, net.Report().TotalMisses())
	}
	// Output:
	// H-SDPS accepted 6 of 120, first rejection at sw0→sw1, misses=0
	// H-ADPS accepted 15 of 120, first rejection at sw1→n100, misses=0
}
