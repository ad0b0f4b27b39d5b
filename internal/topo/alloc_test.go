package topo

import (
	"runtime"
	"testing"

	"repro/internal/core"
)

// allocsPerOp is testing.AllocsPerRun counting op alone: prep runs before
// and undo after every op, outside the count. The first run warms the
// buffers up and is not counted.
func allocsPerOp(runs int, prep, op, undo func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	var total uint64
	for i := 0; i <= runs; i++ {
		prep()
		runtime.ReadMemStats(&before)
		op()
		runtime.ReadMemStats(&after)
		undo()
		if i > 0 {
			total += after.Mallocs - before.Mallocs
		}
	}
	return total / uint64(runs)
}

// TestDecisionAllocsIndependentOfLoad pins what the kernel's repartition
// walk costs the heap under H-ADPS: nothing per channel it recomputes,
// unicast or multicast tree. On a two-switch line an accepted establish,
// a refused establish and a release of each kind, with 100 channels on
// the trunk — each decision repartitions all of them — allocate exactly
// what they do with 400.
func TestDecisionAllocsIndependentOfLoad(t *testing.T) {
	unicast := Req{Spec: core.ChannelSpec{Src: 1, Dst: 101, C: 1, P: 100000, D: 6000}}
	multicast := Req{Spec: core.ChannelSpec{Src: 1, Dst: 101, C: 1, P: 100000, D: 6000}, Sinks: []core.NodeID{101, 102, 103}}
	measure := func(n int, r Req) [3]uint64 {
		tp := Line(2)
		for i := 0; i < 20; i++ {
			if err := tp.AttachNode(core.NodeID(1+i), 0); err != nil {
				t.Fatal(err)
			}
			if err := tp.AttachNode(core.NodeID(101+i), 1); err != nil {
				t.Fatal(err)
			}
		}
		c := NewController(tp, Config{DPS: HADPS{}})
		for i := 0; i < n; i++ {
			spec := core.ChannelSpec{Src: core.NodeID(1 + i%20), Dst: core.NodeID(101 + i%20), C: 1, P: 100000, D: 6000}
			if _, err := c.Request(spec); err != nil {
				t.Fatalf("preload %d of %d: %v", i, n, err)
			}
		}
		refused := r
		refused.Spec.C, refused.Spec.P, refused.Spec.D = 100000, 100000, 400000
		var ch *HChannel
		establish := func() {
			chs, err := c.Admit([]Req{r})
			if err != nil {
				t.Fatalf("%v on %d channels: %v", r, n, err)
			}
			ch = chs[0]
		}
		release := func() {
			if err := c.Release(ch.ID); err != nil {
				t.Fatal(err)
			}
		}
		refuse := func() {
			if _, err := c.Admit([]Req{refused}); err == nil {
				t.Fatalf("over-utilizing %v accepted on %d channels", refused, n)
			}
		}
		nop := func() {}
		return [3]uint64{
			allocsPerOp(100, nop, establish, release),
			allocsPerOp(100, nop, refuse, nop),
			allocsPerOp(100, establish, release, nop),
		}
	}
	for _, r := range []Req{unicast, multicast} {
		small, large := measure(100, r), measure(400, r)
		for k, op := range []string{"accepted establish", "refused establish", "release"} {
			if small[k] != large[k] {
				t.Errorf("%v: %s: %d allocs/op with 100 channels on the trunk, %d with 400", r, op, small[k], large[k])
			}
		}
		t.Logf("%v: allocs/op (accepted establish, refused establish, release): %v", r, small)
	}
}
