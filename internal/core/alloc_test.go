package core

import (
	"runtime"
	"testing"
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
// walk costs the heap under ADPS: nothing per channel it recomputes. An
// accepted establish, a refused establish and a release on an uplink
// carrying 100 channels — each decision repartitions all of them —
// allocate exactly what they do on one carrying 400.
func TestDecisionAllocsIndependentOfLoad(t *testing.T) {
	measure := func(n int) [3]uint64 {
		c := NewController(Config{DPS: ADPS{}})
		spec := func(i int) ChannelSpec {
			return ChannelSpec{Src: 1, Dst: NodeID(101 + i%50), C: 1, P: 100000, D: 4000}
		}
		for i := 0; i < n; i++ {
			if _, err := c.Request(spec(i)); err != nil {
				t.Fatalf("preload %d of %d: %v", i, n, err)
			}
		}
		var ch *Channel
		establish := func() {
			var err error
			if ch, err = c.Request(spec(0)); err != nil {
				t.Fatalf("establish on %d channels: %v", n, err)
			}
		}
		release := func() {
			if err := c.Release(ch.ID); err != nil {
				t.Fatal(err)
			}
		}
		refuse := func() {
			if _, err := c.Request(ChannelSpec{Src: 1, Dst: 101, C: 100000, P: 100000, D: 200000}); err == nil {
				t.Fatalf("over-utilizing establish accepted on %d channels", n)
			}
		}
		nop := func() {}
		return [3]uint64{
			allocsPerOp(100, nop, establish, release),
			allocsPerOp(100, nop, refuse, nop),
			allocsPerOp(100, establish, release, nop),
		}
	}
	small, large := measure(100), measure(400)
	for k, op := range []string{"accepted establish", "refused establish", "release"} {
		if small[k] != large[k] {
			t.Errorf("%s: %d allocs/op with 100 channels on the uplink, %d with 400", op, small[k], large[k])
		}
	}
	t.Logf("allocs/op (accepted establish, refused establish, release): %v", small)
}
