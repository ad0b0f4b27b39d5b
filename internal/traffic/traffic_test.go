package traffic

import (
	"math/rand"
	"testing"

	"repro/internal/core"
)

func TestPaperLayoutNodes(t *testing.T) {
	ids := PaperLayout.Nodes()
	if len(ids) != 60 {
		t.Fatalf("paper layout has %d nodes, want 60", len(ids))
	}
	if ids[0] != 0 || ids[9] != 9 || ids[10] != 100 || ids[59] != 149 {
		t.Errorf("node IDs = %v...", ids[:12])
	}
}

func TestRequestsRoundRobin(t *testing.T) {
	reqs := PaperLayout.Requests(200, PaperSpec)
	if len(reqs) != 200 {
		t.Fatalf("got %d requests", len(reqs))
	}
	for k, r := range reqs {
		if r.Src != core.NodeID(k%10) {
			t.Fatalf("request %d src = %d, want %d", k, r.Src, k%10)
		}
		if r.Dst != core.NodeID(100+k%50) {
			t.Fatalf("request %d dst = %d, want %d", k, r.Dst, 100+k%50)
		}
		if r.C != 3 || r.P != 100 || r.D != 40 {
			t.Fatalf("request %d params = %v", k, r)
		}
		if err := r.Validate(); err != nil {
			t.Fatalf("request %d invalid: %v", k, err)
		}
	}
	// Round-robin spreads evenly: each master sources exactly 20 of 200.
	counts := map[core.NodeID]int{}
	for _, r := range reqs {
		counts[r.Src]++
	}
	for m := 0; m < 10; m++ {
		if counts[core.NodeID(m)] != 20 {
			t.Errorf("master %d sources %d channels, want 20", m, counts[core.NodeID(m)])
		}
	}
}

func TestReverseRequests(t *testing.T) {
	reqs := PaperLayout.ReverseRequests(50, PaperSpec)
	for k, r := range reqs {
		if r.Src != core.NodeID(100+k%50) || r.Dst != core.NodeID(k%10) {
			t.Fatalf("reverse request %d = %v", k, r)
		}
	}
}

func TestPoissonArrivals(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	arr := PoissonArrivals(rng, 0.1, 100000)
	if len(arr) == 0 {
		t.Fatal("no arrivals")
	}
	// Mean rate 0.1/slot over 100k slots: expect ~10000, allow wide band.
	if len(arr) < 8000 || len(arr) > 12000 {
		t.Errorf("got %d arrivals, want ≈10000", len(arr))
	}
	prev := int64(-1)
	for _, a := range arr {
		if a < prev || a >= 100000 {
			t.Fatalf("arrival %d out of order or range", a)
		}
		prev = a
	}
	if got := PoissonArrivals(rng, 0, 100); got != nil {
		t.Error("zero rate produced arrivals")
	}
}

func TestUniformOffsets(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	offs := UniformOffsets(rng, 100, 99)
	if len(offs) != 100 {
		t.Fatal("wrong count")
	}
	varied := false
	for _, o := range offs {
		if o < 0 || o > 99 {
			t.Fatalf("offset %d out of range", o)
		}
		if o != offs[0] {
			varied = true
		}
	}
	if !varied {
		t.Error("offsets not varied")
	}
	for _, o := range UniformOffsets(rng, 5, 0) {
		if o != 0 {
			t.Error("maxOffset 0 must give synchronous releases")
		}
	}
}
