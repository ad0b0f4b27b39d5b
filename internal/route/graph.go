package route

import (
	"fmt"
	"sort"

	"repro/internal/core"
)

// Graph is the physical layout — switches, inter-switch trunks and node
// attachments — plus the live availability of every element. Construction
// and mutation are not safe for concurrent use; the owning controller
// serializes access.
//
// Failures are modeled as state, not structure: a downed trunk or switch
// stays in the graph (so repair is a pure flag flip) but is skipped by
// every route traversal. With nothing down, traversal order is
// bit-identical to the historical immutable topology.
type Graph struct {
	switches map[SwitchID]struct{}
	adj      map[SwitchID][]SwitchID    // sorted adjacency, both directions
	home     map[core.NodeID]SwitchID   // node → attachment switch
	nodesAt  map[SwitchID][]core.NodeID // reverse, sorted

	downTrunks   map[[2]SwitchID]struct{} // canonical low-high keys
	downSwitches map[SwitchID]struct{}
	version      uint64
}

// NewGraph returns an empty fabric with every element up.
func NewGraph() *Graph {
	return &Graph{
		switches:     make(map[SwitchID]struct{}),
		adj:          make(map[SwitchID][]SwitchID),
		home:         make(map[core.NodeID]SwitchID),
		nodesAt:      make(map[SwitchID][]core.NodeID),
		downTrunks:   make(map[[2]SwitchID]struct{}),
		downSwitches: make(map[SwitchID]struct{}),
	}
}

// trunkKey canonicalizes an undirected trunk to a (low, high) pair.
func trunkKey(a, b SwitchID) [2]SwitchID {
	if a > b {
		a, b = b, a
	}
	return [2]SwitchID{a, b}
}

// AddSwitch registers a switch. Registering the same ID twice is an
// ErrDuplicate, not a silent no-op.
func (g *Graph) AddSwitch(id SwitchID) error {
	if _, dup := g.switches[id]; dup {
		return fmt.Errorf("%w: switch %d", ErrDuplicate, id)
	}
	g.switches[id] = struct{}{}
	return nil
}

// ConnectSwitches adds a full-duplex trunk between two switches. Self
// loops and duplicate trunks are rejected with ErrDuplicate.
func (g *Graph) ConnectSwitches(a, b SwitchID) error {
	if _, ok := g.switches[a]; !ok {
		return fmt.Errorf("%w: %d", ErrUnknownSwitch, a)
	}
	if _, ok := g.switches[b]; !ok {
		return fmt.Errorf("%w: %d", ErrUnknownSwitch, b)
	}
	if a == b {
		return fmt.Errorf("%w: self-link on switch %d", ErrDuplicate, a)
	}
	for _, n := range g.adj[a] {
		if n == b {
			return fmt.Errorf("%w: trunk %d-%d", ErrDuplicate, a, b)
		}
	}
	g.adj[a] = insertSorted(g.adj[a], b)
	g.adj[b] = insertSorted(g.adj[b], a)
	return nil
}

func insertSorted(s []SwitchID, v SwitchID) []SwitchID {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// AttachNode homes an end-node on a switch. Re-attaching an
// already-homed node is an ErrDuplicate, not a silent overwrite.
func (g *Graph) AttachNode(n core.NodeID, s SwitchID) error {
	if _, ok := g.switches[s]; !ok {
		return fmt.Errorf("%w: %d", ErrUnknownSwitch, s)
	}
	if _, dup := g.home[n]; dup {
		return fmt.Errorf("%w: node %d", ErrDuplicate, n)
	}
	g.home[n] = s
	g.nodesAt[s] = append(g.nodesAt[s], n)
	sort.Slice(g.nodesAt[s], func(i, j int) bool { return g.nodesAt[s][i] < g.nodesAt[s][j] })
	return nil
}

// Home returns the switch a node attaches to.
func (g *Graph) Home(n core.NodeID) (SwitchID, bool) {
	s, ok := g.home[n]
	return s, ok
}

// NodesAt returns the nodes homed on a switch, ascending. The slice is
// shared; callers must not mutate it.
func (g *Graph) NodesAt(s SwitchID) []core.NodeID { return g.nodesAt[s] }

// Neighbors returns the switches trunked to s, ascending, regardless of
// up/down state. The slice is shared; callers must not mutate it.
func (g *Graph) Neighbors(s SwitchID) []SwitchID { return g.adj[s] }

// SetLinkUp marks the trunk between a and b as up or down. The trunk
// must exist; a downed trunk stays in the graph (repair is SetLinkUp
// true) but is skipped by routing. It reports whether the state changed.
func (g *Graph) SetLinkUp(a, b SwitchID, up bool) (bool, error) {
	found := false
	for _, n := range g.adj[a] {
		if n == b {
			found = true
			break
		}
	}
	if !found {
		return false, fmt.Errorf("%w: trunk %d-%d", ErrUnknownLink, a, b)
	}
	key := trunkKey(a, b)
	_, down := g.downTrunks[key]
	if down != up {
		return false, nil // already in the requested state
	}
	if up {
		delete(g.downTrunks, key)
	} else {
		g.downTrunks[key] = struct{}{}
	}
	g.version++
	return true, nil
}

// SetSwitchUp marks a switch as up or down. A downed switch is skipped
// by routing along with every trunk touching it; nodes homed on it
// become unreachable. It reports whether the state changed.
func (g *Graph) SetSwitchUp(s SwitchID, up bool) (bool, error) {
	if _, ok := g.switches[s]; !ok {
		return false, fmt.Errorf("%w: %d", ErrUnknownSwitch, s)
	}
	_, down := g.downSwitches[s]
	if down != up {
		return false, nil
	}
	if up {
		delete(g.downSwitches, s)
	} else {
		g.downSwitches[s] = struct{}{}
	}
	g.version++
	return true, nil
}

// LinkUp reports whether the trunk between a and b is up. Unknown trunks
// report false.
func (g *Graph) LinkUp(a, b SwitchID) bool {
	found := false
	for _, n := range g.adj[a] {
		if n == b {
			found = true
			break
		}
	}
	if !found {
		return false
	}
	_, down := g.downTrunks[trunkKey(a, b)]
	return !down
}

// SwitchUp reports whether a switch is up. Unknown switches report false.
func (g *Graph) SwitchUp(s SwitchID) bool {
	if _, ok := g.switches[s]; !ok {
		return false
	}
	_, down := g.downSwitches[s]
	return !down
}

// Version counts graph mutations that can invalidate routes (up/down
// flips). Consumers caching routes compare versions to detect staleness.
func (g *Graph) Version() uint64 { return g.version }

// usable reports whether the directed hop cur→next may carry traffic:
// both switches and the trunk between them are up.
func (g *Graph) usable(cur, next SwitchID) bool {
	return g.SwitchUp(next) && g.LinkUp(cur, next)
}
