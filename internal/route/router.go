package route

import (
	"fmt"

	"repro/internal/core"
)

// Shortest routes along deterministic shortest paths: BFS over the trunk
// graph with sorted adjacency, so the choice among equal-length paths is
// stable. On a fully-up graph it reproduces the historical fixed-route
// behavior bit-for-bit; downed trunks and switches are skipped. It only
// reads the graph: failures enter routing purely through the graph's
// up/down state.
type Shortest struct{}

// Route returns the directed links of a path from src to dst:
// src→home(src), a trunk sequence, home(dst)→dst.
func (Shortest) Route(g *Graph, src, dst core.NodeID) ([]Edge, error) {
	sSrc, sDst, err := endpoints(g, src, dst)
	if err != nil {
		return nil, err
	}
	swPath, err := shortestSwitchPath(g, sSrc, sDst)
	if err != nil {
		return nil, err
	}
	return assemble(src, dst, swPath), nil
}

// Tree returns a distribution tree from src to every sink: the tree's
// directed edges (edge 0 is the source uplink), the parent index of each
// edge (-1 for the root; always parents[i] < i), and for each sink the
// index of its delivering leaf edge. One BFS from home(src) fixes a
// deterministic shortest path to every reachable switch, each sink's
// path is read off the same predecessor map, and shared prefixes
// therefore dedupe into single tree edges.
func (Shortest) Tree(g *Graph, src core.NodeID, sinks []core.NodeID) (route []Edge, parents []int, leaves []int, err error) {
	sSrc, ok := g.home[src]
	if !ok {
		return nil, nil, nil, fmt.Errorf("%w: %d", ErrUnknownNode, src)
	}
	prev := map[SwitchID]SwitchID{}
	if g.SwitchUp(sSrc) {
		// Full BFS from the source switch; prev[s] is s's predecessor on
		// the unique (deterministic, sorted-adjacency) shortest path.
		prev[sSrc] = sSrc
		queue := []SwitchID{sSrc}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, next := range g.adj[cur] {
				if _, seen := prev[next]; seen {
					continue
				}
				if !g.usable(cur, next) {
					continue
				}
				prev[next] = cur
				queue = append(queue, next)
			}
		}
	}
	return graft(g, src, sinks, sSrc, prev)
}

// endpoints validates a unicast pair and resolves both home switches.
func endpoints(g *Graph, src, dst core.NodeID) (sSrc, sDst SwitchID, err error) {
	if src == dst {
		return 0, 0, fmt.Errorf("route: route from node %d to itself", src)
	}
	sSrc, ok := g.home[src]
	if !ok {
		return 0, 0, fmt.Errorf("%w: %d", ErrUnknownNode, src)
	}
	sDst, ok = g.home[dst]
	if !ok {
		return 0, 0, fmt.Errorf("%w: %d", ErrUnknownNode, dst)
	}
	return sSrc, sDst, nil
}

// assemble turns a switch path into the full directed-edge route.
func assemble(src, dst core.NodeID, swPath []SwitchID) []Edge {
	edges := make([]Edge, 0, len(swPath)+1)
	edges = append(edges, Edge{From: NodeEnd(src), To: SwitchEnd(swPath[0])})
	for i := 1; i < len(swPath); i++ {
		edges = append(edges, Edge{From: SwitchEnd(swPath[i-1]), To: SwitchEnd(swPath[i])})
	}
	edges = append(edges, Edge{From: SwitchEnd(swPath[len(swPath)-1]), To: NodeEnd(dst)})
	return edges
}

// graft builds Tree's edges: walk each sink's path back to the source
// switch on the predecessor map, then graft the not-yet-spanned suffix
// onto the tree front to back.
func graft(g *Graph, src core.NodeID, sinks []core.NodeID, sSrc SwitchID, prev map[SwitchID]SwitchID) (route []Edge, parents []int, leaves []int, err error) {
	route = append(route, Edge{From: NodeEnd(src), To: SwitchEnd(sSrc)})
	parents = append(parents, -1)
	// treeAt maps a switch already spanned by the tree to the index of
	// the edge that delivers into it.
	treeAt := map[SwitchID]int{sSrc: 0}
	for _, sink := range sinks {
		if sink == src {
			return nil, nil, nil, fmt.Errorf("route: multicast from node %d to itself", src)
		}
		sDst, ok := g.home[sink]
		if !ok {
			return nil, nil, nil, fmt.Errorf("%w: %d", ErrUnknownNode, sink)
		}
		if _, reached := prev[sDst]; !reached {
			return nil, nil, nil, fmt.Errorf("%w: sw%d to sw%d", ErrNoRoute, sSrc, sDst)
		}
		var path []SwitchID
		for at := sDst; at != sSrc; at = prev[at] {
			path = append(path, at)
		}
		for i := len(path) - 1; i >= 0; i-- {
			s := path[i]
			if _, spanned := treeAt[s]; spanned {
				continue
			}
			route = append(route, Edge{From: SwitchEnd(prev[s]), To: SwitchEnd(s)})
			parents = append(parents, treeAt[prev[s]])
			treeAt[s] = len(route) - 1
		}
		route = append(route, Edge{From: SwitchEnd(sDst), To: NodeEnd(sink)})
		parents = append(parents, treeAt[sDst])
		leaves = append(leaves, len(route)-1)
	}
	return route, parents, leaves, nil
}

// shortestSwitchPath runs BFS over the live trunk graph.
func shortestSwitchPath(g *Graph, from, to SwitchID) ([]SwitchID, error) {
	if !g.SwitchUp(from) || !g.SwitchUp(to) {
		return nil, fmt.Errorf("%w: sw%d to sw%d", ErrNoRoute, from, to)
	}
	if from == to {
		return []SwitchID{from}, nil
	}
	prev := map[SwitchID]SwitchID{from: from}
	queue := []SwitchID{from}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, next := range g.adj[cur] {
			if _, seen := prev[next]; seen {
				continue
			}
			if !g.usable(cur, next) {
				continue
			}
			prev[next] = cur
			if next == to {
				var path []SwitchID
				for at := to; ; at = prev[at] {
					path = append(path, at)
					if at == from {
						break
					}
				}
				// Reverse in place.
				for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
					path[i], path[j] = path[j], path[i]
				}
				return path, nil
			}
			queue = append(queue, next)
		}
	}
	return nil, fmt.Errorf("%w: sw%d to sw%d", ErrNoRoute, from, to)
}
