package topo

// The reference oracle the fabric equivalence replays hold the admission
// engine to. It decides every mutation the long way: clone the committed
// state, apply the scheme's full Partition to the channels on the edges
// the mutation touched, and run a from-scratch EDF test on every loaded
// edge.

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/edf"
)

// clone returns a deep copy of the state sharing nothing mutable with the
// original.
func (st *State) clone() *State { return &State{k: st.k.Clone()} }

// reference is the clone oracle for a Controller with the same Config.
type reference struct {
	st     *State
	dps    HDPS
	router *Controller // validates and routes requests as the controller does
	// checked counts the per-edge EDF tests the oracle has run.
	checked int
}

func newReference(top *Topology, cfg Config) *reference {
	if cfg.DPS == nil {
		cfg.DPS = HSDPS{}
	}
	return &reference{st: NewState(), dps: cfg.DPS, router: NewController(top, cfg)}
}

// admit decides a list of routable requests as Controller.Admit does.
func (r *reference) admit(reqs []Req) ([]*HChannel, []Edge) { return r.replace(nil, reqs) }

// replace decides a release together with a non-empty list of routable
// requests as Controller.Apply does: the released channels leave, the
// requests join, and the channels on the edges of both are repartitioned.
// On rejection it returns every edge the tentative state fails on.
func (r *reference) replace(remove []core.ChannelID, reqs []Req) ([]*HChannel, []Edge) {
	next := r.st.clone()
	var touched []Edge
	for _, id := range remove {
		touched = append(touched, next.Get(id).Route...)
		next.remove(id)
	}
	chs := make([]*HChannel, len(reqs))
	for i, q := range reqs {
		p, err := r.router.prepare(q)
		if err != nil {
			panic(fmt.Sprintf("reference: request %v: %v", q, err))
		}
		chs[i] = r.router.instance(p, next.allocID())
		next.add(chs[i])
		touched = append(touched, chs[i].Route...)
	}
	if bad := r.repartition(next, touched); len(bad) > 0 {
		return nil, bad
	}
	r.st = next
	return chs, nil
}

// admitEach releases remove and decides a list with one verdict per
// request by the same greedy bisection as the engine's AdmitEach: the
// release rides along with the leftmost attempt, and commits alone when
// the first request is rejected.
func (r *reference) admitEach(remove []core.ChannelID, reqs []Req) ([]*HChannel, [][]Edge) {
	chs := make([]*HChannel, len(reqs))
	bad := make([][]Edge, len(reqs))
	var decide func(remove []core.ChannelID, lo, hi int)
	decide = func(remove []core.ChannelID, lo, hi int) {
		got, b := r.replace(remove, reqs[lo:hi])
		switch {
		case b == nil:
			copy(chs[lo:hi], got)
		case hi-lo == 1:
			bad[lo] = b
			r.release(remove)
		default:
			mid := lo + (hi-lo)/2
			decide(remove, lo, mid)
			decide(nil, mid, hi)
		}
	}
	if len(reqs) > 0 {
		decide(remove, 0, len(reqs))
	} else {
		r.release(remove)
	}
	return chs, bad
}

// release removes channels and keeps the repartition of the channels on
// their edges only if every edge stays feasible.
func (r *reference) release(remove []core.ChannelID) {
	if len(remove) == 0 {
		return
	}
	var touched []Edge
	for _, id := range remove {
		touched = append(touched, r.st.Get(id).Route...)
		r.st.remove(id)
	}
	next := r.st.clone()
	if len(r.repartition(next, touched)) == 0 {
		r.st = next
	}
}

// repartition installs the full Partition on every channel traversing a
// touched edge and returns the loaded edges that then fail the EDF test.
func (r *reference) repartition(st *State, touched []Edge) []Edge {
	parts := r.dps.Partition(st)
	for _, ch := range st.Channels() {
		if slices.ContainsFunc(ch.Route, func(e Edge) bool { return slices.Contains(touched, e) }) {
			st.k.SetPart(ch, parts[ch.ID])
		}
	}
	var bad []Edge
	for _, e := range st.Edges() {
		r.checked++
		if !edf.TestDefault(st.TasksOn(e)).OK() {
			bad = append(bad, e)
		}
	}
	return bad
}

// twin drives a fabric controller and its reference oracle in lockstep
// over one topology.
type twin struct {
	t    testing.TB
	top  *Topology
	ctrl *Controller
	ref  *reference
}

func newTwin(t testing.TB, top *Topology, cfg Config) *twin {
	return &twin{t: t, top: top, ctrl: NewController(top, cfg), ref: newReference(top, cfg)}
}

// request is Admit of one unicast channel on both.
func (w *twin) request(spec core.ChannelSpec) (*HChannel, error) {
	w.t.Helper()
	got, err := w.replace(nil, []Req{{Spec: spec}})
	return core.One(got, err)
}

// replace is Apply of a release and a list on both: on rejection every
// released channel must still be established.
func (w *twin) replace(remove []core.ChannelID, reqs []Req) ([]*HChannel, error) {
	w.t.Helper()
	what := fmt.Sprintf("replace %v by %v", remove, reqs)
	near := w.neighbourhood(remove, reqs)
	got, err := w.ctrl.Apply(remove, reqs)
	want, bad := w.ref.replace(remove, reqs)
	w.compare(what, near, got, err, want, bad)
	if err != nil {
		for _, id := range remove {
			if w.ctrl.State().Get(id) == nil {
				w.t.Fatalf("%s: refused, yet channel %d lost its reservation", what, id)
			}
		}
	}
	return got, err
}

// admitEach is AdmitEach of a release and a list on both.
func (w *twin) admitEach(remove []core.ChannelID, reqs []Req) ([]*HChannel, []error) {
	w.t.Helper()
	near := w.neighbourhood(remove, reqs)
	got, errs := w.ctrl.AdmitEach(remove, reqs)
	want, bad := w.ref.admitEach(remove, reqs)
	for i, q := range reqs {
		w.compare(q.String(), near, got[i:i+1], errs[i], want[i:i+1], bad[i])
	}
	return got, errs
}

// compare fails the test unless the controller's verdict on one request
// (or atomic list) agrees with the oracle's: the same IDs and routes on
// acceptance; on rejection a named edge the oracle's tentative state
// fails on and that lies in the request's neighbourhood. Then it checks
// the committed states.
func (w *twin) compare(what string, near map[Edge]bool, got []*HChannel, err error, want []*HChannel, bad []Edge) {
	w.t.Helper()
	switch {
	case (err == nil) != (bad == nil):
		w.t.Fatalf("%s: controller err=%v, reference infeasible on %v", what, err, bad)
	case err == nil:
		for i := range got {
			if got[i].ID != want[i].ID || !slices.Equal(got[i].Route, want[i].Route) {
				w.t.Fatalf("%s: accepted as %v, reference %v", what, got[i], want[i])
			}
		}
	default:
		var rej *RejectionError
		if !errors.As(err, &rej) {
			w.t.Fatalf("%s: rejection is %T, want *RejectionError", what, err)
		}
		if !slices.Contains(bad, rej.Edge) {
			w.t.Fatalf("%s: rejection names %v, reference fails only %v", what, rej.Edge, bad)
		}
		if !near[rej.Edge] {
			w.t.Fatalf("%s: rejection names %v, outside the request's neighbourhood", what, rej.Edge)
		}
	}
	w.check(what)
}

// release releases a channel on both and checks the committed states.
func (w *twin) release(id core.ChannelID) {
	w.t.Helper()
	if err := w.ctrl.Release(id); err != nil {
		w.t.Fatal(err)
	}
	w.ref.release([]core.ChannelID{id})
	w.check(fmt.Sprintf("release %d", id))
}

// check fails the test unless both committed states agree, down to the
// per-edge task sets, and every loaded edge passes a from-scratch EDF
// test.
func (w *twin) check(after string) {
	w.t.Helper()
	st := w.ctrl.State()
	if got, want := deepStateKey(st), deepStateKey(w.ref.st); got != want {
		w.t.Fatalf("after %s: committed states diverge:\ncontroller: %s\nreference:  %s", after, got, want)
	}
	for _, e := range st.Edges() {
		if res := edf.TestDefault(st.TasksOn(e)); !res.OK() {
			w.t.Fatalf("after %s: committed state infeasible on %v: %v", after, e, res)
		}
	}
}

// neighbourhood returns the edges a rejection of a change may name: the
// requests' own routes and the routes of the released channels, and the
// routes of every committed channel sharing an edge with them — under
// H-ADPS a change moves such a neighbour's budget onto the neighbour's
// other edges.
func (w *twin) neighbourhood(remove []core.ChannelID, reqs []Req) map[Edge]bool {
	near := map[Edge]bool{}
	for _, q := range reqs {
		if route, _, _, err := w.top.RouteOf(q); err == nil {
			for _, e := range route {
				near[e] = true
			}
		}
	}
	for _, id := range remove {
		for _, e := range w.ctrl.State().Get(id).Route {
			near[e] = true
		}
	}
	var far []Edge
	for _, ch := range w.ctrl.State().Channels() {
		if slices.ContainsFunc(ch.Route, func(e Edge) bool { return near[e] }) {
			far = append(far, ch.Route...)
		}
	}
	for _, e := range far {
		near[e] = true
	}
	return near
}
