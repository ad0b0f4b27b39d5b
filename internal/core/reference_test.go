package core

// The reference oracle the equivalence replays hold the admission engine
// to. It decides every mutation the long way: clone the committed state,
// apply the scheme's full Partition to the channels on the links the
// mutation touched, and run a from-scratch EDF test on every loaded link.
// Twin and Reference are exported (from a test file) so the external
// core_test replays can drive them too.

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/edf"
)

// clone returns a deep copy of the state sharing nothing mutable with the
// original.
func (st *State) clone() *State { return &State{k: st.k.Clone()} }

// Reference is the clone oracle for a Controller with the same Config.
type Reference struct {
	st  *State
	dps DPS
	// Checked counts the per-link EDF tests the oracle has run.
	Checked int
}

// newReference returns the oracle for a controller built with cfg.
func newReference(cfg Config) *Reference {
	if cfg.DPS == nil {
		cfg.DPS = SDPS{}
	}
	return &Reference{st: NewState(), dps: cfg.DPS}
}

// State returns the oracle's committed state.
func (r *Reference) State() *State { return r.st }

// Admit decides a list of valid requests as Controller.Admit does.
func (r *Reference) Admit(reqs []Req) ([]*Channel, []Link) { return r.Replace(nil, reqs) }

// Replace decides a release together with a non-empty list of valid
// requests as Controller.Apply does: the tentative state — the released
// channels gone, the requests added, the channels on the links of both
// repartitioned — commits if it is feasible. On rejection it returns
// every link the tentative state fails on.
func (r *Reference) Replace(remove []ChannelID, reqs []Req) ([]*Channel, []Link) {
	next := r.st.clone()
	var touched []Link
	for _, id := range remove {
		touched = append(touched, coreOps.Links(next.Get(id))...)
		next.remove(id)
	}
	chs := make([]*Channel, len(reqs))
	for i, q := range reqs {
		chs[i] = newChannel(q, next.allocID())
		next.add(chs[i])
		touched = append(touched, coreOps.Links(chs[i])...)
	}
	if bad := r.repartition(next, r.dps, touched); len(bad) > 0 {
		return nil, bad
	}
	r.st = next
	return chs, nil
}

// Release removes a channel and keeps the repartition of the channels on
// its links only if every link stays feasible.
func (r *Reference) Release(id ChannelID) {
	ch := r.st.Get(id)
	r.st.remove(id)
	next := r.st.clone()
	if len(r.repartition(next, r.dps, coreOps.Links(ch))) == 0 {
		r.st = next
	}
}

// repartition installs d's full Partition on every channel traversing a
// touched link and returns the loaded links that then fail the EDF test.
func (r *Reference) repartition(st *State, d DPS, touched []Link) []Link {
	parts := d.Partition(st)
	for _, ch := range st.Channels() {
		if slices.ContainsFunc(coreOps.Links(ch), func(l Link) bool { return slices.Contains(touched, l) }) {
			st.k.SetPart(ch, parts[ch.ID])
		}
	}
	var bad []Link
	for _, l := range st.Links() {
		r.Checked++
		if !edf.TestDefault(st.TasksOn(l)).OK() {
			bad = append(bad, l)
		}
	}
	return bad
}

// stateKey renders a state's channels and partitions for comparison.
func stateKey(st *State) string {
	var sb strings.Builder
	for _, ch := range st.Channels() {
		fmt.Fprintf(&sb, "%d:%v:%v:%+v;", ch.ID, ch.Spec, ch.Sinks, ch.Part)
	}
	return sb.String()
}

// Twin drives a controller and its reference oracle in lockstep.
type Twin struct {
	t    testing.TB
	Ctrl *Controller
	Ref  *Reference
}

// NewTwin returns a controller and its oracle, both built with cfg.
func NewTwin(t testing.TB, cfg Config) *Twin {
	return &Twin{t: t, Ctrl: NewController(cfg), Ref: newReference(cfg)}
}

// Admit submits valid requests to both and fails the test unless the
// verdicts agree, accepted channels got the same IDs, a rejection names a
// link the oracle's tentative state fails on — and one of a request's own
// links or of a channel sharing a link with a request — and the
// committed states agree and pass a from-scratch EDF test on every link.
func (w *Twin) Admit(reqs []Req) ([]*Channel, error) {
	w.t.Helper()
	return w.Replace(nil, reqs)
}

// Replace is Admit of reqs together with the release of remove (Apply on
// the controller): a rejection may also name a link of a released channel
// or of a channel sharing a link with one, and on rejection every
// released channel must still be established.
func (w *Twin) Replace(remove []ChannelID, reqs []Req) ([]*Channel, error) {
	w.t.Helper()
	what := fmt.Sprintf("replace %v by %v", remove, reqs)
	near := w.neighbourhood(remove, reqs)
	got, err := w.Ctrl.Apply(remove, reqs)
	want, bad := w.Ref.Replace(remove, reqs)
	switch {
	case (err == nil) != (bad == nil):
		w.t.Fatalf("%s: controller err=%v, reference infeasible on %v", what, err, bad)
	case err == nil:
		for i := range got {
			if got[i].ID != want[i].ID {
				w.t.Fatalf("%s: channel IDs diverge: %d vs %d", what, got[i].ID, want[i].ID)
			}
		}
	default:
		var rej *RejectionError
		if !errors.As(err, &rej) {
			w.t.Fatalf("%s: rejection is %T, want *RejectionError", what, err)
		}
		if !slices.Contains(bad, rej.Link) {
			w.t.Fatalf("%s: rejection names %v, reference fails only %v", what, rej.Link, bad)
		}
		if !near[rej.Link] {
			w.t.Fatalf("%s: rejection names %v, outside the request's neighbourhood", what, rej.Link)
		}
		for _, id := range remove {
			if w.Ctrl.State().Get(id) == nil {
				w.t.Fatalf("%s: refused, yet channel %d lost its reservation", what, id)
			}
		}
	}
	w.check(what)
	return got, err
}

// Request is Admit of one unicast channel.
func (w *Twin) Request(spec ChannelSpec) (*Channel, error) {
	w.t.Helper()
	return One(w.Admit([]Req{{Spec: spec}}))
}

// Release releases a channel on both and checks the committed states.
func (w *Twin) Release(id ChannelID) {
	w.t.Helper()
	if err := w.Ctrl.Release(id); err != nil {
		w.t.Fatal(err)
	}
	w.Ref.Release(id)
	w.check(fmt.Sprintf("release %d", id))
}

// check fails the test unless both committed states agree and every
// loaded link passes a from-scratch EDF test.
func (w *Twin) check(after string) {
	w.t.Helper()
	st := w.Ctrl.State()
	if got, want := stateKey(st), stateKey(w.Ref.State()); got != want {
		w.t.Fatalf("after %s: committed states diverge:\ncontroller: %s\nreference:  %s", after, got, want)
	}
	for _, l := range st.Links() {
		if res := edf.TestDefault(st.TasksOn(l)); !res.OK() {
			w.t.Fatalf("after %s: committed state infeasible on %v: %v", after, l, res)
		}
	}
}

// neighbourhood returns the links a rejection of a change may name: the
// links of the requests and of the released channels, and the links of
// every committed channel sharing a link with them — under ADPS a change
// moves such a neighbour's budget onto the neighbour's far link.
func (w *Twin) neighbourhood(remove []ChannelID, reqs []Req) map[Link]bool {
	near := map[Link]bool{}
	for _, q := range reqs {
		for _, l := range coreOps.Links(newChannel(q, 0)) {
			near[l] = true
		}
	}
	for _, id := range remove {
		for _, l := range coreOps.Links(w.Ctrl.State().Get(id)) {
			near[l] = true
		}
	}
	var far []Link
	for _, ch := range w.Ctrl.State().Channels() {
		if links := coreOps.Links(ch); slices.ContainsFunc(links, func(l Link) bool { return near[l] }) {
			far = append(far, links...)
		}
	}
	for _, l := range far {
		near[l] = true
	}
	return near
}
