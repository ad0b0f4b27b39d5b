package core

import (
	"errors"
	"fmt"

	"repro/internal/admit"
	"repro/internal/edf"
)

// ErrInfeasible is the sentinel wrapped by every feasibility-based
// rejection, so callers can errors.Is(err, ErrInfeasible) regardless of
// which link or constraint failed.
var ErrInfeasible = errors.New("core: RT channel not feasible")

// RejectionError reports which link failed the admission test and why.
type RejectionError struct {
	Link   Link
	Result edf.Result
}

// Error implements error.
func (e *RejectionError) Error() string {
	return fmt.Sprintf("core: RT channel not feasible on %v: %v", e.Link, e.Result)
}

// Unwrap lets errors.Is match ErrInfeasible.
func (e *RejectionError) Unwrap() error { return ErrInfeasible }

// Stats counts admission outcomes; the struct and its rejection
// classification are shared with the fabric controller (admit.Stats).
type Stats = admit.Stats

// Config tunes the admission controller.
type Config struct {
	// DPS is the deadline partitioning scheme; nil means SDPS (the paper's
	// baseline).
	DPS DPS
	// Feasibility passes through to the per-link EDF test.
	Feasibility edf.Options
	// Latency is T_latency of Eq. 18.1: the constant medium propagation
	// plus access delay added to every guarantee, in slots.
	Latency int64
}

// Controller is the switch-resident admission control of §18.2.2/§18.3:
// it owns the system state, applies the configured DPS to (re)partition
// deadlines, and accepts a new RT channel only if every affected link
// remains EDF-feasible.
//
// The decision machinery — copy-on-write state, delta repartitioning,
// rollback and changed-links verification — lives in the shared kernel
// (internal/admit); this type contributes spec validation, the DPS
// plug-in glue and the stats.
//
// Controller is not safe for concurrent use; the surrounding switch model
// (and, above it, rtether.Network's lock) serializes establishment
// traffic as a single management process would.
type Controller struct {
	cfg Config
	p   admit.Plane[Link, *Channel, Partition]
}

// NewController returns a Controller with the given configuration.
func NewController(cfg Config) *Controller {
	if cfg.DPS == nil {
		cfg.DPS = SDPS{}
	}
	cfg.Feasibility.SkipValidation = true // specs are validated on entry
	c := &Controller{cfg: cfg}
	c.p.Eng = admit.NewEngine(coreOps, admit.Config{Feasibility: cfg.Feasibility})
	c.p.Unknown = func(id ChannelID) error { return fmt.Errorf("core: release of unknown RT channel %d", id) }
	c.p.Reject = func(rej *admit.Rejection[Link]) error { return &RejectionError{Link: rej.Link, Result: rej.Result} }
	c.p.Scheme = admit.Scheme[*Channel, Partition]{
		Part:     func(ch *Channel, hopLoads []int64, _ Partition) Partition { return cfg.DPS.Split(ch.Spec, hopLoads) },
		Adaptive: cfg.DPS.LoadAdaptive,
	}
	return c
}

// DPS returns the active deadline partitioning scheme.
func (c *Controller) DPS() DPS { return c.cfg.DPS }

// Stats returns a copy of the admission counters.
func (c *Controller) Stats() Stats { return c.p.Counters() }

// SweepSkips returns how many of the LinksChecked feasibility answers
// needed no EDF analysis, because the decision did not move the link
// (see admit.Engine.SweepSkips).
func (c *Controller) SweepSkips() int { return c.p.Eng.SweepSkips() }

// SweepNs returns the cumulative wall-clock nanoseconds the engine has
// spent inside verification sweeps (observability accounting; measured,
// not deterministic).
func (c *Controller) SweepNs() int64 { return c.p.Eng.SweepNs() }

// State returns the live system state. Callers must treat it as read-only.
func (c *Controller) State() *State { return &State{k: c.p.Eng.State()} }

// GuaranteedDelay returns T_maxdelay,i = d_i + T_latency (Eq. 18.1) for an
// accepted spec.
func (c *Controller) GuaranteedDelay(s ChannelSpec) int64 { return s.D + c.cfg.Latency }

// Req is the one request type of the management plane: a unicast channel
// when Sinks is nil, a multicast tree otherwise (Spec is then the
// MulticastSpec's ChannelSpec projection, Dst = Sinks[0]).
type Req struct {
	Spec  ChannelSpec
	Sinks []NodeID
	// ID, when KeepID is set, is committed as the channel's ID instead
	// of a freshly allocated one. The ID must not be in use once the
	// decision's releases are made: a reconfiguration and failure recovery
	// release channels and re-admit them under their old IDs in the same
	// decision, so handles held by callers stay valid.
	ID     ChannelID
	KeepID bool
}

// Unicast lifts channel specs into requests.
func Unicast(specs []ChannelSpec) []Req {
	reqs := make([]Req, len(specs))
	for i, s := range specs {
		reqs[i].Spec = s
	}
	return reqs
}

// Multicast reports whether the request is for a one-to-many channel.
func (r Req) Multicast() bool { return r.Sinks != nil }

// MulticastSpec reconstructs the multicast spec of a multicast Req.
func (r Req) MulticastSpec() MulticastSpec {
	return MulticastSpec{Src: r.Spec.Src, Sinks: r.Sinks, P: r.Spec.P, C: r.Spec.C, D: r.Spec.D, Priority: r.Spec.Priority}
}

// Validate checks the request against the paper's constraints: the
// unicast or the multicast form, whichever the request is.
func (r Req) Validate() error {
	if r.Multicast() {
		return r.MulticastSpec().Validate()
	}
	return r.Spec.Validate()
}

// String renders the request as the spec it was submitted as.
func (r Req) String() string {
	if r.Multicast() {
		return r.MulticastSpec().String()
	}
	return r.Spec.String()
}

// ReqError is what Apply returns when request Index of the list fails
// before the feasibility test; see admit.ReqError.
type ReqError = admit.ReqError

// BatchError names the failing entry of an atomic list in a ReqError
// ("batch spec i (…): cause"); every other error passes through.
func BatchError(reqs []Req, err error) error {
	var re *ReqError
	if errors.As(err, &re) {
		return fmt.Errorf("batch spec %d (%v): %w", re.Index, reqs[re.Index], re.Err)
	}
	return err
}

// One returns the single result of a one-request Admit.
func One[T any](got []T, err error) (T, error) {
	if err != nil {
		var zero T
		return zero, err
	}
	return got[0], nil
}

// newChannel builds the tentative channel the kernel decides on.
func newChannel(r Req, id ChannelID) *Channel {
	if r.KeepID {
		id = r.ID
	}
	ch := &Channel{ID: id, Spec: r.Spec}
	if r.Multicast() {
		ch.Sinks = append([]NodeID(nil), r.Sinks...)
	}
	return ch
}

// Apply is the management plane's one decision (admit.Plane.Apply): it
// releases the channels listed in remove (established and distinct) and
// admits reqs atomically. The new channels come back in request order, or
// nothing commits — every channel in remove keeps its reservation, ID and
// partition — and the first failure is returned: a *ReqError for a
// request that fails validation, a *RejectionError for the link that
// failed. A KeepID request may reuse the ID of a channel it replaces. The
// decision follows §18.3.2 and §18.4:
//
//  1. Validate every spec (including D >= 2C, condition (9)).
//  2. Build the tentative state: the current channels minus the released
//     ones plus the new ones; a multicast request is one channel whose
//     task sits on the source uplink and on every sink downlink.
//  3. Apply the DPS to the channels on the links of both — the DPS is a
//     function of the system state, so existing channels may be
//     repartitioned. One repartition for the whole change.
//  4. Test EDF feasibility of every link whose task set changed; if any
//     fails, reject and leave the committed state untouched.
//
// A pure release (no requests) never fails; see Release.
func (c *Controller) Apply(remove []ChannelID, reqs []Req) ([]*Channel, error) {
	return c.p.Apply(remove, len(reqs), c.validate(reqs), func(i int, id ChannelID) *Channel { return newChannel(reqs[i], id) })
}

// validate checks request i of reqs, counting a failure.
func (c *Controller) validate(reqs []Req) func(i int) error {
	return func(i int) error {
		err := reqs[i].Validate()
		if err != nil {
			c.p.Stats.RejectedInvalid++
		}
		return err
	}
}

// Admit is Apply of reqs with nothing to release.
func (c *Controller) Admit(reqs []Req) ([]*Channel, error) { return c.Apply(nil, reqs) }

// AdmitEach releases the channels listed in remove and decides reqs with
// one verdict per request (admit.Plane.AdmitEach: greedy bisection,
// whose decision-equivalence contract with sequential submission
// admit.Engine.AdmitEach states): the primitive behind request
// coalescing and failure recovery. The slices are parallel to reqs;
// errs[i] is the request's validation error or *RejectionError.
func (c *Controller) AdmitEach(remove []ChannelID, reqs []Req) ([]*Channel, []error) {
	return c.p.AdmitEach(remove, len(reqs), c.validate(reqs), func(i int, id ChannelID) *Channel { return newChannel(reqs[i], id) })
}

// RejectNoRoute counts a list of n requests (1 for a per-verdict entry)
// refused before admission because one of its endpoints is not an
// attached node. The controller knows no topology; the surrounding
// switch model does and reports here, so the counters have one owner.
func (c *Controller) RejectNoRoute(n int) {
	c.p.Stats.Requests += n
	c.p.Stats.RejectedNoRoute += n
}

// Request is Admit of one unicast channel.
func (c *Controller) Request(spec ChannelSpec) (*Channel, error) {
	return One(c.Admit([]Req{{Spec: spec}}))
}

// RequestMulticast is Admit of one multicast channel: the whole sink
// tree is one admission object, rolled back as one on any rejection.
func (c *Controller) RequestMulticast(spec MulticastSpec) (*Channel, error) {
	return One(c.Admit([]Req{spec.Req()}))
}

// RequestAll is Admit of a list of unicast channels, with a failing
// spec named in the error ("batch spec i (…)").
func (c *Controller) RequestAll(specs []ChannelSpec) ([]*Channel, error) {
	reqs := Unicast(specs)
	chs, err := c.Admit(reqs)
	return chs, BatchError(reqs, err)
}

// ForceAdd installs a channel without any feasibility test, using the
// given partition (or the DPS split for a singleton state when zero).
// It exists for experiments that need to compare guaranteed operation
// against deliberately over-admitted systems (e.g. showing that a
// utilization-only admission test is unsound for d < P); production
// callers use Request.
func (c *Controller) ForceAdd(spec ChannelSpec, part Partition) (*Channel, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if part == (Partition{}) {
		part = clampPartition(spec, spec.D/2)
	}
	if !part.ValidFor(spec) {
		return nil, fmt.Errorf("core: forced partition %+v violates conditions (8)/(9) for %v", part, spec)
	}
	st := c.p.Eng.State()
	ch := &Channel{ID: st.AllocID(), Spec: spec, Part: part}
	st.Add(ch)
	return ch, nil
}

// Release tears down an established channel: Apply with one removal. The
// channels sharing a link with it are repartitioned by the DPS
// (which depends on the system state); in the unlikely event that this
// makes some link infeasible, every remaining channel keeps its previous
// partition — removing load can never invalidate the schedule under
// unchanged partitions. A kept-back partition stays until a later
// decision touches one of its channel's links, which recomputes it as
// usual.
func (c *Controller) Release(id ChannelID) error {
	_, err := c.Apply([]ChannelID{id}, nil)
	return err
}
