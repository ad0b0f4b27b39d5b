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
	// Fallbacks are additional schemes tried in order when the primary
	// DPS yields an infeasible partitioning for a request. The paper
	// frames a DPS as one point in a vector field of possible splits;
	// searching a handful of points before rejecting squeezes out extra
	// capacity at the cost of extra feasibility tests (experiment E9).
	// The committed state always reflects exactly one scheme's output.
	Fallbacks []DPS
	// Feasibility passes through to the per-link EDF test.
	Feasibility edf.Options
	// Latency is T_latency of Eq. 18.1: the constant medium propagation
	// plus access delay added to every guarantee, in slots.
	Latency int64
	// VerifyWorkers bounds the verification worker pool used for large
	// changed-link sweeps (batch admissions); 0 means GOMAXPROCS, 1 forces
	// the sequential sweep. Decisions, diagnostics and LinksChecked are
	// identical for every worker count.
	VerifyWorkers int
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
	cfg     Config
	eng     *admit.Engine[Link, *Channel, Partition]
	schemes []admit.Scheme[Link, *Channel, Partition]
	stats   Stats
}

// NewController returns a Controller with the given configuration.
func NewController(cfg Config) *Controller {
	if cfg.DPS == nil {
		cfg.DPS = SDPS{}
	}
	cfg.Feasibility.SkipValidation = true // specs are validated on entry
	c := &Controller{cfg: cfg}
	c.eng = admit.NewEngine(coreOps, admit.Config{
		Feasibility: cfg.Feasibility,
		Workers:     cfg.VerifyWorkers,
	})
	for _, d := range append([]DPS{cfg.DPS}, cfg.Fallbacks...) {
		c.schemes = append(c.schemes, func(k *admit.State[Link, *Channel, Partition], touched []Link) map[ChannelID]Partition {
			return d.PartitionTouched(&State{k: k}, touched)
		})
	}
	return c
}

// DPS returns the active deadline partitioning scheme.
func (c *Controller) DPS() DPS { return c.cfg.DPS }

// Stats returns a copy of the admission counters.
func (c *Controller) Stats() Stats {
	s := c.stats
	s.LinksChecked = c.eng.LinksChecked()
	s.Repartitions = c.eng.Repartitions()
	return s
}

// SweepSkips returns how many of the LinksChecked feasibility answers
// came from the kernel's generation-keyed verdict cache instead of a
// fresh EDF analysis.
func (c *Controller) SweepSkips() int { return c.eng.SweepSkips() }

// SweepNs returns the cumulative wall-clock nanoseconds the engine has
// spent inside verification sweeps (observability accounting; measured,
// not deterministic).
func (c *Controller) SweepNs() int64 { return c.eng.SweepNs() }

// State returns the live system state. Callers must treat it as read-only.
func (c *Controller) State() *State { return &State{k: c.eng.State()} }

// Repartitioned returns the IDs (ascending) of the channels whose
// partitions changed in the last successful Admit, AdmitEach or
// Release — establishments include the new channels. The slice is
// invalidated by the next state mutation.
func (c *Controller) Repartitioned() []ChannelID { return c.eng.Repartitioned() }

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
	// of a freshly allocated one. The ID must not be in use: failure
	// recovery releases affected channels and re-admits them under their
	// old IDs so handles held by callers stay valid.
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

// ReqError is what Admit returns when request Index of the list fails
// before the feasibility test (validation; on a fabric also routing; on
// the simulated star an unattached endpoint). It reads as its cause, so a
// one-request caller needs no unwrapping; list callers attribute it with
// BatchError.
type ReqError struct {
	Index int
	Err   error
}

// Error implements error.
func (e *ReqError) Error() string { return e.Err.Error() }

// Unwrap exposes the cause to errors.Is and errors.As.
func (e *ReqError) Unwrap() error { return e.Err }

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

// Admit runs one admission test for a whole list of requests and, if
// feasible, commits them all (returned in request order); otherwise none
// commits and the first failure is returned — a *ReqError for a request
// that fails validation, a *RejectionError for the link that failed. The
// decision procedure follows §18.3.2 and §18.4:
//
//  1. Validate every spec (including D >= 2C, condition (9)).
//  2. Build the tentative state: current channels plus the new ones. A
//     multicast request is one channel whose task appears on the source
//     uplink and on every sink downlink, sharing one partition.
//  3. Apply the DPS to the channels on the links the new channels touch
//     — the DPS is a function of the system state, so existing channels
//     may be repartitioned. One repartition for the list, not one per
//     request.
//  4. Test EDF feasibility of every link whose task set changed. If any
//     link fails, reject and leave the committed state untouched.
//
// Steps 2-4 run copy-on-write on the live state: only channels the DPS
// actually repartitions are touched and rolled back on rejection.
//
// Stats account the list as len(reqs) requests; on success all are
// accepted, on rejection one rejection is recorded for the list (the
// constraint that failed first).
func (c *Controller) Admit(reqs []Req) ([]*Channel, error) {
	c.stats.Requests += len(reqs)
	for i, r := range reqs {
		if err := r.Validate(); err != nil {
			c.stats.RejectedInvalid++
			return nil, &ReqError{Index: i, Err: err}
		}
	}
	if len(reqs) == 0 {
		return nil, nil
	}
	chs, rej := c.eng.Admit(len(reqs), func(i int, id ChannelID) *Channel {
		return newChannel(reqs[i], id)
	}, c.schemes)
	if rej != nil {
		return nil, c.reject(rej)
	}
	c.stats.Accepted += len(reqs)
	return chs, nil
}

// AdmitEach decides a merged list with one verdict per request: unlike
// Admit's all-or-nothing decision every request is accepted or rejected
// on its own, while the kernel runs far fewer repartition passes than
// len(reqs) sequential requests — greedy bisection tries the whole group
// first and only narrows down around failures (admit.Engine.AdmitEach,
// which also states the decision-equivalence contract with sequential
// submission per scheme). It is the primitive behind request coalescing
// and post-failure batch re-admission.
//
// The returned slices are parallel to reqs: chs[i] is the committed
// channel when errs[i] is nil, and errs[i] is the request's own
// validation error or *RejectionError otherwise. Stats account the list
// as len(reqs) requests with per-request outcomes.
func (c *Controller) AdmitEach(reqs []Req) ([]*Channel, []error) {
	c.stats.Requests += len(reqs)
	chs := make([]*Channel, len(reqs))
	errs := make([]error, len(reqs))
	valid := make([]int, 0, len(reqs))
	for i, r := range reqs {
		if errs[i] = r.Validate(); errs[i] != nil {
			c.stats.RejectedInvalid++
			continue
		}
		valid = append(valid, i)
	}
	got, rejs := c.eng.AdmitEach(len(valid), func(vi int, id ChannelID) *Channel {
		return newChannel(reqs[valid[vi]], id)
	}, c.schemes)
	for vi, i := range valid {
		if rejs[vi] != nil {
			errs[i] = c.reject(rejs[vi])
			continue
		}
		c.stats.Accepted++
		chs[i] = got[vi]
	}
	return chs, errs
}

// reject counts a kernel rejection and converts it to the public error.
func (c *Controller) reject(rej *admit.Rejection[Link]) *RejectionError {
	c.stats.NoteRejection(rej.Result)
	return &RejectionError{Link: rej.Link, Result: rej.Result}
}

// RejectNoRoute counts a list of n requests (1 for a per-verdict entry)
// refused before admission because one of its endpoints is not an
// attached node. The controller knows no topology; the surrounding
// switch model does and reports here, so the counters have one owner.
func (c *Controller) RejectNoRoute(n int) {
	c.stats.Requests += n
	c.stats.RejectedNoRoute++
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
	st := c.eng.State()
	ch := &Channel{ID: st.AllocID(), Spec: spec, Part: part}
	st.Add(ch)
	return ch, nil
}

// Release tears down an established channel. The channels sharing a link
// with it are repartitioned by the primary DPS (which depends on the
// system state); in the unlikely event that this makes some link
// infeasible, every remaining channel keeps its previous partition —
// removing load can never invalidate the schedule under unchanged
// partitions. A kept-back partition stays until a later decision touches
// one of its channel's links, which recomputes it as usual.
func (c *Controller) Release(id ChannelID) error {
	if !c.eng.Release(id, c.schemes[0]) {
		return fmt.Errorf("core: release of unknown RT channel %d", id)
	}
	c.stats.Released++
	return nil
}
