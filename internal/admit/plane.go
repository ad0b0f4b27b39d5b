package admit

import "errors"

// ErrIDsExhausted refuses an admission that needs a channel ID while
// every ID the adapter's frames can carry (Ops.MaxID) is in use.
var ErrIDsExhausted = errors.New("admit: every RT channel ID is in use")

// ReqError is what Plane.Apply returns when request Index of the list
// fails before the feasibility test (validation; on a fabric also
// routing; on the simulated star an unattached endpoint). It reads as its
// cause, so a one-request caller needs no unwrapping; list callers
// attribute it by index.
type ReqError struct {
	Index int
	Err   error
}

// Error implements error.
func (e *ReqError) Error() string { return e.Err.Error() }

// Unwrap exposes the cause to errors.Is and errors.As.
func (e *ReqError) Unwrap() error { return e.Err }

// Plane is an adapter's management plane over an Engine — its two entry
// points, Apply and AdmitEach, and the admission counters they keep —
// once for the star and the fabric controller. Per call the adapter
// supplies prepare, which readies request i or fails it (counting the
// cause in Stats), and mk, which constructs prepared request i under an
// allocated ID; once, Unknown, its error for releasing a channel that is
// not established, and Reject, its error for a kernel rejection.
type Plane[K comparable, Ch any, P any] struct {
	Eng     *Engine[K, Ch, P]
	Scheme  Scheme[Ch, P]
	Stats   Stats
	Unknown func(ID) error
	Reject  func(*Rejection[K]) error
}

// Counters returns a copy of Stats with the engine's deterministic
// counters filled in.
func (p *Plane[K, Ch, P]) Counters() Stats {
	s := p.Stats
	s.LinksChecked = p.Eng.LinksChecked()
	s.Repartitions = p.Eng.Repartitions()
	return s
}

// Apply releases remove (established and distinct) and admits n requests
// as one atomic decision (Engine.Apply). A request prepare fails comes
// back as a *ReqError, with nothing decided; a kernel rejection comes
// back through Reject. A refused list counts each of its n requests
// under its one cause. On success the released channels and the n
// accepted ones are counted.
func (p *Plane[K, Ch, P]) Apply(remove []ID, n int, prepare func(i int) error, mk func(i int, id ID) Ch) ([]Ch, error) {
	if err := p.known(remove); err != nil {
		return nil, err
	}
	p.Stats.Requests += n
	was := p.Stats
	for i := 0; i < n; i++ {
		if err := prepare(i); err != nil {
			// prepare counted request i's cause; the list's other n-1
			// requests share it.
			p.Stats.RejectedInvalid += (p.Stats.RejectedInvalid - was.RejectedInvalid) * (n - 1)
			p.Stats.RejectedNoRoute += (p.Stats.RejectedNoRoute - was.RejectedNoRoute) * (n - 1)
			return nil, &ReqError{Index: i, Err: err}
		}
	}
	if n == 0 && len(remove) == 0 {
		return nil, nil
	}
	chs, rej := p.Eng.Apply(remove, n, mk, p.Scheme)
	if rej != nil {
		return nil, p.reject(rej, n)
	}
	p.Stats.Accepted += n
	p.Stats.Released += len(remove)
	return chs, nil
}

// AdmitEach releases remove and decides n requests with one verdict each
// (Engine.AdmitEach): errs[i] is request i's prepare error or its counted
// rejection, chs[i] its channel otherwise. An unknown channel in remove
// fails every request and releases nothing.
func (p *Plane[K, Ch, P]) AdmitEach(remove []ID, n int, prepare func(i int) error, mk func(i int, id ID) Ch) ([]Ch, []error) {
	chs := make([]Ch, n)
	errs := make([]error, n)
	if err := p.known(remove); err != nil {
		for i := range errs {
			errs[i] = err
		}
		return chs, errs
	}
	p.Stats.Requests += n
	valid := make([]int, 0, n)
	for i := range errs {
		if errs[i] = prepare(i); errs[i] == nil {
			valid = append(valid, i)
		}
	}
	got, rejs := p.Eng.AdmitEach(remove, len(valid), func(vi int, id ID) Ch { return mk(valid[vi], id) }, p.Scheme)
	p.Stats.Released += len(remove)
	for vi, i := range valid {
		if rejs[vi] != nil {
			errs[i] = p.reject(rejs[vi], 1)
			continue
		}
		p.Stats.Accepted++
		chs[i] = got[vi]
	}
	return chs, errs
}

// known fails when a channel to release is not established.
func (p *Plane[K, Ch, P]) known(remove []ID) error {
	for _, id := range remove {
		if !p.Eng.State().Has(id) {
			return p.Unknown(id)
		}
	}
	return nil
}

// reject counts a kernel rejection of n requests and converts it to the
// adapter's error; a full ID space names no link and is returned as
// itself.
func (p *Plane[K, Ch, P]) reject(rej *Rejection[K], n int) error {
	p.Stats.NoteRejection(rej.Result, n)
	if errors.Is(rej.Result.Err, ErrIDsExhausted) {
		return rej.Result.Err
	}
	return p.Reject(rej)
}
