package admit

import "slices"

// AdmitEach runs per-spec admission for a merged batch of n channel
// requests: every request gets its own accept/reject verdict — unlike
// Admit, which treats the batch as one all-or-nothing decision — at a
// cost that scales with how much of the group is rejected, not with n.
// A group that is feasible together costs exactly one repartition pass;
// with r rejections the bisection adds O(r log(n/r)) narrowing passes,
// and in the worst case — everything rejected — it visits every node of
// the bisection tree, just under 2n passes, about twice sequential
// submission. This is the kernel primitive behind request coalescing: a
// front-end that merges the establish requests of many concurrent
// clients needs each client to receive exactly the verdict it would
// have received alone, at close to batch cost in the common
// mostly-feasible case.
//
// Verdicts are positional: the returned channels and rejections are
// parallel to the specs, with chs[i] set (and rejs[i] nil) for an
// accepted request and rejs[i] carrying the full per-link diagnostic
// for a rejected one. mk must be pure — it may be invoked more than
// once for the same index while the engine narrows down failures.
//
// The decision procedure is greedy bisection. First the whole group is
// tried as one Admit (one repartition pass per scheme). If it verifies,
// every request is accepted; if not, the group is split in half and
// each half decided recursively, the left half first so it is decided
// against exactly the state a sequential submission would have seen.
// Rejections therefore always bottom out on single-spec Admit calls,
// whose verdicts and diagnostics are bit-identical to sequential
// submission by construction.
//
// For monotone schemes — schemes whose per-channel partition does not
// depend on the rest of the system (SDPS, H-SDPS, FixedDPS), so that
// adding channels can only add demand — the accept side is exact too:
// a group that verifies as a whole implies every sequential prefix
// verifies, hence AdmitEach is decision-equivalent to submitting the
// specs one by one. Load-adaptive schemes (ADPS, H-ADPS) repartition
// existing channels as the system grows; in principle a merged group
// could verify under the group's partitioning where some prefix alone
// would not, but the adapters' replay suites pin decision equivalence
// on representative star and fabric workloads for those schemes as
// well.
//
// On return, Repartitioned reports the union of every channel whose
// partition changed across all accepted sub-decisions (including the
// new channels), ascending — the precise set a running simulation must
// re-sync, exactly as after Admit.
func (e *Engine[K, Ch, P]) AdmitEach(n int, mk func(i int, id ID) Ch, schemes []Scheme[K, Ch, P]) ([]Ch, []*Rejection[K]) {
	chs := make([]Ch, n)
	rejs := make([]*Rejection[K], n)
	if n == 0 {
		e.repartitioned = nil
		return chs, rejs
	}
	repart := make(map[ID]struct{})
	e.admitRange(0, n, mk, schemes, chs, rejs, repart)
	ids := make([]ID, 0, len(repart))
	for id := range repart {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	e.repartitioned = ids
	return chs, rejs
}

// admitRange decides specs [lo, hi) by greedy bisection, writing
// verdicts into chs/rejs and accumulating the repartitioned-channel
// union into repart.
func (e *Engine[K, Ch, P]) admitRange(lo, hi int, mk func(i int, id ID) Ch, schemes []Scheme[K, Ch, P], chs []Ch, rejs []*Rejection[K], repart map[ID]struct{}) {
	got, rej := e.Admit(hi-lo, func(i int, id ID) Ch { return mk(lo+i, id) }, schemes)
	if rej == nil {
		copy(chs[lo:hi], got)
		for _, id := range e.repartitioned {
			repart[id] = struct{}{}
		}
		return
	}
	if hi-lo == 1 {
		rejs[lo] = rej
		return
	}
	mid := lo + (hi-lo)/2
	e.admitRange(lo, mid, mk, schemes, chs, rejs, repart)
	e.admitRange(mid, hi, mk, schemes, chs, rejs, repart)
}
