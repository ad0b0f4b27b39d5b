package admit

// AdmitEach is Apply with one verdict per new channel: the removal
// commits, and each of the n requests is accepted or rejected on its own
// — unlike Apply, which treats the whole change as one all-or-nothing
// decision — at a cost that scales with how much of the group is
// rejected, not with n. A group that is feasible together, removal
// included, costs exactly one repartition pass; with r rejections the
// bisection adds O(r log(n/r)) narrowing passes, and in the worst case —
// everything rejected — it visits every node of the bisection tree, just
// under 2n passes, about twice sequential submission. This is the kernel
// primitive behind request coalescing and failure recovery: a front-end
// that merges the establish requests of many concurrent clients needs
// each client to receive exactly the verdict it would have received
// alone, at close to batch cost in the common mostly-feasible case.
//
// Verdicts are positional: the returned channels and rejections are
// parallel to the requests, with chs[i] set (and rejs[i] nil) for an
// accepted request and rejs[i] carrying the full per-link diagnostic
// for a rejected one. mk must be pure — it may be invoked more than
// once for the same index while the engine narrows down failures.
//
// The decision procedure is greedy bisection. First the removal and the
// whole group are tried as one Apply (one repartition pass).
// If it verifies, every request is accepted; if not, the group is split
// in half and each half decided recursively, the left half first and
// carrying the removal, so each half is decided against exactly the
// state a sequential submission — the removal, then the requests in
// order — would have seen. Rejections therefore always bottom out on
// single-request Apply calls, whose verdicts and diagnostics are
// bit-identical to sequential submission by construction; when the
// first request is rejected, the removal commits alone.
//
// For monotone schemes — schemes whose per-channel partition does not
// depend on the rest of the system (SDPS, H-SDPS, FixedDPS), so that
// adding channels can only add demand — the accept side is exact too:
// a group that verifies as a whole implies every sequential prefix
// verifies, hence AdmitEach is decision-equivalent to submitting the
// requests one by one. Load-adaptive schemes (ADPS, H-ADPS) repartition
// existing channels as the system grows; in principle a merged group
// could verify under the group's partitioning where some prefix alone
// would not, but the adapters' replay suites pin decision equivalence
// on representative star and fabric workloads for those schemes as
// well.
func (e *Engine[K, Ch, P]) AdmitEach(remove []ID, n int, mk func(i int, id ID) Ch, scheme Scheme[Ch, P]) ([]Ch, []*Rejection[K]) {
	chs := make([]Ch, n)
	rejs := make([]*Rejection[K], n)
	e.admitRange(remove, 0, n, mk, scheme, chs, rejs)
	return chs, rejs
}

// admitRange decides requests [lo, hi) together with the removal by
// greedy bisection, writing verdicts into chs/rejs.
func (e *Engine[K, Ch, P]) admitRange(remove []ID, lo, hi int, mk func(i int, id ID) Ch, scheme Scheme[Ch, P], chs []Ch, rejs []*Rejection[K]) {
	got, rej := e.Apply(remove, hi-lo, func(i int, id ID) Ch { return mk(lo+i, id) }, scheme)
	switch {
	case rej == nil:
		copy(chs[lo:hi], got)
	case hi-lo == 1:
		rejs[lo] = rej
		if len(remove) > 0 {
			e.Apply(remove, 0, nil, scheme)
		}
	default:
		mid := lo + (hi-lo)/2
		e.admitRange(remove, lo, mid, mk, scheme, chs, rejs)
		e.admitRange(nil, mid, hi, mk, scheme, chs, rejs)
	}
}
