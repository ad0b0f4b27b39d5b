package edf

import (
	"math"
	"math/big"
)

// Utilization returns the exact total utilization U = sum(C_i/P_i) of the
// task set as a rational number (Eq. 18.2). The zero-value result for an
// empty set is 0/1.
func Utilization(tasks []Task) *big.Rat {
	u := new(big.Rat)
	term := new(big.Rat)
	for _, t := range tasks {
		term.SetFrac64(t.C, t.P)
		u.Add(u, term)
	}
	return u
}

// UtilizationFloat returns U as a float64 for reporting. It may round; use
// UtilizationExceedsOne or a UtilSum for admission decisions.
func UtilizationFloat(tasks []Task) float64 {
	var u float64
	for _, t := range tasks {
		u += float64(t.C) / float64(t.P)
	}
	return u
}

// UtilizationExceedsOne reports whether U > 1 exactly, summing the tasks
// through a UtilSum. This is the paper's first constraint: a link is only
// feasible when its utilization is at most 100%.
func UtilizationExceedsOne(tasks []Task) bool {
	var u UtilSum
	for _, t := range tasks {
		u.Add(t.C, t.P)
	}
	return u.ExceedsOne()
}

// GCD returns the greatest common divisor of a and b. GCD(0, 0) == 0.
func GCD(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// LCM returns the least common multiple of a and b and whether the result
// fits in an int64. LCM(0, x) == 0.
func LCM(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	g := GCD(a, b)
	q := a / g
	if q > math.MaxInt64/b {
		return 0, false
	}
	return q * b, true
}

// Hyperperiod returns the least common multiple of all task periods — the
// interval after which the synchronous schedule repeats — and whether the
// value fits in an int64. An empty task set has hyperperiod 1.
func Hyperperiod(tasks []Task) (int64, bool) {
	h := int64(1)
	for _, t := range tasks {
		var ok bool
		h, ok = LCM(h, t.P)
		if !ok {
			return 0, false
		}
	}
	return h, true
}
