package edf

import (
	"math/big"
	"math/bits"
)

// UtilSum is an exact running utilization sum U = sum(C/P) (Eq. 18.2),
// kept as a numerator over a denominator in machine words. The
// denominator is the lcm of the periods added since the sum was last
// zero: adding c/p rescales it to lcm(den, p), removing c/p subtracts
// c*(den/p), and the first constraint's answer, U > 1, is num > den. So
// the answer costs no per-term sum, even at exactly U = 1.
//
// When a word would overflow, the sum moves to a big.Rat and stays there
// until it returns to zero. A sum that returns to zero restarts at 0/1 in
// words. Either way the value is exact: the running sum always equals a
// fresh summation.
//
// The zero value is the empty sum. A UtilSum is a value: a copy is
// independent of the original, since the big.Rat form is replaced, never
// changed in place.
type UtilSum struct {
	num, den uint64   // the sum num/den while rat is nil; den 0 reads as 1
	rat      *big.Rat // the sum, once a word overflowed
}

// Add adds c/p to the sum. p must not be 0.
func (u *UtilSum) Add(c, p int64) {
	if u.rat == nil && c >= 0 && p > 0 {
		if q, ok := u.scale(uint64(p)); ok {
			hi, term := bits.Mul64(uint64(c), q)
			if sum, carry := bits.Add64(u.num, term, 0); hi|carry == 0 {
				u.num = sum
				return
			}
		}
	}
	u.exact(c, p, (*big.Rat).Add)
}

// Sub removes c/p from the sum. p must not be 0.
func (u *UtilSum) Sub(c, p int64) {
	if u.rat == nil && c >= 0 && p > 0 {
		if q, ok := u.scale(uint64(p)); ok {
			if hi, term := bits.Mul64(uint64(c), q); hi == 0 && term <= u.num {
				if u.num -= term; u.num == 0 {
					*u = UtilSum{}
				}
				return
			}
		}
	}
	u.exact(c, p, (*big.Rat).Sub)
}

// scale makes p divide the word denominator, keeping the value, and
// returns den/p; ok is false when a word would overflow. p divides the
// denominator already unless it was added before the sum was last zero,
// or never.
func (u *UtilSum) scale(p uint64) (q uint64, ok bool) {
	d := max(u.den, 1)
	if q = d / p; q*p == d {
		u.den = d
		return q, true
	}
	g := gcd64(d, p)
	m := p / g
	dhi, den := bits.Mul64(d, m)
	nhi, num := bits.Mul64(u.num, m)
	if dhi|nhi != 0 {
		return 0, false
	}
	u.num, u.den = num, den
	return d / g, true
}

// exact applies op(sum, c/p) in the big.Rat form, moving the sum there
// first; a result of zero restarts the sum in words.
func (u *UtilSum) exact(c, p int64, op func(z, x, y *big.Rat) *big.Rat) {
	r := u.Rat()
	op(r, r, new(big.Rat).SetFrac64(c, p))
	if r.Sign() == 0 {
		*u = UtilSum{}
		return
	}
	*u = UtilSum{rat: r}
}

var ratOne = big.NewRat(1, 1)

// ExceedsOne reports whether U > 1 exactly: the paper's first
// constraint, under which a link is feasible only at utilization 100 % or
// less.
func (u UtilSum) ExceedsOne() bool {
	if u.rat != nil {
		return u.rat.Cmp(ratOne) > 0
	}
	return u.num > u.den
}

// Rat returns the sum as a new big.Rat.
func (u UtilSum) Rat() *big.Rat {
	if u.rat != nil {
		return new(big.Rat).Set(u.rat)
	}
	return new(big.Rat).SetFrac(new(big.Int).SetUint64(u.num), new(big.Int).SetUint64(max(u.den, 1)))
}

// String renders the sum as its reduced rational, as big.Rat does.
func (u UtilSum) String() string { return u.Rat().String() }

// gcd64 returns the greatest common divisor of a and b.
func gcd64(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
