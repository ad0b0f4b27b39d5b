package edf

import (
	"math"
	"math/big"
	"testing"
)

// TestUtilSumFallback walks one sum through every form: words at exactly
// U = 1, a big.Rat once the lcm of its periods passes 2^64, exact in
// both, and back to the zero value when it drains.
func TestUtilSumFallback(t *testing.T) {
	var u UtilSum
	for range 3 {
		u.Add(1, 3)
	}
	if u.ExceedsOne() || u.String() != "1/1" || u.rat != nil {
		t.Fatalf("three thirds: %v (over %v, big %v), want 1/1 in words", u, u.ExceedsOne(), u.rat != nil)
	}
	const p1, p2 = 1<<61 - 1, 1000003 // coprime; p1 * p2 * 3 > 2^64
	u.Add(1, p1)
	if !u.ExceedsOne() || u.rat != nil {
		t.Fatalf("1 + 1/(2^61-1): %v (over %v, big %v), want over, in words", u, u.ExceedsOne(), u.rat != nil)
	}
	u.Add(1, p2)
	if u.rat == nil {
		t.Fatalf("lcm(3, 2^61-1, 1000003) kept in words: %d/%d", u.num, u.den)
	}
	u.Sub(1, p1)
	u.Sub(1, p2)
	if u.ExceedsOne() || u.String() != "1/1" || u.rat == nil {
		t.Fatalf("back to three thirds: %v (over %v, big %v), want 1/1 still in the big.Rat", u, u.ExceedsOne(), u.rat != nil)
	}
	for range 3 {
		u.Sub(1, 3)
	}
	if u != (UtilSum{}) {
		t.Fatalf("drained sum %v is not the zero value", u)
	}
	u.Add(2, 5)
	if u.String() != "2/5" || u.rat != nil {
		t.Fatalf("reloaded sum %v (big %v), want 2/5 in words", u, u.rat != nil)
	}
}

// utilPeriods are the periods FuzzUtilSumMatchesRat draws from: small
// ones, and large pairwise coprime ones whose lcm passes 2^64.
var utilPeriods = []int64{1, 3, 7, 40, 100, 1 << 20, 1000003, 1<<32 - 5, 1<<32 - 17, 1<<61 - 1, math.MaxInt64 - 1, math.MaxInt64}

// FuzzUtilSumMatchesRat plays add/remove sequences on a UtilSum against
// a plain big.Rat sum. Each input byte pair is one step: add a term
// (c from the low bits' choice relative to the period), remove one live
// term, or drain every live term. After every step the sum's value and
// its U > 1 answer equal the big.Rat's, a copy taken before the step
// still holds the old value, and a drained sum is the zero value, ready
// to reload in words.
func FuzzUtilSumMatchesRat(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 0, 1, 0, 10, 2, 3, 3, 0, 0, 1})
	f.Add([]byte{0, 9, 4, 6, 20, 11, 8, 7, 2, 1, 3, 0, 12, 2, 0, 9, 3, 1})
	f.Add([]byte{24, 11, 24, 10, 24, 9, 2, 0, 16, 8, 2, 2, 3, 0, 0, 4})
	f.Add([]byte{0, 1, 24, 0, 2, 1, 3, 0, 0, 3})
	f.Add([]byte{24, 0, 0, 1, 2, 0, 3, 0, 4, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		type term struct{ c, p int64 }
		var (
			u    UtilSum
			ref  = new(big.Rat)
			live []term
		)
		for k := 0; k+1 < len(data) && k < 128; k += 2 {
			op, arg := data[k], data[k+1]
			prev, prevRef := u, new(big.Rat).Set(ref)
			drained := false
			switch op % 4 {
			case 0, 1:
				p := utilPeriods[int(arg)%len(utilPeriods)]
				c := []int64{1, 2, p / 3, p / 2, p - 1, p, math.MaxInt64}[int(op>>2)%7]
				u.Add(c, p)
				ref.Add(ref, big.NewRat(c, p))
				live = append(live, term{c, p})
			case 2:
				if len(live) == 0 {
					continue
				}
				j := int(arg) % len(live)
				tm := live[j]
				live = append(live[:j], live[j+1:]...)
				u.Sub(tm.c, tm.p)
				ref.Sub(ref, big.NewRat(tm.c, tm.p))
			case 3:
				for len(live) > 0 {
					j := int(arg) % len(live)
					tm := live[j]
					live = append(live[:j], live[j+1:]...)
					u.Sub(tm.c, tm.p)
					ref.Sub(ref, big.NewRat(tm.c, tm.p))
				}
				drained = true
			}
			if got := u.Rat(); got.Cmp(ref) != 0 {
				t.Fatalf("step %d: sum %v, want %v", k/2, got, ref)
			}
			if over := ref.Cmp(big.NewRat(1, 1)) > 0; u.ExceedsOne() != over {
				t.Fatalf("step %d: sum %v: over %v, want %v", k/2, ref, u.ExceedsOne(), over)
			}
			if prev.Rat().Cmp(prevRef) != 0 {
				t.Fatalf("step %d: the copy taken before the step reads %v, want %v", k/2, prev, prevRef)
			}
			if drained && u != (UtilSum{}) {
				t.Fatalf("step %d: drained sum %v (big %v) is not the zero value", k/2, u, u.rat != nil)
			}
		}
	})
}
