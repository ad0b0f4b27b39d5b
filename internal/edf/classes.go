package edf

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
)

// Class is one deadline class of a task set: its N tasks that share the
// deadline D and the period P. They all have their checkpoints at
// m*P + D, where each adds the class's total capacity to the demand, so a
// demand walk reads one class where it would read N tasks. The capacity
// sum is kept exact (128 bits), so a task can leave the class again.
type Class struct {
	D, P     int64
	N        int
	cHi, cLo uint64
}

// C returns the class's total capacity, saturated at math.MaxInt64 like
// TotalCapacity. A saturating sum of non-negative terms does not depend
// on how the terms are grouped, so the demand a walk sums over classes
// equals the demand it would sum over their tasks.
func (c *Class) C() int64 {
	if c.cHi != 0 || c.cLo > math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(c.cLo)
}

// Classes is the deadline-class table of a task set: one Class per
// distinct (D, P), sorted by D, then P. Sorted by deadline, the classes a
// walk up to a bound reads are a prefix of the table, and a prefix is a
// valid min-heap of first checkpoints as it stands.
//
// The table is a function of the task multiset alone, so a table kept up
// task by task (Add, Remove) equals the one Rebuild makes. An owner that
// does not keep it up through a change marks it stale instead
// (MarkStale); a stale table ignores Add and Remove, and the feasibility
// test rebuilds it from the tasks before it walks (Summary.Test).
//
// The zero value is the live table of the empty set.
type Classes struct {
	cs    []Class
	stale bool
}

// Empty reports whether t is an empty slot: the zero Task, which a
// caller keeping a task list with holes writes where a task left. A real
// task has a period of at least 1. Rebuild, Summary.Rescan and
// Summary.Test skip empty slots.
func Empty(t Task) bool { return t == Task{} }

// find returns the position of task's class, or where it would go.
func (t *Classes) find(task Task) (int, bool) {
	lo, hi := 0, len(t.cs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if c := &t.cs[m]; c.D < task.D || (c.D == task.D && c.P < task.P) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(t.cs) && t.cs[lo].D == task.D && t.cs[lo].P == task.P
}

// Add folds a task into its class, opening the class if it is new.
func (t *Classes) Add(task Task) {
	if !t.stale {
		t.add(task)
	}
}

func (t *Classes) add(task Task) {
	k, ok := t.find(task)
	if !ok {
		t.cs = slices.Insert(t.cs, k, Class{D: task.D, P: task.P})
	}
	c := &t.cs[k]
	var carry uint64
	c.cLo, carry = bits.Add64(c.cLo, uint64(task.C), 0)
	c.cHi += carry
	c.N++
}

// Remove takes a task that was added out of its class, closing the class
// when it was the last.
func (t *Classes) Remove(task Task) {
	if !t.stale {
		t.remove(task)
	}
}

func (t *Classes) remove(task Task) {
	k, _ := t.find(task)
	c := &t.cs[k]
	if c.N == 1 {
		t.cs = slices.Delete(t.cs, k, k+1)
		return
	}
	var borrow uint64
	c.cLo, borrow = bits.Sub64(c.cLo, uint64(task.C), 0)
	c.cHi -= borrow
	c.N--
}

// MarkStale records that the table no longer follows its task set.
func (t *Classes) MarkStale() { t.stale = true }

// Stale reports whether the table must be rebuilt before it is read.
func (t *Classes) Stale() bool { return t.stale }

// insertClasses bounds the classes Rebuild collects by binary insertion:
// cheap while the table is small, which it is on every link measured
// (a few classes per walked link), but O(n·k) for k classes. Past it,
// Rebuild sorts instead, O(n log n) however many classes there are.
const insertClasses = 32

// Rebuild recomputes the table from tasks, empty slots skipped, and makes
// it live.
func (t *Classes) Rebuild(tasks []Task) {
	t.cs, t.stale = t.cs[:0], false
	for _, task := range tasks {
		if Empty(task) {
			continue
		}
		if len(t.cs) == insertClasses {
			t.sortBuild(tasks)
			return
		}
		t.add(task)
	}
}

// sortBuild is Rebuild by sorting every task into (D, P) order and
// merging equal neighbours.
func (t *Classes) sortBuild(tasks []Task) {
	cs := slices.Grow(t.cs[:0], len(tasks))
	for _, task := range tasks {
		if !Empty(task) {
			cs = append(cs, Class{D: task.D, P: task.P, N: 1, cLo: uint64(task.C)})
		}
	}
	slices.SortFunc(cs, func(a, b Class) int {
		if r := cmp.Compare(a.D, b.D); r != 0 {
			return r
		}
		return cmp.Compare(a.P, b.P)
	})
	merged := cs[:0]
	for _, c := range cs {
		if n := len(merged); n > 0 && merged[n-1].D == c.D && merged[n-1].P == c.P {
			m := &merged[n-1]
			var carry uint64
			m.cLo, carry = bits.Add64(m.cLo, c.cLo, 0)
			m.cHi += carry
			m.N++
			continue
		}
		merged = append(merged, c)
	}
	t.cs = merged
}

// All returns the table's classes in (D, P) order; the slice is the
// table's own, valid until the next change. Meaningless while Stale.
func (t *Classes) All() []Class { return t.cs }

// Clone returns a copy sharing no storage with t.
func (t *Classes) Clone() Classes { return Classes{cs: slices.Clone(t.cs), stale: t.stale} }
