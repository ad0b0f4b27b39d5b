package edf

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestClassesMatchRebuild keeps a table task by task — adds, then
// removals in random order — and checks it after every step against a
// Rebuild of the tasks it holds, on sets with a few classes (Rebuild
// inserts) and with more than insertClasses (Rebuild sorts), empty slots
// and capacities that carry past 64 bits included.
func TestClassesMatchRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		distinct := []int64{3, 2 * insertClasses}[trial%2]
		var tasks []Task
		for n := rng.Intn(100); len(tasks) < n; {
			c := int64(1 + rng.Intn(4))
			if rng.Intn(8) == 0 {
				c = math.MaxInt64 - int64(rng.Intn(4))
			}
			tasks = append(tasks, Task{C: c, P: 10 + rng.Int63n(2), D: rng.Int63n(distinct)})
		}
		var live Classes
		check := func(held []Task) {
			t.Helper()
			slots := slices.Clone(held)
			for k := 0; k < len(held)/4; k++ {
				slots = slices.Insert(slots, rng.Intn(len(slots)+1), Task{})
			}
			var fresh Classes
			fresh.Rebuild(slots)
			if !slices.Equal(live.All(), fresh.All()) {
				t.Fatalf("trial %d: kept %+v, rebuilt %+v", trial, live.All(), fresh.All())
			}
			for k, c := range fresh.All() {
				if k > 0 && (c.D < fresh.All()[k-1].D || (c.D == fresh.All()[k-1].D && c.P <= fresh.All()[k-1].P)) {
					t.Fatalf("trial %d: classes out of (D, P) order: %+v", trial, fresh.All())
				}
			}
		}
		for k, task := range tasks {
			live.Add(task)
			check(tasks[:k+1])
		}
		rng.Shuffle(len(tasks), func(a, b int) { tasks[a], tasks[b] = tasks[b], tasks[a] })
		for len(tasks) > 0 {
			live.Remove(tasks[0])
			tasks = tasks[1:]
			check(tasks)
		}
	}
}
