package admit

import (
	"slices"
	"testing"

	"repro/internal/edf"
)

// indexOps is toyOps with a deadline per hop parity (part + hop%2), so a
// link carries several classes of one channel population, and with every
// hop a placeholder (D = 0) until the channel's first partition.
var indexOps = func() *Ops[int, *toyChan, int64] {
	ops := *toyOps
	ops.Task = func(ch *toyChan, hop int) edf.Task {
		if ch.part == 0 {
			return edf.Task{C: ch.c, P: ch.p}
		}
		return edf.Task{C: ch.c, P: ch.p, D: ch.part + int64(hop%2)}
	}
	return &ops
}()

// indexLinks is the number of link keys FuzzLinkIndexMatchesModel uses.
const indexLinks = 5

// modelHop is one hop of a committed channel in the model.
type modelHop struct {
	id  ID
	hop int
}

// FuzzLinkIndexMatchesModel drives random decisions — admissions of one
// to three channels, removals of one or two, and both at once — through
// the engine and keeps a plain model beside it: per link, the hops of the
// committed channels in establishment order, in a slice. After every
// step it requires of every link that TasksOn equals the model's tasks,
// that the summary rescanned equals a fresh one (and equals it as it
// stands unless it is loose), that a live class table equals a rebuild,
// and that Summary.Test on the live summary and table, with the link's
// utilization filled in, equals edf.TestScratch on the model's tasks
// field for field. checkTaskTable checks the tombstones, dead counts and
// positions, and a refused decision must leave the slot layout, class
// tables included, bit-identical (rawState).
//
// Every admission passes through placeholders (D = 0) to its first
// partition and, when refused, back; a load-adaptive scheme moves
// partitioned tasks between classes, which leaves tables stale; channels
// at C = P drive links past U > 1, so decisions are refused with
// removals in them (rolled back over tombstones); removals compact
// links; and some channels cross their first link twice.
func FuzzLinkIndexMatchesModel(f *testing.F) {
	f.Add([]byte{0, 0, 7, 9, 12, 4, 13, 10, 30, 1, 2, 15, 0, 2, 0, 0, 3, 0, 0, 5})
	f.Add([]byte{0x23, 4, 0x81, 40, 3, 8, 31, 47, 8, 0x82, 3, 15, 0, 0, 14, 17, 9, 6, 2, 3, 7, 1, 0x8b, 0})
	f.Add([]byte{0x45, 1, 0, 1, 1, 5, 6, 2, 2, 9, 12, 3, 3, 0, 1, 4, 2, 1, 0, 0, 6, 6, 31, 9, 7, 0x85, 47, 2})
	f.Fuzz(checkLinkIndex)
}

// checkLinkIndex is FuzzLinkIndexMatchesModel's body.
func checkLinkIndex(t *testing.T, data []byte) {
	if len(data) < 1 {
		return
	}
	opts := edf.Options{SkipValidation: true, MaxCheckpoints: int(data[0]>>5) % 4}
	adaptive, step := data[0]&1 == 1, int64(data[0]>>1)%4
	want := map[ID]int64{} // each channel's requested deadline
	scheme := Scheme[*toyChan, int64]{
		Part: func(ch *toyChan, loads []int64, _ int64) int64 {
			if !adaptive {
				return want[ch.id]
			}
			var sum int64
			for _, l := range loads {
				sum += l
			}
			return max(ch.c, want[ch.id]-step*sum)
		},
		Adaptive: func() bool { return adaptive },
	}
	e := NewEngine(indexOps, Config{Feasibility: opts})
	st := e.State()
	model := make([][]modelHop, indexLinks)
	chans := map[ID]*toyChan{}
	var live []ID
	var scratch edf.Scratch

	for k := 1; k+3 < len(data) && k < 1+4*64; k += 4 {
		b := data[k : k+4]
		var remove []ID
		n := 1 + int(b[0]/4)%3
		if kind := b[0] % 4; kind >= 2 && len(live) > 0 {
			remove = append(remove, live[int(b[3])%len(live)])
			if other := live[int(b[2])%len(live)]; b[0]&0x10 != 0 && other != remove[0] {
				remove = append(remove, other)
			}
			if kind == 2 {
				n = 0
			}
		}
		p := []int64{8, 12, 16, 24, 48}[int(b[2]/16)%5] // hyperperiod 48 keeps every walk short
		c := 1 + int64(b[2])%4
		if b[2]%16 == 15 {
			c = p // a whole period: U > 1 beside any other channel
		}
		d := c + int64(b[3])%(2*p)
		mk := func(i int, id ID) *toyChan {
			first := int(b[1]+byte(i)) % indexLinks
			links := []int{first}
			for h := 1; h <= int(b[1]/8)%3; h++ {
				links = append(links, (first+h)%indexLinks)
			}
			if b[1]&0x80 != 0 {
				links = append(links, first) // crosses its first link twice
			}
			want[id] = d
			return &toyChan{id: id, c: c, p: p, links: links}
		}

		before := rawState(st)
		chs, rej := e.Apply(remove, n, mk, scheme)
		if rej != nil {
			if after := rawState(st); after != before {
				t.Fatalf("step %d: refused decision changed the state:\n before %s\n after  %s", k/4, before, after)
			}
		} else {
			for l := range model {
				model[l] = slices.DeleteFunc(model[l], func(h modelHop) bool { return slices.Contains(remove, h.id) })
			}
			live = slices.DeleteFunc(live, func(id ID) bool { return slices.Contains(remove, id) })
			for _, ch := range chs {
				chans[ch.id] = ch
				live = append(live, ch.id)
				for hop, l := range ch.links {
					model[l] = append(model[l], modelHop{id: ch.id, hop: hop})
				}
			}
		}

		checkTaskTable(t, k/4, st)
		for l, hops := range model {
			var tasks []edf.Task
			for _, h := range hops {
				tasks = append(tasks, indexOps.Task(chans[h.id], h.hop))
			}
			if got := st.TasksOn(l); !slices.Equal(got, tasks) {
				t.Fatalf("step %d: link %d: TasksOn %v, model %v", k/4, l, got, tasks)
			}
			i, ok := st.index[l]
			if !ok {
				if len(tasks) != 0 {
					t.Fatalf("step %d: link %d holds %d tasks but was never interned", k/4, l, len(tasks))
				}
				continue
			}
			var fresh edf.Summary
			for _, task := range tasks {
				fresh.Add(task)
			}
			fresh.Over = edf.UtilizationExceedsOne(tasks)
			s := st.sums[i]
			exact := s
			exact.Rescan(st.tasks[i])
			if exact != fresh || (!s.Loose() && s != fresh) {
				t.Fatalf("step %d: link %d: summary %+v (rescanned %+v), fresh %+v", k/4, l, s, exact, fresh)
			}
			var rebuilt edf.Classes
			rebuilt.Rebuild(tasks)
			if cs := st.classes[i]; !cs.Stale() && !slices.Equal(cs.All(), rebuilt.All()) {
				t.Fatalf("step %d: link %d: class table %+v, rebuild %+v", k/4, l, cs.All(), rebuilt.All())
			}
			cs := st.classes[i].Clone()
			got := s.Test(st.tasks[i], &cs, opts, &scratch)
			got.Utilization = st.utilization(i)
			if ref := edf.TestScratch(tasks, opts, nil); !sameResult(got, ref) {
				t.Fatalf("step %d: link %d: Summary.Test %+v, TestScratch on the model %+v", k/4, l, got, ref)
			}
		}
	}
}
