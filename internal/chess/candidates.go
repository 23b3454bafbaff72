// Package chess implements the schedule-search phase: the original
// CHESS-style iterative context bounding (Musuvathi & Qadeer) and the
// paper's enhanced algorithm (Algorithm 2) that weights preemption
// combinations by critical-shared-variable access priorities and
// guides thread selection by future CSV sets.
package chess

import (
	"cmp"
	"slices"

	"heisendump/internal/ir"
	"heisendump/internal/slicing"
	"heisendump/internal/trace"
)

// PointKind classifies preemption candidate points.
type PointKind int

const (
	// ThreadStart is the beginning of a thread.
	ThreadStart PointKind = iota
	// BeforeAcquire preempts just before a lock acquisition, letting
	// threads that need the lock run first.
	BeforeAcquire
	// AfterRelease preempts just after a lock release, letting waiting
	// threads in.
	AfterRelease
)

func (k PointKind) String() string {
	switch k {
	case ThreadStart:
		return "start"
	case BeforeAcquire:
		return "before-acquire"
	case AfterRelease:
		return "after-release"
	}
	return "?"
}

// Candidate is one preemption candidate discovered from the passing
// run, identified dynamically by (Thread, Kind, Seq) where Seq is the
// thread's completed synchronization-operation count at the point.
type Candidate struct {
	ID     int
	Thread int
	Kind   PointKind
	Seq    int
	// Step is where the point occurred in the recorded passing run.
	Step int64
	// Lock is the lock involved, for reports.
	Lock string

	// Accesses annotates the candidate with the CSV accesses inside the
	// schedule block it leads (same thread, up to the thread's next
	// candidate), each carrying its heuristic priority. Candidates at
	// one step share one block.
	Accesses []slicing.Access
	// FutureCSVs is the set of CSVs this thread accesses at or after
	// the point — the "CSV set" consulted when other threads decide
	// whether switching to this thread can perturb a block.
	FutureCSVs CSVSet

	// block is the set of CSVs the candidate's block accesses.
	block CSVSet
}

// CSVSet is a set of critical shared variables: a bitset over their
// indexes in the analysis's CSV list (slicing.Access.CSV).
type CSVSet []uint64

// Has reports whether the CSV at index i is in the set; no negative
// index is.
func (s CSVSet) Has(i int) bool {
	w := uint(i) / 64
	return w < uint(len(s)) && s[w]&(1<<(uint(i)%64)) != 0
}

func (s CSVSet) add(i int) { s[i/64] |= 1 << (i % 64) }

// overlaps reports whether the two sets share a CSV.
func (s CSVSet) overlaps(o CSVSet) bool {
	for w := range min(len(s), len(o)) {
		if s[w]&o[w] != 0 {
			return true
		}
	}
	return false
}

// MinPriority returns the best (smallest) priority among the
// candidate's block accesses, or slicing.PriorityBottom when the block
// touches no CSV.
func (c *Candidate) MinPriority() int {
	min := slicing.PriorityBottom
	for _, a := range c.Accesses {
		if a.Priority < min {
			min = a.Priority
		}
	}
	return min
}

// DiscoverCandidates scans a passing-run trace for preemption points:
// thread starts, successful lock acquisitions (preempt before) and
// lock releases (preempt after). Lock state is reconstructed from the
// trace to tell successful acquisitions from blocked attempts.
func DiscoverCandidates(prog *ir.Program, events []trace.Event) []Candidate {
	// Every thread start, acquire and release bounds the candidates.
	n, threads := 0, 0
	for i := range events {
		e := &events[i]
		threads = max(threads, e.Thread+1)
		if op := prog.InstrAt(e.PC).Op; op == ir.OpAcquire || op == ir.OpRelease {
			n++
		}
	}
	out := make([]Candidate, 0, n+threads)
	lockHolder := make([]int, len(prog.Locks))
	for i := range lockHolder {
		lockHolder[i] = -1
	}
	completed := make([]int, threads)
	started := make([]bool, threads)

	for i := range events {
		e := &events[i]
		if !started[e.Thread] {
			started[e.Thread] = true
			out = append(out, Candidate{
				ID: len(out), Thread: e.Thread, Kind: ThreadStart, Seq: 0, Step: e.Step,
			})
		}
		in := prog.InstrAt(e.PC)
		switch in.Op {
		case ir.OpAcquire:
			if lockHolder[in.Lock] != -1 {
				continue // blocked attempt, not an acquisition
			}
			out = append(out, Candidate{
				ID: len(out), Thread: e.Thread, Kind: BeforeAcquire,
				Seq: completed[e.Thread], Step: e.Step, Lock: in.LockName,
			})
			lockHolder[in.Lock] = e.Thread
			completed[e.Thread]++
		case ir.OpRelease:
			lockHolder[in.Lock] = -1
			completed[e.Thread]++
			out = append(out, Candidate{
				ID: len(out), Thread: e.Thread, Kind: AfterRelease,
				Seq: completed[e.Thread], Step: e.Step, Lock: in.LockName,
			})
		}
	}
	return out
}

// Annotate attaches CSV-access and future-CSV-set annotations to
// candidates (Algorithm 2's two annotations). accesses are the
// prioritized CSV accesses of the passing run; Annotate sorts them by
// step, stably. Each candidate's block spans its own thread's accesses
// from its step up to, not including, the thread's next strictly
// greater candidate step, and its future set holds every CSV the
// thread accesses at or after its step. One pass per thread walks its
// candidates from the latest step back, so each future set is the
// later candidates' set plus the candidate's own block. The blocks are
// subslices of one copy of the accesses, grouped by thread, and the
// sets are carved from one array.
func Annotate(cands []Candidate, accesses []slicing.Access) {
	slices.SortStableFunc(accesses, func(a, b slicing.Access) int { return cmp.Compare(a.Step, b.Step) })
	words := 0
	for _, a := range accesses {
		words = max(words, a.CSV/64+1)
	}
	// The accesses and the candidates grouped by thread, each group in
	// step order.
	accs := slices.Clone(accesses)
	slices.SortStableFunc(accs, func(a, b slicing.Access) int { return cmp.Compare(a.Thread, b.Thread) })
	order := make([]int, len(cands))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		return cmp.Or(cmp.Compare(cands[a].Thread, cands[b].Thread), cmp.Compare(cands[a].Step, cands[b].Step))
	})

	// The running future set of the thread being walked, then each
	// candidate's future set and block set.
	sets := make([]uint64, (1+2*len(cands))*words)
	carve := func() CSVSet {
		if words == 0 {
			return nil
		}
		s := CSVSet(sets[:words:words])
		sets = sets[words:]
		return s
	}
	future := carve()
	for len(order) > 0 {
		tid := cands[order[0]].Thread
		n := 1
		for n < len(order) && cands[order[n]].Thread == tid {
			n++
		}
		th := order[:n]
		order = order[n:]
		first, _ := slices.BinarySearchFunc(accs, tid, func(a slicing.Access, t int) int { return cmp.Compare(a.Thread, t) })
		last := first
		for last < len(accs) && accs[last].Thread == tid {
			last++
		}
		taccs := accs[first:last]
		clear(future)
		// Candidates th[lo:hi] share one step; their block is
		// taccs[start:end], where end is the first access at or after
		// the next greater candidate step.
		end := len(taccs)
		for hi := len(th); hi > 0; {
			step := cands[th[hi-1]].Step
			lo := hi - 1
			for lo > 0 && cands[th[lo-1]].Step == step {
				lo--
			}
			start := end
			for start > 0 && taccs[start-1].Step >= step {
				start--
				future.add(taccs[start].CSV)
			}
			var block []slicing.Access
			if start < end {
				block = taccs[start:end:end]
			}
			for _, ci := range th[lo:hi] {
				c := &cands[ci]
				c.Accesses = block
				c.FutureCSVs, c.block = carve(), carve()
				copy(c.FutureCSVs, future)
				for _, a := range block {
					c.block.add(a.CSV)
				}
			}
			hi, end = lo, start
		}
	}
}
