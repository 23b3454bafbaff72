// Package chess implements the schedule-search phase: the original
// CHESS-style iterative context bounding (Musuvathi & Qadeer) and the
// paper's enhanced algorithm (Algorithm 2) that weights preemption
// combinations by critical-shared-variable access priorities and
// guides thread selection by future CSV sets.
package chess

import (
	"cmp"
	"maps"
	"slices"
	"sort"

	"heisendump/internal/interp"
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
	// candidate), each carrying its heuristic priority.
	Accesses []slicing.Access
	// FutureCSVs is the set of CSVs this thread accesses at or after
	// the point — the "CSV set" consulted when other threads decide
	// whether switching to this thread can perturb a block.
	FutureCSVs map[interp.VarID]bool
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

// AccessVars returns the set of CSVs accessed in the candidate's
// block.
func (c *Candidate) AccessVars() map[interp.VarID]bool {
	out := map[interp.VarID]bool{}
	for _, a := range c.Accesses {
		out[a.Var] = true
	}
	return out
}

// DiscoverCandidates scans a passing-run trace for preemption points:
// thread starts, successful lock acquisitions (preempt before) and
// lock releases (preempt after). Lock state is reconstructed from the
// trace to tell successful acquisitions from blocked attempts.
func DiscoverCandidates(prog *ir.Program, events []trace.Event) []Candidate {
	var out []Candidate
	lockHolder := map[int32]int{}
	completed := map[int]int{}
	started := map[int]bool{}

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
			holder, held := lockHolder[in.Lock]
			if held && holder != -1 {
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
// greater candidate step, and its future set holds every variable the
// thread accesses at or after its step. One pass per thread walks its
// candidates from the latest step back, so each future set is the
// later candidates' set plus the candidate's own block.
func Annotate(cands []Candidate, accesses []slicing.Access) {
	sort.SliceStable(accesses, func(i, j int) bool { return accesses[i].Step < accesses[j].Step })
	type thread struct {
		cands []int
		accs  []slicing.Access
	}
	var threads []thread
	index := map[int]int{}
	for i := range cands {
		t, ok := index[cands[i].Thread]
		if !ok {
			t = len(threads)
			index[cands[i].Thread] = t
			threads = append(threads, thread{})
		}
		threads[t].cands = append(threads[t].cands, i)
	}
	for _, a := range accesses {
		if t, ok := index[a.Thread]; ok {
			threads[t].accs = append(threads[t].accs, a)
		}
	}
	for _, th := range threads {
		slices.SortFunc(th.cands, func(a, b int) int { return cmp.Compare(cands[a].Step, cands[b].Step) })
		future := map[interp.VarID]bool{}
		// Candidates th.cands[lo:hi] share one step; their block is
		// th.accs[start:end], where end is the first access at or after
		// the next greater candidate step.
		end := len(th.accs)
		for hi := len(th.cands); hi > 0; {
			step := cands[th.cands[hi-1]].Step
			lo := hi - 1
			for lo > 0 && cands[th.cands[lo-1]].Step == step {
				lo--
			}
			start := end
			for start > 0 && th.accs[start-1].Step >= step {
				start--
				future[th.accs[start].Var] = true
			}
			for _, ci := range th.cands[lo:hi] {
				c := &cands[ci]
				c.Accesses = append(c.Accesses, th.accs[start:end]...)
				c.FutureCSVs = maps.Clone(future)
			}
			hi, end = lo, start
		}
	}
}
