package chess

import (
	"fmt"
	"reflect"

	"heisendump/internal/interp"
	"heisendump/internal/sched"
)

// countedChooser counts the Runner's consultations of a trial chooser.
type countedChooser struct {
	*trialChooser
	asked int
}

func (c *countedChooser) Next(m *interp.Machine) int {
	c.asked++
	return c.trialChooser.Next(m)
}

// TrialConsultations walks the first ranks of s's worklist the way a
// search explores them — every thread-choice vector of the odometer
// until a trial finds the target — and runs each trial the way
// runTrial does, with a counting wrapper around its chooser. It
// returns the number of trials, the most consultations one trial made
// and their total, or a description of the first trial whose result
// differs from runTrial's.
func TrialConsultations(s *Searcher, ranks int) (trials, most, total int, diff string) {
	bound := s.Opts.Bound
	if bound <= 0 {
		bound = 2
	}
	maxRun := s.runBound()
	wl := newWorklist(s.Candidates, bound, s.Opts.Weighted, s.Opts.Static)
	m := s.NewMachine()
	future := newFutureIndex(s.Candidates)
	want := trialChooser{future: future}
	for r := 0; r < wl.size && r < ranks; r++ {
		combo := wl.at(r)
		vec := make([]int, len(combo))
		for {
			w := s.runTrial(m, &want, combo, vec, maxRun)
			w.choiceCounts = append([]int(nil), w.choiceCounts...)

			m.Reset(m.Prog, m.SeedInput())
			c := countedChooser{trialChooser: &trialChooser{future: future}}
			c.start(s, combo, vec)
			sched.Runner{MaxSteps: maxRun}.Run(m, &c)
			c.settle(m)
			trials++
			total += c.asked
			most = max(most, c.asked)
			if found := m.Crashed() && s.Target.Matches(m.Crash); found != w.found || m.TotalSteps != w.steps ||
				!reflect.DeepEqual(c.counts, w.choiceCounts) || !reflect.DeepEqual(c.applied, w.applied) {
				return trials, most, total, fmt.Sprintf("rank %d combo %v vec %v: counted run differs from runTrial", r, combo, vec)
			}
			if w.found {
				break
			}
			pos := len(vec) - 1
			for pos >= 0 {
				if vec[pos]+1 < max(w.choiceCounts[pos], 1) {
					vec[pos]++
					break
				}
				vec[pos] = 0
				pos--
			}
			if pos < 0 {
				break
			}
		}
	}
	return trials, most, total, ""
}
