package core

import (
	"heisendump/internal/index"
	"heisendump/internal/ir"
	"heisendump/internal/trace"
)

// alignByCount implements the Table 5 baseline over the recorded
// passing run: instead of execution-index alignment, the aligned point
// is found by executing the failing thread for the same number of
// thread-local instructions it had executed in the failing run (read
// from hardware counters there, from the dump's per-thread step counts
// here) and then looking for the next execution of the failure PC by
// that thread. When the PC never recurs, the point where the count was
// reached serves as the alignment. The failing thread may execute
// fewer instructions in the passing run than it did in the failing
// run — instruction counts are exactly what schedule differences skew
// — in which case the thread's last executed instruction serves as the
// (poor) alignment, mirroring how the baseline degrades in the paper.
func alignByCount(events []trace.Event, thread int, target int64, failPC ir.PC) index.Alignment {
	reach := max(target, 1) // the thread-local count that reaches the target
	var seen int64
	var al index.Alignment
	for i := range events {
		e := &events[i]
		if e.Thread != thread {
			continue
		}
		seen++
		if seen < reach {
			// The thread's frontier is the fallback alignment.
			al = index.Alignment{Kind: index.AlignClosest, Steps: e.Step + 1, PC: e.PC}
			continue
		}
		if seen == reach {
			al = index.Alignment{Kind: index.AlignClosest, Steps: e.Step, PC: e.PC}
		}
		if e.PC == failPC {
			return index.Alignment{Kind: index.AlignExact, Steps: e.Step, PC: e.PC}
		}
	}
	return al
}
