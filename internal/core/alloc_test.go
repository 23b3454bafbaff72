package core_test

import (
	"context"
	"runtime"
	"testing"

	"heisendump/internal/core"
	"heisendump/internal/slicing"
	"heisendump/internal/workloads"
)

// analysisKB is each Table 2 bug's ceiling, in KB, on the bytes one
// analysis allocates from NewAnalysis through StageCandidates under
// either heuristic: the most measured over repeated runs, with and
// without the race detector, plus 25%.
var analysisKB = map[string]uint64{
	"apache-1": 161,
	"apache-2": 95,
	"mysql-1":  90,
	"mysql-2":  88,
	"mysql-3":  97,
	"mysql-4":  89,
	"mysql-5":  91,
}

// TestAnalysisAllocationCeiling: analyzing a provoked failure of each
// Table 2 bug under the temporal and the dependence heuristic (workers
// 1), from NewAnalysis through StageCandidates, allocates less than the
// bug's analysisKB. The alignment re-run's trace and everything
// derived from it dominate those bytes.
func TestAnalysisAllocationCeiling(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloads.Bugs() {
		ceiling, ok := analysisKB[w.Name]
		if !ok {
			t.Fatalf("%s: no ceiling", w.Name)
		}
		prog, err := w.Compile(true)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range []slicing.Heuristic{slicing.Temporal, slicing.Dependence} {
			p := core.NewPipeline(prog, w.Input, core.Config{Heuristic: h, Workers: 1})
			fail, err := p.ProvokeFailureContext(ctx)
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			a := p.NewAnalysis(fail)
			err = a.ThroughContext(ctx, core.StageCandidates)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatalf("%s/%v: %v", w.Name, h, err)
			}
			bytes := after.TotalAlloc - before.TotalAlloc
			t.Logf("%s/%v: %d steps, %d bytes, %d allocations", w.Name, h,
				a.Report.PassingSteps, bytes, after.Mallocs-before.Mallocs)
			if bytes >= ceiling<<10 {
				t.Errorf("%s/%v: the analysis allocated %d bytes, want under %d KB", w.Name, h, bytes, ceiling)
			}
		}
	}
}
