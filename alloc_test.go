package heisendump_test

import (
	"context"
	"runtime"
	"testing"

	"heisendump"
)

// reproductionKB lists fig1 and the seven Table 2 bugs, each with its
// ceiling, in KB, on the bytes one whole reproduction allocates, from
// NewCompiled through the search's result, at one worker and a
// 3000-try budget: the most measured over repeated runs, with and
// without the race detector, plus 25%.
var reproductionKB = []struct {
	name string
	kb   uint64
}{
	{"fig1", 89},
	{"apache-1", 220},
	{"apache-2", 249},
	{"mysql-1", 133},
	{"mysql-2", 136},
	{"mysql-3", 137},
	{"mysql-4", 141},
	{"mysql-5", 144},
}

// TestReproductionAllocationCeiling: a whole reproduction of each case
// — a new Session's provoke, analysis and search — allocates less than
// its reproductionKB ceiling. Each case reproduces once first, so
// process-wide state filled on first use (such as the stress
// generator's seed table) is not counted.
func TestReproductionAllocationCeiling(t *testing.T) {
	ctx := context.Background()
	for _, c := range reproductionKB {
		name := c.name
		w, prog := compileWorkload(t, name)
		reproduce := func() *heisendump.Report {
			rep, err := heisendump.NewCompiled(prog, w.Input,
				heisendump.WithWorkers(1),
				heisendump.WithTrialBudget(3000),
			).Reproduce(ctx)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return rep
		}
		reproduce()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rep := reproduce()
		runtime.ReadMemStats(&after)
		bytes := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: %d tries, %d bytes, %d allocations", name,
			rep.Search.Tries, bytes, after.Mallocs-before.Mallocs)
		if bytes >= c.kb<<10 {
			t.Errorf("%s: the reproduction allocated %d bytes, want under %d KB", name, bytes, c.kb)
		}
	}
}
