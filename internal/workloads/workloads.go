// Package workloads defines the concurrency-bug subject programs the
// evaluation reproduces — mini-language models of the mysql and apache
// bugs of the paper's Table 2, the paper's Fig. 1 running example, and
// the splash-II-style kernels used for the overhead measurements of
// Fig. 10.
//
// Each bug workload is shaped like the original report: a deterministic
// single-core run passes, while a fraction of random multicore-style
// interleavings crash. Filler request-processing work gives the
// programs realistic amounts of synchronization, which is what makes
// undirected schedule search expensive.
package workloads

import (
	"fmt"
	"sort"

	"heisendump/internal/interp"
	"heisendump/internal/ir"
	"heisendump/internal/progcache"
)

// Workload is one subject program plus its failure-inducing input.
type Workload struct {
	// Name is the short identifier used by the CLI tools (e.g.
	// "apache-1").
	Name string
	// BugID is the upstream bug-repository id the model follows.
	BugID string
	// Kind is "race" or "atom" (atomicity violation), per Table 2.
	Kind string
	// Description summarizes the defect.
	Description string
	// Threads is the thread count, counting main.
	Threads int
	// Source is the program in the mini language.
	Source string
	// Input is the failure-inducing input.
	Input *interp.Input
}

// Compile compiles the workload, with or without the while-loop
// counter instrumentation, through the process-wide shared program
// cache: repeated compilations of the same workload (experiment
// tables, concurrent reproduction jobs) share one immutable
// ir.Program. Errors from either phase name the workload.
func (w *Workload) Compile(instrument bool) (*ir.Program, error) {
	cp, _, err := progcache.Shared().Get(w.Source, instrument)
	if err != nil {
		return nil, fmt.Errorf("workloads: %s: %w", w.Name, err)
	}
	return cp, nil
}

// MustCompile is Compile but panics on error.
func (w *Workload) MustCompile(instrument bool) *ir.Program {
	p, err := w.Compile(instrument)
	if err != nil {
		panic(err)
	}
	return p
}

var registry = map[string]*Workload{}

func register(w *Workload) *Workload {
	if _, dup := registry[w.Name]; dup {
		panic("workloads: duplicate " + w.Name)
	}
	registry[w.Name] = w
	return w
}

// ByName returns the named workload, or nil.
func ByName(name string) *Workload { return registry[name] }

// Names lists all registered workload names, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Bugs returns the seven Table 2 bug workloads in the paper's order.
func Bugs() []*Workload {
	return []*Workload{Apache1, Apache2, MySQL1, MySQL2, MySQL3, MySQL4, MySQL5}
}

// Fig1 is the paper's running example (Fig. 1): thread T2's unguarded
// write to the flag x races with T1's flag-protected pointer
// dereference; when x=0 lands between T1's x=1 and its `if (!x)` test,
// T1 calls F with a null pointer.
var Fig1 = register(&Workload{
	Name:        "fig1",
	BugID:       "fig1",
	Kind:        "race",
	Description: "flag race from the paper's Fig. 1: unguarded x=0 defeats the null-pointer guard",
	Threads:     3,
	Source: `
program fig1;

global int x;
global int busy;
global int a[8];
lock L;

func main() {
    spawn T1(4);
    spawn T2(3);
}

func T1(int n) {
    var int i;
    var ptr p;
    for i = 1 .. n {
        x = 0;
        p = new(val);
        acquire(L);
        if (a[i] > 0) {
            x = 1;
            p = null;
        }
        release(L);
        if (!x) {
            F(p);
        }
    }
}

func F(ptr q) {
    output q.val;
}

func T2(int d) {
    var int j;
    for j = 1 .. d {
        busy = busy + 1;
    }
    x = 0;
}
`,
	Input: &interp.Input{Arrays: map[string][]int64{"a": {0, 1, 1, 1, 1, 0, 0, 0}}},
})
