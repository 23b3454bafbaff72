package statics

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"heisendump/internal/ir"
	"heisendump/internal/lang"
)

// memoLen counts the memoized reports.
func memoLen() int {
	n := 0
	cache.Range(func(any, any) bool {
		n++
		return true
	})
	return n
}

// TestMemoFollowsProgramLifetime: the Analyze memo must not outlive
// its programs. Programs compiled outside the shared compile cache are
// analyzed, dropped and collected; their memo entries must go with
// them, or a long-running service that analyzes a stream of distinct
// programs grows without bound.
func TestMemoFollowsProgramLifetime(t *testing.T) {
	const n = 64
	before := memoLen()
	analyzeFresh(t, n)
	if got := memoLen(); got < before+n {
		t.Fatalf("memo holds %d reports after %d analyses, want at least %d", got, n, before+n)
	}

	// analyzeFresh kept no reference to its programs: once collected,
	// their entries must be gone.
	deadline := time.Now().Add(10 * time.Second)
	for memoLen() > before {
		if time.Now().After(deadline) {
			t.Fatalf("memo still holds %d reports after the programs were dropped, want %d", memoLen(), before)
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}

// analyzeFresh compiles n distinct programs outside the shared compile
// cache, analyzes each, and drops them.
func analyzeFresh(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		src := fmt.Sprintf(`
program memo%d;

global int x;

func main() {
    spawn worker();
    x = x + %d;
}

func worker() {
    x = x + 1;
}
`, i, i)
		ast, err := lang.Parse(src)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		prog, err := ir.Compile(ast, ir.Options{})
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		if rep := Analyze(prog); len(rep.Races) == 0 {
			t.Fatalf("program %d: unguarded x not flagged", i)
		}
	}
}
