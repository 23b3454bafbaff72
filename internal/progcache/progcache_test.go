package progcache

import (
	"strings"
	"sync"
	"testing"

	"heisendump/internal/ir"
)

// progSrc is a small valid subject program; variants are derived by
// renaming it, which changes the source hash (and nothing else the
// cache cares about).
const progSrc = `
program cachetest;

global int x;
lock L;

func main() {
    spawn T1();
    x = 1;
}

func T1() {
    var int i;
    while (x < 3) {
        acquire(L);
        x = x + 1;
        release(L);
        i = i + 1;
        if (i > 10) {
            break;
        }
    }
}
`

func TestGetSharesOnePointer(t *testing.T) {
	c := New(8)
	p1, _, err := c.Get(progSrc, true)
	if err != nil {
		t.Fatal(err)
	}
	p2, _, err := c.Get(progSrc, true)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("second Get returned a different *ir.Program")
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 1 || st.Entries != 1 {
		t.Fatalf("stats after hit: %+v", st)
	}
}

func TestInstrumentFlagSplitsKeys(t *testing.T) {
	c := New(8)
	instr, _, err := c.Get(progSrc, true)
	if err != nil {
		t.Fatal(err)
	}
	plain, _, err := c.Get(progSrc, false)
	if err != nil {
		t.Fatal(err)
	}
	if instr == plain {
		t.Fatal("instrumented and uninstrumented compilations share an entry")
	}
	if !instr.Instrumented || plain.Instrumented {
		t.Fatalf("Instrumented flags wrong: %v / %v", instr.Instrumented, plain.Instrumented)
	}
}

func TestConcurrentGetCompilesOnce(t *testing.T) {
	c := New(8)
	const n = 32
	progs := make([]*ir.Program, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, _, err := c.Get(progSrc, true)
			if err != nil {
				t.Error(err)
				return
			}
			progs[i] = p
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if progs[i] != progs[0] {
			t.Fatalf("goroutine %d saw a different program", i)
		}
	}
	if st := c.Stats(); st.Misses != 1 {
		t.Fatalf("want exactly one compilation, stats %+v", st)
	}
}

func TestErrorsAreCachedAndTyped(t *testing.T) {
	c := New(8)
	_, _, err1 := c.Get("garbage", true)
	if err1 == nil {
		t.Fatal("garbage compiled")
	}
	_, _, err2 := c.Get("garbage", true)
	if err1 != err2 {
		t.Fatalf("error not cached: %v vs %v", err1, err2)
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(2)
	srcs := []string{
		progSrc,
		strings.Replace(progSrc, "program cachetest;", "program cachetest2;", 1),
		strings.Replace(progSrc, "program cachetest;", "program cachetest3;", 1),
	}
	first, _, err := c.Get(srcs[0], true)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range srcs[1:] {
		if _, _, err := c.Get(s, true); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("want 2 entries 1 eviction, got %+v", st)
	}
	// The evicted program is recompiled on the next Get — a fresh
	// pointer, still a valid program.
	again, _, err := c.Get(srcs[0], true)
	if err != nil {
		t.Fatal(err)
	}
	if again == first {
		t.Fatal("evicted entry was still returned")
	}
}
