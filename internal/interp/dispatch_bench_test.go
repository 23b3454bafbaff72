package interp_test

import (
	"math"
	"testing"

	"heisendump/internal/interp"
	"heisendump/internal/ir"
	"heisendump/internal/lang"
	"heisendump/internal/sched"
)

// BenchmarkDispatch measures per-step interpreter cost for each
// dominant opcode shape, so opcode and
// superinstruction changes are measurable in isolation (the "ns/step"
// metric; lower is better). Each shape is a tiny single-thread program
// whose steady-state steps are overwhelmingly of one kind; the
// measured loop is Reset + run-to-completion, so free lists are warm
// and steps allocate nothing. Each shape has two legs:
//
//	step  — one Step call per instruction, the one-step dispatch
//	        call a random run makes per instruction inside
//	        Machine.RunRandom (stress attempts, witness searches)
//	burst — one RunBurst call to completion, the regime of search
//	        trials and cooperative runs
//
// Shapes:
//
//	counter   — counted-loop bookkeeping: fused compare-const branch,
//	            fused local increment (BCmpLC / BEndIncL)
//	global    — global read-modify-write (BCmpGC / BEndIncG / moves)
//	array     — element load/store with a local index
//	            (BLoadIndexLocal / BEndLToArr / BEndArrToL)
//	arith     — multi-operand expressions on the generic
//	            push/pop path (BBinop)
//	logic     — short-circuit && / || conditions
//	            (BAndCheck / BOrCheck / BBool)
//	field     — heap-object field reads and writes
//	call      — call/return with a bound result
//	lock      — uncontended acquire/release pairs
func BenchmarkDispatch(b *testing.B) {
	shapes := []struct {
		name string
		src  string
	}{
		{"counter", `
program counter;
func main() {
    var int i;
    var int s;
    for i = 1 .. 300 {
        s = s + 1;
    }
}
`},
		{"global", `
program globals;
global int g;
global int h;
func main() {
    var int i;
    for i = 1 .. 300 {
        g = g + 1;
        h = g;
    }
}
`},
		{"array", `
program arrays;
global int a[64];
func main() {
    var int i;
    var int v;
    for i = 0 .. 63 {
        a[i] = i;
        v = a[i];
        a[i] = v;
    }
}
`},
		{"arith", `
program arith;
func main() {
    var int i;
    var int s;
    for i = 1 .. 300 {
        s = (s * 3 + i) % 1000 - i / 7;
    }
}
`},
		{"logic", `
program logic;
func main() {
    var int i;
    var int s;
    for i = 1 .. 300 {
        if (i > 10 && i < 290 || s == 0) {
            s = s + 1;
        }
    }
}
`},
		{"field", `
program fields;
func main() {
    var int i;
    var ptr p;
    var int v;
    p = new(val, cnt);
    for i = 1 .. 300 {
        p.val = i;
        v = p.val;
        p.cnt = v;
    }
}
`},
		{"call", `
program calls;
func inc(int x) {
    return x + 1;
}
func main() {
    var int i;
    var int s;
    for i = 1 .. 150 {
        s = inc(s);
    }
}
`},
		{"lock", `
program locks;
lock L;
global int g;
func main() {
    var int i;
    for i = 1 .. 150 {
        acquire(L);
        g = g + 1;
        release(L);
    }
}
`},
	}

	for _, s := range shapes {
		prog, err := lang.Parse(s.src)
		if err != nil {
			b.Fatalf("%s: parse: %v", s.name, err)
		}
		cp, err := ir.Compile(prog, ir.Options{InstrumentLoops: true})
		if err != nil {
			b.Fatalf("%s: compile: %v", s.name, err)
		}
		for _, leg := range []struct {
			name string
			// run executes one step or one burst of the main thread.
			run func(m *interp.Machine) (bool, error)
		}{
			{"step", func(m *interp.Machine) (bool, error) { return m.Step(0) }},
			{"burst", func(m *interp.Machine) (bool, error) { return m.RunBurst(0, 0, math.MaxInt) }},
		} {
			b.Run(s.name+"/"+leg.name, func(b *testing.B) {
				m := interp.New(cp, nil)
				if res := sched.Run(m, sched.NewCooperative()); res.Crashed {
					b.Fatalf("warm-up run crashed: %v", res.Crash)
				}
				b.ReportAllocs()
				var steps int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.Reset(cp, nil)
					for !m.Done() {
						ok, err := leg.run(m)
						if err != nil {
							b.Fatal(err)
						}
						if !ok {
							break
						}
					}
					steps += m.TotalSteps
				}
				b.StopTimer()
				if m.Crashed() || !m.Done() {
					b.Fatalf("run did not finish: crash %v", m.Crash)
				}
				if steps > 0 {
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
				}
			})
		}
	}
}
