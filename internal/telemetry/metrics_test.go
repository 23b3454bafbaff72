package telemetry

import (
	"strings"
	"sync"
	"testing"
)

// TestShardMergeExact hammers one counter and one histogram from 64
// goroutines — workers colliding on shards on purpose — and checks
// the merged totals are exact. Run under -race in CI, this is the
// registry's concurrency contract.
func TestShardMergeExact(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("t_counter_total", "test counter.")
	h := r.Histogram("t_hist", "test histogram.", []int64{10, 100})

	const goroutines = 64
	const perG = 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cc := c.Cell(g)
			hc := h.Cell(g)
			for i := 0; i < perG; i++ {
				cc.Inc()
				cc.Add(2)
				hc.Observe(int64(i % 200))
			}
		}(g)
	}
	wg.Wait()

	if got, want := c.Value(), int64(goroutines*perG*3); got != want {
		t.Errorf("counter merged value = %d, want %d", got, want)
	}
	cum, sum, count := h.snapshot()
	if count != goroutines*perG {
		t.Errorf("histogram count = %d, want %d", count, goroutines*perG)
	}
	// Each goroutine observes 0..199 five times: sum = 5 * (199*200/2).
	if want := int64(goroutines) * 5 * (199 * 200 / 2); sum != want {
		t.Errorf("histogram sum = %d, want %d", sum, want)
	}
	if cum[len(cum)-1] != count {
		t.Errorf("+Inf cumulative bucket = %d, want count %d", cum[len(cum)-1], count)
	}
}

// TestHistogramBucketBoundaries pins the upper-inclusive ("le")
// boundary semantics: a value equal to a bound lands in that bound's
// bucket, one above lands in the next.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("t_bounds", "boundary histogram.", []int64{10, 100, 1000})
	for _, v := range []int64{0, 10, 11, 100, 101, 1000, 1001, 5000} {
		h.Observe(v)
	}
	cum, sum, count := h.snapshot()
	// Cumulative: le=10 -> {0,10}; le=100 -> +{11,100}; le=1000 -> +{101,1000}; +Inf -> all.
	want := []int64{2, 4, 6, 8}
	for i, w := range want {
		if cum[i] != w {
			t.Errorf("cum[%d] = %d, want %d", i, cum[i], w)
		}
	}
	if count != 8 || sum != 0+10+11+100+101+1000+1001+5000 {
		t.Errorf("count=%d sum=%d", count, sum)
	}
}

// TestHotPathAllocs proves the increment paths allocate nothing —
// the property that lets the search instrument trials while the
// allocs/step CI gate stays at zero.
func TestHotPathAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("t_allocs_total", "alloc-free counter.")
	h := r.Histogram("t_allocs_hist", "alloc-free histogram.", []int64{10, 100})
	cell := c.Cell(3)
	hcell := h.Cell(3)
	if n := testing.AllocsPerRun(1000, func() {
		cell.Add(7)
		c.Inc()
		hcell.Observe(42)
	}); n != 0 {
		t.Errorf("hot-path allocs/op = %v, want 0", n)
	}
}

// TestPrometheusExposition checks the text format: HELP/TYPE once per
// family, label rendering, histogram bucket/sum/count series.
func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("t_family_total", "a labeled family.", Label{Key: "kind", Value: "x"})
	b := r.Counter("t_family_total", "a labeled family.", Label{Key: "kind", Value: "y"})
	h := r.Histogram("t_h", "a histogram.", []int64{5})
	a.Add(3)
	b.Add(4)
	h.Observe(5)
	h.Observe(6)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP t_family_total a labeled family.\n# TYPE t_family_total counter\n",
		`t_family_total{kind="x"} 3`,
		`t_family_total{kind="y"} 4`,
		`t_h_bucket{le="5"} 1`,
		`t_h_bucket{le="+Inf"} 2`,
		"t_h_sum 11",
		"t_h_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "# HELP t_family_total"); n != 1 {
		t.Errorf("HELP emitted %d times for the family, want 1", n)
	}

	snap := r.Snapshot()
	if snap[`t_family_total{kind="x"}`] != 3 ||
		snap["t_h_sum"] != 11 || snap["t_h_count"] != 2 {
		t.Errorf("snapshot mismatch: %v", snap)
	}
}

// TestDuplicateRegistrationPanics pins the const-registration
// contract: a second registration of the same series is a programming
// error, caught loudly.
func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("t_dup_total", "first.")
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r.Counter("t_dup_total", "second.")
}

// TestGaugeFamily checks the instance-gauge writer used by the
// /metrics handler for per-server values.
func TestGaugeFamily(t *testing.T) {
	var sb strings.Builder
	err := GaugeFamily(&sb, "t_depth", "queue depth.",
		Sample{Labels: []Label{{Key: "tenant", Value: "a"}}, Value: 2},
		Sample{Value: 5},
	)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE t_depth gauge\n",
		`t_depth{tenant="a"} 2`,
		"\nt_depth 5\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("gauge family missing %q in:\n%s", want, out)
		}
	}
}

// BenchmarkCounterAdd reports the sharded increment cost; CI's
// allocs/step gate rides on the interp benchmarks, but the b.N loop
// here keeps the single-add cost visible.
func BenchmarkCounterAdd(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("b_counter_total", "bench counter.")
	cell := c.Cell(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cell.Add(1)
	}
}
