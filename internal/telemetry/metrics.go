// Package telemetry is the repo's observability layer: a
// const-registered metrics registry whose hot-path instruments are
// per-worker sharded cells merged only at scrape time, one event
// stream (Event, delivered to Observers) that carries a run's stage
// spans and one search heartbeat per committed rank, and two of its
// consumers: a span/trace recorder exportable as Chrome trace-event
// JSON, and a bounded flight recorder that attaches the recently
// committed ranks to failed runs as evidence.
//
// The package is deliberately passive. Instruments never allocate on
// the increment path (a counter add is a single uncontended atomic
// add into a cache-line-padded cell), never read the wall clock (the
// tracer takes an injected clock, falling back to a synthetic tick),
// and never feed values back into the code they observe — so search
// results are bit-identical with telemetry on or off, which the root
// package's determinism matrix pins.
package telemetry

import "sync/atomic"

// cellShards is the number of independent accumulation cells per
// sharded instrument. Workers index cells by worker id (mod
// cellShards), so at the worker counts the search actually runs
// (bounded by GOMAXPROCS in practice) increments are uncontended;
// shard collisions above that degrade to shared atomics, never to
// incorrect totals.
const cellShards = 16

// Label is one constant name=value pair attached to an instrument at
// registration. Labels are fixed per instrument — a labeled family is
// a set of const-registered instruments sharing a name — so the hot
// path never renders or hashes label strings.
type Label struct {
	Key   string
	Value string
}

// CounterCell is one cache-line-padded accumulation slot of a sharded
// counter. The padding keeps two workers' cells off the same cache
// line, so concurrent increments do not false-share.
type CounterCell struct {
	n atomic.Int64
	_ [56]byte
}

// Add adds n to the cell.
func (c *CounterCell) Add(n int64) { c.n.Add(n) }

// Inc adds one to the cell.
func (c *CounterCell) Inc() { c.n.Add(1) }

// Counter is a monotonically increasing sharded counter.
type Counter struct {
	d     desc
	cells [cellShards]CounterCell
}

// Cell returns the accumulation cell for worker i. Cells for distinct
// workers (below cellShards) never share a cache line; any worker id
// maps to a valid cell.
func (c *Counter) Cell(i int) *CounterCell {
	return &c.cells[uint(i)%cellShards]
}

// Add adds n via shard 0 — for call sites without a worker identity.
func (c *Counter) Add(n int64) { c.cells[0].Add(n) }

// Inc adds one via shard 0.
func (c *Counter) Inc() { c.cells[0].Add(1) }

// Value merges the shards. Scrape-side only; the merge reads every
// cell once and involves no locks, so it can race benignly with
// in-flight increments (a scrape observes some prefix of them).
func (c *Counter) Value() int64 {
	var v int64
	for i := range c.cells {
		v += c.cells[i].n.Load()
	}
	return v
}

// Gauge is a settable instantaneous value. Gauges are set from
// single-writer contexts (scrape handlers, admission paths), so they
// are a single atomic rather than a sharded merge.
type Gauge struct {
	d desc
	n atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.n.Store(v) }

// Add adds n.
func (g *Gauge) Add(n int64) { g.n.Add(n) }

// Value reads the gauge.
func (g *Gauge) Value() int64 { return g.n.Load() }

// HistogramCell is one worker's bucket row of a sharded histogram.
// The row (bounds+1 buckets, a sum and a count) is allocated once at
// registration; Observe is a bounds scan plus three atomic adds.
type HistogramCell struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	sum    atomic.Int64
	count  atomic.Int64
	_      [40]byte
}

// Observe records one value.
func (hc *HistogramCell) Observe(v int64) {
	i := 0
	for i < len(hc.bounds) && v > hc.bounds[i] {
		i++
	}
	hc.counts[i].Add(1)
	hc.sum.Add(v)
	hc.count.Add(1)
}

// Histogram is a fixed-boundary sharded histogram. Boundaries are
// upper-inclusive (Prometheus "le") and set at registration.
type Histogram struct {
	d      desc
	bounds []int64
	cells  [cellShards]HistogramCell
}

// Cell returns worker i's bucket row.
func (h *Histogram) Cell(i int) *HistogramCell {
	return &h.cells[uint(i)%cellShards]
}

// Observe records one value via shard 0.
func (h *Histogram) Observe(v int64) { h.cells[0].Observe(v) }

// snapshot merges the shards into cumulative Prometheus buckets.
func (h *Histogram) snapshot() (cum []int64, sum, count int64) {
	cum = make([]int64, len(h.bounds)+1)
	for i := range h.cells {
		for j := range h.cells[i].counts {
			cum[j] += h.cells[i].counts[j].Load()
		}
		sum += h.cells[i].sum.Load()
		count += h.cells[i].count.Load()
	}
	for j := 1; j < len(cum); j++ {
		cum[j] += cum[j-1]
	}
	return cum, sum, count
}
