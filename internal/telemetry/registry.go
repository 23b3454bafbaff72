package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// kind discriminates instrument families in the exposition output.
type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// desc is one instrument's registration record.
type desc struct {
	name   string
	help   string
	labels []Label
	kind   kind
}

// series renders the instrument's sample name with its label set,
// e.g. `heisen_interp_crashes_total{kind="assert"}`.
func (d *desc) series() string { return d.name + renderLabels(d.labels, nil) }

// renderLabels formats a label set ({k="v",...}), appending extra
// pairs after the constant ones; it returns "" for an empty set.
func renderLabels(labels []Label, extra []Label) string {
	if len(labels)+len(extra) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range append(append([]Label(nil), labels...), extra...) {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// instrument is anything the registry can expose.
type instrument interface{ describe() *desc }

func (c *Counter) describe() *desc   { return &c.d }
func (g *Gauge) describe() *desc     { return &g.d }
func (h *Histogram) describe() *desc { return &h.d }

// Registry holds const-registered instruments. Registration happens
// at package init (the catalog) or test setup; scraping happens
// concurrently with increments, which is safe because instruments are
// atomics and the registry list is append-only under its lock.
type Registry struct {
	mu     sync.Mutex
	order  []instrument
	series map[string]bool
}

// NewRegistry returns an empty registry. Most code uses Default();
// separate registries exist for tests.
func NewRegistry() *Registry {
	return &Registry{series: map[string]bool{}}
}

var defaultRegistry = NewRegistry()

// Default is the process-wide registry every catalog instrument is
// registered in and the /metrics handler scrapes.
func Default() *Registry { return defaultRegistry }

// Counter registers and returns a counter. Registering the same
// name+labels series twice panics: instruments are package-level
// constants, so a duplicate is a programming error.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := &Counter{d: desc{name: name, help: help, labels: labels, kind: kindCounter}}
	r.register(c)
	return c
}

// Gauge registers and returns a gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	g := &Gauge{d: desc{name: name, help: help, labels: labels, kind: kindGauge}}
	r.register(g)
	return g
}

// Histogram registers and returns a histogram over the given
// upper-inclusive bucket boundaries (ascending; +Inf is implicit).
func (r *Registry) Histogram(name, help string, bounds []int64, labels ...Label) *Histogram {
	h := &Histogram{
		d:      desc{name: name, help: help, labels: labels, kind: kindHistogram},
		bounds: append([]int64(nil), bounds...),
	}
	for i := range h.cells {
		h.cells[i].bounds = h.bounds
		h.cells[i].counts = make([]atomic.Int64, len(h.bounds)+1)
	}
	r.register(h)
	return h
}

func (r *Registry) register(in instrument) {
	d := in.describe()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := d.series()
	if r.series[s] {
		panic(fmt.Sprintf("telemetry: duplicate registration of %s", s))
	}
	r.series[s] = true
	r.order = append(r.order, in)
}

// WritePrometheus renders every registered instrument in the
// Prometheus text exposition format (version 0.0.4): families sorted
// by name, HELP/TYPE emitted once per family, series in registration
// order within a family.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	list := append([]instrument(nil), r.order...)
	r.mu.Unlock()

	byFamily := map[string][]instrument{}
	var names []string
	for _, in := range list {
		n := in.describe().name
		if _, ok := byFamily[n]; !ok {
			names = append(names, n)
		}
		byFamily[n] = append(byFamily[n], in)
	}
	sort.Strings(names)
	for _, n := range names {
		fam := byFamily[n]
		d := fam[0].describe()
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", n, d.help, n, d.kind); err != nil {
			return err
		}
		for _, in := range fam {
			if err := writeInstrument(w, in); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeInstrument(w io.Writer, in instrument) error {
	d := in.describe()
	switch v := in.(type) {
	case *Counter:
		_, err := fmt.Fprintf(w, "%s %d\n", d.series(), v.Value())
		return err
	case *Gauge:
		_, err := fmt.Fprintf(w, "%s %d\n", d.series(), v.Value())
		return err
	case *Histogram:
		cum, sum, count := v.snapshot()
		for i, b := range v.bounds {
			le := Label{Key: "le", Value: fmt.Sprintf("%d", b)}
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", d.name, renderLabels(d.labels, []Label{le}), cum[i]); err != nil {
				return err
			}
		}
		inf := Label{Key: "le", Value: "+Inf"}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", d.name, renderLabels(d.labels, []Label{inf}), cum[len(cum)-1]); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %d\n%s_count%s %d\n",
			d.name, renderLabels(d.labels, nil), sum, d.name, renderLabels(d.labels, nil), count); err != nil {
			return err
		}
		return nil
	default:
		return fmt.Errorf("telemetry: unknown instrument %T", in)
	}
}

// Snapshot folds every series into a flat map — series name
// (with labels) to merged value — for embedding in JSON stats
// surfaces. Histograms contribute their _sum and _count series.
func (r *Registry) Snapshot() map[string]int64 {
	r.mu.Lock()
	list := append([]instrument(nil), r.order...)
	r.mu.Unlock()
	out := make(map[string]int64, len(list))
	for _, in := range list {
		d := in.describe()
		switch v := in.(type) {
		case *Counter:
			out[d.series()] = v.Value()
		case *Gauge:
			out[d.series()] = v.Value()
		case *Histogram:
			_, sum, count := v.snapshot()
			out[d.name+"_sum"+renderLabels(d.labels, nil)] = sum
			out[d.name+"_count"+renderLabels(d.labels, nil)] = count
		}
	}
	return out
}

// Sample is one labeled value of an instance-local gauge family (see
// GaugeFamily).
type Sample struct {
	Labels []Label
	Value  int64
}

// GaugeFamily writes one gauge family that lives outside the registry
// — per-instance values (a server's queue depths, its store size)
// that the scrape handler reads from the owning object at scrape
// time, where multiple instances per process would make registry
// registration collide.
func GaugeFamily(w io.Writer, name, help string, samples ...Sample) error {
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name); err != nil {
		return err
	}
	for _, s := range samples {
		if _, err := fmt.Fprintf(w, "%s%s %d\n", name, renderLabels(s.Labels, nil), s.Value); err != nil {
			return err
		}
	}
	return nil
}
