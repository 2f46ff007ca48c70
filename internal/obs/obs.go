// Package obs is the repo's zero-dependency observability core: a metrics
// registry (counters, gauges, fixed-bucket latency histograms) rendered in
// the Prometheus text exposition format, plus lightweight span tracing with
// deterministic IDs, designed so instrumentation can sit inside the
// bit-reproducible evaluation pipeline without perturbing it.
//
// Two properties are load-bearing:
//
//   - Disabled instrumentation is free. Every metric and span method is a
//     nil-receiver no-op, so an uninstrumented hot path pays one nil check
//     and zero allocations (pinned by TestAllocCeilings, which measures the
//     op BenchmarkObsDisabledOverhead times).
//   - Nothing here reads the wall clock or the process-seeded random source
//     directly. Timestamps come from an injected Clock (SystemClock is the
//     one sanctioned time.Now call site, explicitly suppressed for the
//     detflow analyzer), and trace/span IDs come from a seeded splitmix64
//     sequence — never from time.Now identity — so traced replays of the
//     pinned API surface stay bit-identical.
//
// Rendering is deterministic: metric families are sorted by name and series
// appear in registration order; no map is ever ranged over on an output
// path.
package obs

import (
	"bufio"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Label is one metric label pair. Series of one family are distinguished by
// their label sets (e.g. per-backend fleet counters).
type Label struct {
	Key, Value string
}

// Registry holds registered metrics and renders them as Prometheus text
// exposition format. The zero Registry is not usable; build one with
// NewRegistry. All methods are safe for concurrent use, but registration is
// expected at construction time: series render in registration order.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family // duplicate/type checking only, never ranged
}

// family is every series sharing one metric name (one # HELP/# TYPE block).
type family struct {
	name, help, typ string
	series          []series
}

// series is one rendered time series: a scalar read through value, or a
// histogram.
type series struct {
	labels []Label
	value  func() int64 // counters and gauges
	hist   *Histogram   // histograms
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

func (r *Registry) register(name, help, typ string, s series) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ}
		r.byName[name] = f
		r.families = append(r.families, f)
	} else if f.typ != typ {
		panic("obs: metric " + name + " registered as both " + f.typ + " and " + typ)
	}
	f.series = append(f.series, s)
}

// Counter constructs a counter and registers it under name.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := &Counter{}
	r.RegisterCounter(name, help, c, labels...)
	return c
}

// RegisterCounter registers an externally-owned counter (e.g. one embedded
// in a fleet.Pool) so the registry and every other reader share one source.
func (r *Registry) RegisterCounter(name, help string, c *Counter, labels ...Label) {
	r.register(name, help, "counter", series{labels: labels, value: c.Value})
}

// Gauge constructs a gauge and registers it under name.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	g := &Gauge{}
	r.register(name, help, "gauge", series{labels: labels, value: g.Value})
	return g
}

// CounterFunc registers a counter series read through fn at render time —
// for exposing counters already owned elsewhere (cache stats, flight
// groups) without duplicating their bookkeeping.
func (r *Registry) CounterFunc(name, help string, fn func() int64, labels ...Label) {
	r.register(name, help, "counter", series{labels: labels, value: fn})
}

// GaugeFunc registers a gauge series read through fn at render time.
func (r *Registry) GaugeFunc(name, help string, fn func() int64, labels ...Label) {
	r.register(name, help, "gauge", series{labels: labels, value: fn})
}

// Histogram constructs a fixed-bucket histogram over the given upper bounds
// (ascending; an implicit +Inf bucket is appended) and registers it.
func (r *Registry) Histogram(name, help string, bounds []time.Duration, labels ...Label) *Histogram {
	h := NewHistogram(bounds)
	r.register(name, help, "histogram", series{labels: labels, hist: h})
	return h
}

// WriteText renders every registered metric in Prometheus text exposition
// format: families sorted by name, series in registration order.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, len(r.families))
	copy(fams, r.families)
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	bw := bufio.NewWriter(w)
	for _, f := range fams {
		bw.WriteString("# HELP " + f.name + " " + f.help + "\n")
		bw.WriteString("# TYPE " + f.name + " " + f.typ + "\n")
		for _, s := range f.series {
			if s.hist != nil {
				writeHistogram(bw, f.name, s.labels, s.hist)
				continue
			}
			bw.WriteString(f.name + labelString(s.labels) + " " + strconv.FormatInt(s.value(), 10) + "\n")
		}
	}
	return bw.Flush()
}

// writeHistogram renders one histogram series: cumulative buckets with an
// le label appended to the series labels, then _sum (seconds) and _count.
func writeHistogram(bw *bufio.Writer, name string, labels []Label, h *Histogram) {
	counts, sum, count := h.Snapshot()
	cum := int64(0)
	for i, bound := range h.bounds {
		cum += counts[i]
		le := append(append([]Label(nil), labels...), Label{"le", formatSeconds(bound)})
		bw.WriteString(name + "_bucket" + labelString(le) + " " + strconv.FormatInt(cum, 10) + "\n")
	}
	cum += counts[len(h.bounds)]
	le := append(append([]Label(nil), labels...), Label{"le", "+Inf"})
	bw.WriteString(name + "_bucket" + labelString(le) + " " + strconv.FormatInt(cum, 10) + "\n")
	bw.WriteString(name + "_sum" + labelString(labels) + " " + formatSeconds(sum) + "\n")
	bw.WriteString(name + "_count" + labelString(labels) + " " + strconv.FormatInt(count, 10) + "\n")
}

// labelString renders labels as {k="v",...} in slice order ("" when empty).
func labelString(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabel(v string) string { return labelEscaper.Replace(v) }

// formatSeconds renders a duration as a seconds value the way Prometheus
// clients do (shortest float representation).
func formatSeconds(d time.Duration) string {
	return strconv.FormatFloat(d.Seconds(), 'g', -1, 64)
}
