package obs

import (
	"fmt"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// DefaultMaxCardinality is the per-family cap on distinct label sets. Label
// values often come from request fields (tenant IDs, model names), and an
// adversarial or misconfigured client must not be able to grow the registry
// without bound; series beyond the cap collapse into one shared overflow
// child per family and the drop is counted (DroppedLabels).
const DefaultMaxCardinality = 64

// overflowLabel is the label value of the shared per-family overflow child.
const overflowLabel = "_overflow"

// Registry collects named metrics for exposition. Metrics belong to
// families (one name, one type, one help string); a family either holds a
// single unlabeled metric or a set of labeled children. Registration and
// label resolution take the registry lock — do them once at setup and keep
// the returned pointer; reads for exposition walk the registry under the
// same lock.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	names    []string // registration order is irrelevant; exposition sorts
	maxCard  int      // per-family label-set cap; <= 0 means unlimited

	droppedLabels atomic.Int64
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// child is one series of a family: a concrete metric plus its label values.
type child struct {
	labels []string // label values, parallel to family.labelNames
	ctr    *Counter
	gauge  *Gauge
	gaugeF func() float64
	hist   *Histogram
}

type family struct {
	name       string
	help       string
	kind       metricKind
	labelNames []string
	children   map[string]*child // keyed by joined label values
	order      []string
}

var metricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
var labelNameRE = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)

// NewRegistry returns an empty registry with the default cardinality cap.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family), maxCard: DefaultMaxCardinality}
}

// SetMaxCardinality sets the per-family cap on distinct label sets
// (<= 0 disables the cap). Setup-time only; lowering the cap does not
// evict already-registered series.
func (r *Registry) SetMaxCardinality(n int) {
	r.mu.Lock()
	r.maxCard = n
	r.mu.Unlock()
}

// DroppedLabels reports how many label-set registrations were collapsed
// into per-family overflow children by the cardinality cap.
func (r *Registry) DroppedLabels() int64 { return r.droppedLabels.Load() }

// familyFor returns (creating if needed) the family, enforcing that a name
// is never reused with a different type, help, or label layout.
func (r *Registry) familyFor(name, help string, kind metricKind, labelNames []string) *family {
	if !metricNameRE.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, ln := range labelNames {
		if !labelNameRE.MatchString(ln) || ln == "le" {
			panic(fmt.Sprintf("obs: invalid label name %q in metric %q", ln, name))
		}
	}
	f, ok := r.families[name]
	if !ok {
		f = &family{
			name:       name,
			help:       help,
			kind:       kind,
			labelNames: append([]string(nil), labelNames...),
			children:   make(map[string]*child),
		}
		r.families[name] = f
		r.names = append(r.names, name)
		return f
	}
	if f.kind != kind || len(f.labelNames) != len(labelNames) {
		panic(fmt.Sprintf("obs: metric %q re-registered with a different type or label set", name))
	}
	for i, ln := range labelNames {
		if f.labelNames[i] != ln {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different label set", name))
		}
	}
	return f
}

func (f *family) childFor(r *Registry, values []string) *child {
	if len(values) != len(f.labelNames) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labelNames), len(values)))
	}
	key := strings.Join(values, "\x00")
	if c, ok := f.children[key]; ok {
		return c
	}
	if r.maxCard > 0 && len(f.labelNames) > 0 && len(f.children) >= r.maxCard {
		// Cap reached: collapse the new series into the family's shared
		// overflow child so the totals survive, and count the drop so the
		// collapse is visible (obs_dropped_labels_total).
		r.droppedLabels.Add(1)
		ov := make([]string, len(f.labelNames))
		for i := range ov {
			ov[i] = overflowLabel
		}
		key = strings.Join(ov, "\x00")
		if c, ok := f.children[key]; ok {
			return c
		}
		values = ov
	}
	c := &child{labels: append([]string(nil), values...)}
	f.children[key] = c
	f.order = append(f.order, key)
	return c
}

// Counter registers (or returns the existing) unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterWith(name, help, nil, nil)
}

// CounterWith registers a counter series with label values (nil for none).
func (r *Registry) CounterWith(name, help string, labelNames, labelValues []string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.familyFor(name, help, kindCounter, labelNames).childFor(r, labelValues)
	if c.ctr == nil {
		c.ctr = &Counter{}
	}
	return c.ctr
}

// Gauge registers (or returns the existing) unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.familyFor(name, help, kindGauge, nil).childFor(r, nil)
	if c.gauge == nil {
		c.gauge = &Gauge{}
	}
	return c.gauge
}

// Register adds an unlabeled series whose instrument — a *Counter or a
// *Gauge — its owner already keeps and bumps where its event happens, so
// exposition reads the owner's own count. Registering a second instrument
// under one series panics: a count has one source.
func (r *Registry) Register(name, help string, m instrument) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.familyFor(name, help, m.kind(), nil).childFor(r, nil)
	switch m := m.(type) {
	case *Counter:
		if c.ctr != nil && c.ctr != m {
			panic(fmt.Sprintf("obs: metric %q registered with a second counter", name))
		}
		c.ctr = m
	case *Gauge:
		if c.gauge != nil && c.gauge != m {
			panic(fmt.Sprintf("obs: metric %q registered with a second gauge", name))
		}
		c.gauge = m
	}
}

// instrument is a metric an owner keeps and Register adds: *Counter or
// *Gauge.
type instrument interface{ kind() metricKind }

func (*Counter) kind() metricKind { return kindCounter }
func (*Gauge) kind() metricKind   { return kindGauge }

// GaugeFunc registers a gauge whose value is read from fn at exposition
// time, for values read from state (pool sizes, index sizes, the runtime)
// rather than counted.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.GaugeFuncWith(name, help, nil, nil, fn)
}

// GaugeFuncWith is GaugeFunc with label values.
func (r *Registry) GaugeFuncWith(name, help string, labelNames, labelValues []string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.familyFor(name, help, kindGauge, labelNames).childFor(r, labelValues)
	c.gaugeF = fn
}

// CounterFunc registers a counter whose value is read from fn at
// exposition time, for monotone totals the runtime or this package keeps.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.familyFor(name, help, kindCounter, nil).childFor(r, nil).gaugeF = fn
}

// Histogram registers (or returns the existing) unlabeled histogram over
// the given bucket bounds (nil = DefBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return r.HistogramWith(name, help, bounds, nil, nil)
}

// HistogramWith registers a histogram series with label values.
func (r *Registry) HistogramWith(name, help string, bounds []float64, labelNames, labelValues []string) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.familyFor(name, help, kindHistogram, labelNames).childFor(r, labelValues)
	if c.hist == nil {
		c.hist = NewHistogram(bounds)
	}
	return c.hist
}

// sortedNames returns family names in lexical order for stable exposition.
func (r *Registry) sortedNames() []string {
	names := append([]string(nil), r.names...)
	sort.Strings(names)
	return names
}
