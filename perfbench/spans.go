package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime/metrics"
	"sort"
	"time"

	"dvc/internal/sim"
)

// Phase names. Each is a span the harness records around its own call
// into a layer; nothing inside the simulator is instrumented.
const (
	phaseRMStep    = "rm_step"       // one RunFor step of the RM loop
	phasePartition = "partition_run" // one RunScalePartitioned call
)

// phases lists every phase in output order.
var phases = []string{phaseRMStep, phasePartition}

// allocSamples reads the cumulative heap allocation count. The two
// runtime/metrics counters together equal runtime.MemStats.Mallocs, but
// reading them does not stop the world.
var allocSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/tiny/allocs:objects"},
}

func mallocs() uint64 {
	metrics.Read(allocSamples)
	var n uint64
	for _, s := range allocSamples {
		if s.Value.Kind() == metrics.KindUint64 {
			n += s.Value.Uint64()
		}
	}
	return n
}

// Span is one recorded interval. Start and End are host offsets from the
// recorder's creation; Trace is shared by every span of one job mix or
// partitioned run; Parent is 0 for a root span.
type Span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Trace  int     `json:"trace"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Events uint64  `json:"events"`
	Allocs uint64  `json:"allocs"`
	SimS   float64 `json:"sim_s"`
}

// Wall is the span's host duration in seconds.
func (s *Span) Wall() float64 { return s.End - s.Start }

// recorder measures phases. It always accumulates the per-batch totals
// the end-to-end metrics need; it keeps individual spans only when keep
// is set (the traced run), so both runs execute the same harness code.
type recorder struct {
	keep  bool
	t0    time.Time
	spans []Span
	next  int
	trace int

	// Per-batch totals, reset by runBatches between batches.
	setupS  float64
	timedS  float64
	events  uint64
	allocs  uint64
	attempt int
	failed  int
}

func newRecorder(keep bool) *recorder { return &recorder{keep: keep, t0: time.Now()} }

// spanKind says which batch total a span's duration adds to.
type spanKind int

const (
	kindRoot  spanKind = iota // a job mix or partitioned run: adds to neither
	kindSetup                 // building the bed: setup_s
	kindTimed                 // a measured step: wall_s, events, allocs
)

// open is a span in flight.
type open struct {
	r      *recorder
	span   Span
	k      *sim.Kernel
	kind   spanKind
	ev0    uint64
	sim0   sim.Time
	alloc0 uint64
	start  time.Time
}

// newTrace starts a trace id: one job mix or partitioned run.
func (r *recorder) newTrace() int {
	r.trace++
	return r.trace
}

// begin opens a span. k, when non-nil, supplies the event and simulated
// time deltas.
func (r *recorder) begin(name string, kind spanKind, trace int, parent *open, k *sim.Kernel) *open {
	r.next++
	o := &open{r: r, k: k, kind: kind}
	o.span = Span{ID: r.next, Trace: trace, Name: name}
	if parent != nil {
		o.span.Parent = parent.span.ID
	}
	if k != nil {
		o.ev0, o.sim0 = k.Fired(), k.Now()
	}
	o.alloc0 = mallocs()
	o.start = time.Now()
	return o
}

// end closes the span, taking its event and simulated-time deltas from
// its kernel.
func (o *open) end() {
	var events uint64
	var simS float64
	if o.k != nil {
		events = o.k.Fired() - o.ev0
		simS = (o.k.Now() - o.sim0).Seconds()
	}
	o.endWith(events, simS)
}

// endWith closes the span with deltas the caller measured, for work whose
// kernels the harness cannot see (a partitioned run reports its own).
func (o *open) endWith(events uint64, simS float64) {
	now := time.Now()
	r := o.r
	s := &o.span
	s.Allocs = mallocs() - o.alloc0
	s.Events, s.SimS = events, simS
	s.Start = o.start.Sub(r.t0).Seconds()
	s.End = now.Sub(r.t0).Seconds()
	switch o.kind {
	case kindTimed:
		r.timedS += s.Wall()
		r.events += s.Events
		r.allocs += s.Allocs
	case kindSetup:
		r.setupS += s.Wall()
	}
	if r.keep {
		r.spans = append(r.spans, *s)
	}
}

// op counts one verified operation.
func (r *recorder) op(ok bool) {
	r.attempt++
	if !ok {
		r.failed++
	}
}

// writeSpans writes the kept spans as JSON lines.
func (r *recorder) writeSpans(w io.Writer) error {
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			return fmt.Errorf("perfbench: write spans: %w", err)
		}
	}
	return nil
}

// selfSeconds is each root span's duration minus the part of it its
// child spans cover: the harness's own time around the layers.
func selfSeconds(spans []Span) []float64 {
	children := map[int][][2]float64{}
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			children[p] = append(children[p], [2]float64{spans[i].Start, spans[i].End})
		}
	}
	var out []float64
	for i := range spans {
		s := &spans[i]
		if s.Parent != 0 {
			continue
		}
		out = append(out, s.Wall()-covered(children[s.ID], s.Start, s.End))
	}
	return out
}

// covered is the length of the union of intervals, clipped to [lo, hi].
func covered(iv [][2]float64, lo, hi float64) float64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, curLo, curHi := 0.0, math.Inf(-1), math.Inf(-1)
	for _, x := range iv {
		a, b := math.Max(x[0], lo), math.Min(x[1], hi)
		if b <= a {
			continue
		}
		if a > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// summary is a timing reported by the percentile rule: the median, plus
// the highest percentile that still has at least ten samples above it.
type summary struct {
	N       int
	Median  float64
	TailPct float64 // 0 when fewer than 11 samples leave no qualifying percentile
	Tail    float64 // equals Median when TailPct is 0
}

// tailPct is the highest whole percentile p whose nearest-rank sample
// (rank ceil(p*n/100)) leaves at least ten samples ranked above it.
func tailPct(n int) float64 {
	if n <= 10 {
		return 0
	}
	p := 100 * (n - 10) / n
	for p > 0 && n-int(math.Ceil(float64(p*n)/100)) < 10 {
		p--
	}
	return float64(p)
}

// summarize applies the percentile rule to vals.
func summarize(vals []float64) summary {
	s := summary{N: len(vals)}
	if len(vals) == 0 {
		return s
	}
	v := append([]float64(nil), vals...)
	sort.Float64s(v)
	s.Median = median(v)
	s.Tail = s.Median
	if p := tailPct(len(v)); p > 0 {
		s.TailPct = p
		s.Tail = v[int(math.Ceil(p*float64(len(v))/100))-1]
	}
	return s
}

// median of sorted values.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// medianOf sorts a copy of vals and returns its median.
func medianOf(vals []float64) float64 {
	v := append([]float64(nil), vals...)
	sort.Float64s(v)
	return median(v)
}
