// Command perfbench is the repository's benchmark. It runs one named
// workload of the simulator for a fixed host-time budget and prints
// every metric, with its unit and better direction, then one JSON line:
//
//	go run . --workload rm_faults --seed 1 --seconds 20 --trace 0
//
// Each workload is a closed batch — a fixed, seeded set of scenarios
// run to completion — repeated until the budget is spent; timings are
// medians over the batches. With --trace 0 it reports the end-to-end
// metrics; with --trace 1 it spends half the budget untraced and half
// traced (obs tracer attached, CPU profile on, phase spans kept) and
// reports the per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics a --trace 0 run prints.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},
	{"events_per_s", "1/s", "higher"},
	{"setup_s", "s", "lower"},
	{"allocs_per_event", "count", "lower"},
	{"peak_live_mb", "MiB", "lower"},
}

// countDefs are the per-layer counts, per batch.
var countDefs = []metricDef{
	{"sim.events", "count", "lower"},
	{"netsim.sent", "count", "lower"},
	{"netsim.delivered", "count", "lower"},
	{"netsim.dropped_down", "count", "lower"},
	{"netsim.mb", "MiB", "lower"},
	{"tcp.retransmits", "count", "lower"},
	{"tcp.resets", "count", "lower"},
	{"vm.saves", "count", "lower"},
	{"vm.restores", "count", "lower"},
	{"lsc.attempts", "count", "lower"},
	{"lsc.commits", "count", "higher"},
	{"lsc.aborts", "count", "lower"},
	{"lsc.commit_ratio", "ratio", "higher"},
	{"store.sent_mb", "MiB", "lower"},
	{"store.logical_mb", "MiB", "lower"},
	{"store.unique_mb", "MiB", "lower"},
	{"store.dedup_ratio", "ratio", "higher"},
	{"store.gc_chunks", "count", "lower"},
	{"rm.completed", "count", "higher"},
	{"rm.requeues", "count", "lower"},
	{"phys.crashes", "count", "lower"},
	{"partition.barriers", "count", "lower"},
	{"partition.gate_waits", "count", "lower"},
	{"partition.waits_per_barrier", "ratio", "lower"},
	{"partition.forwarded", "count", "lower"},
	{"obs.records", "count", "lower"},
	{"obs.tracing_overhead_s", "s", "lower"},
}

// simDefs are the simulated outcomes: deterministic for a seed, so only
// a model change moves them. 0 where a workload does not produce one.
var simDefs = []metricDef{
	{"ops_failed_frac", "ratio", "lower"},
	{"save_skew_ms_max", "ms", "lower"},
	{"ckpt_downtime_s_p50", "s", "lower"},
	{"ckpt_downtime_n", "count", "higher"},
	{"ckpt_mb_per_epoch", "MiB", "lower"},
	{"job_makespan_s", "s", "lower"},
	{"wasted_node_s", "s", "lower"},
}

// phaseFields are the metrics each phase span reports.
var phaseFields = []metricDef{
	{"wall_s", "s", "lower"},      // median span duration
	{"wall_s_tail", "s", "lower"}, // the percentile rule's tail
	{"wall_s_tail_pct", "%", "higher"},
	{"n", "count", "higher"},
	{"events", "count", "lower"}, // median events per span
	{"allocs_per_event", "count", "lower"},
	{"sim_s", "s", "higher"}, // median simulated seconds per span
}

// perLayer lists every metric a --trace 1 run prints.
func perLayer() []metricDef {
	var out []metricDef
	for _, p := range phases {
		for _, f := range phaseFields {
			out = append(out, metricDef{"phase." + p + "." + f.Name, f.Unit, f.Better})
		}
	}
	out = append(out, metricDef{"harness.self_s", "s", "lower"})
	for _, b := range cpuBuckets {
		out = append(out, metricDef{"cpu." + b, "share", "lower"})
	}
	out = append(out, metricDef{"cpu.samples", "count", "higher"})
	for _, b := range cpuBuckets {
		out = append(out, metricDef{"alloc." + b, "share", "lower"})
	}
	out = append(out, metricDef{"alloc.samples", "count", "higher"})
	out = append(out, countDefs...)
	return append(out, simDefs...)
}

// Metric is one printed value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the JSON object printed as the last line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// batchStat is one batch's measured outcome.
type batchStat struct {
	wallS, setupS     float64
	events, allocs    uint64
	peakLive          uint64
	attempted, failed int
	digest            uint64
	counts            map[string]float64
	out               simOut
}

// runBatches repeats the workload's closed batch until budget has passed,
// at least once.
func runBatches(fn func(*batch, int64, sizes), seed int64, sz sizes, rec *recorder, traced bool, budget time.Duration) []batchStat {
	var stats []batchStat
	start := time.Now()
	for len(stats) == 0 || time.Since(start) < budget {
		rec.setupS, rec.timedS, rec.events, rec.allocs, rec.attempt, rec.failed = 0, 0, 0, 0, 0, 0
		b := newBatch(rec, traced)
		fn(b, seed, sz)
		stats = append(stats, batchStat{
			wallS: rec.timedS, setupS: rec.setupS, events: rec.events, allocs: rec.allocs,
			peakLive: b.peakLive, attempted: rec.attempt, failed: rec.failed,
			digest: b.digest.Sum64(), counts: b.counts, out: b.out,
		})
	}
	return stats
}

// Set-up alone takes well under a millisecond on some workloads, so
// setup_s times groups of back-to-back set-ups lasting at least
// setupGroup each, divides by the group's count, and reports the median
// of setupGroups groups (after one unmeasured warm-up set-up).
const (
	setupGroups = 9
	setupGroup  = 50 * time.Millisecond
)

// measureSetup returns the median host seconds of one set-up.
func measureSetup(fn func(*recorder, int64, sizes), seed int64, sz sizes) float64 {
	fn(newRecorder(false), seed, sz)
	var vals []float64
	for g := 0; g < setupGroups; g++ {
		var sum float64
		n := 0
		for start := time.Now(); n == 0 || time.Since(start) < setupGroup; n++ {
			rec := newRecorder(false)
			fn(rec, seed, sz)
			sum += rec.setupS
		}
		vals = append(vals, sum/float64(n))
	}
	return medianOf(vals)
}

// checkDigests counts every batch whose digest differs from the first
// batch's as failed in full: runs of one seed must simulate identically.
func checkDigests(stats []batchStat) (attempted, failed int) {
	for _, s := range stats {
		attempted += s.attempted
		if s.digest != stats[0].digest {
			failed += s.attempted
		} else {
			failed += s.failed
		}
	}
	return attempted, failed
}

// endToEndMetrics derives the --trace 0 metrics from untraced batches.
func endToEndMetrics(stats []batchStat) map[string]float64 {
	var walls, rates []float64
	var events, allocs, peak uint64
	for _, s := range stats {
		walls = append(walls, s.wallS)
		if s.wallS > 0 {
			rates = append(rates, float64(s.events)/s.wallS)
		}
		events += s.events
		allocs += s.allocs
		peak = max(peak, s.peakLive)
	}
	m := map[string]float64{
		"wall_s":       medianOf(walls),
		"events_per_s": medianOf(rates),
		"peak_live_mb": float64(peak) / (1 << 20),
	}
	if events > 0 {
		m["allocs_per_event"] = float64(allocs) / float64(events)
	}
	return m
}

// profiles are a traced run's attribution inputs: CPU shares of the traced
// batches and allocation shares of the whole run, with sample counts.
type profiles struct {
	cpu, alloc               map[string]float64
	cpuSamples, allocSamples int
}

// perLayerMetrics derives the --trace 1 metrics: phases from the traced
// recorder's spans, CPU and allocation shares from the profiles, counts
// per traced batch, and the tracing overhead against the untraced ones.
func perLayerMetrics(untraced, traced []batchStat, spans []Span, prof profiles) map[string]float64 {
	m := map[string]float64{}
	for _, p := range phases {
		var walls, events, sims []float64
		var evSum, allocSum uint64
		for i := range spans {
			if spans[i].Name != p {
				continue
			}
			walls = append(walls, spans[i].Wall())
			events = append(events, float64(spans[i].Events))
			sims = append(sims, spans[i].SimS)
			evSum += spans[i].Events
			allocSum += spans[i].Allocs
		}
		s := summarize(walls)
		pre := "phase." + p + "."
		m[pre+"wall_s"] = s.Median
		m[pre+"wall_s_tail"] = s.Tail
		m[pre+"wall_s_tail_pct"] = s.TailPct
		m[pre+"n"] = float64(s.N)
		m[pre+"events"] = medianOf(events)
		m[pre+"sim_s"] = medianOf(sims)
		if evSum > 0 {
			m[pre+"allocs_per_event"] = float64(allocSum) / float64(evSum)
		}
	}
	m["harness.self_s"] = medianOf(selfSeconds(spans))
	for _, b := range cpuBuckets {
		m["cpu."+b] = prof.cpu[b]
		m["alloc."+b] = prof.alloc[b]
	}
	m["cpu.samples"] = float64(prof.cpuSamples)
	m["alloc.samples"] = float64(prof.allocSamples)

	n := float64(len(traced))
	for _, s := range traced {
		for k, v := range s.counts {
			m[k] += v / n
		}
	}
	if m["lsc.attempts"] > 0 {
		m["lsc.commit_ratio"] = m["lsc.commits"] / m["lsc.attempts"]
	}
	if m["store.sent_mb"] > 0 {
		m["store.dedup_ratio"] = m["store.logical_mb"] / m["store.sent_mb"]
	}
	if m["partition.barriers"] > 0 {
		m["partition.waits_per_barrier"] = m["partition.gate_waits"] / m["partition.barriers"]
	}
	var uw, tw []float64
	for _, s := range untraced {
		uw = append(uw, s.wallS)
	}
	for _, s := range traced {
		tw = append(tw, s.wallS)
	}
	m["obs.tracing_overhead_s"] = medianOf(tw) - medianOf(uw)
	for k, v := range simMetrics(traced[0].out) {
		m[k] = v
	}
	return m
}

// simMetrics maps a batch's simulated outcome to metric names.
func simMetrics(o simOut) map[string]float64 {
	m := map[string]float64{
		"save_skew_ms_max":    o.skewMax * 1e3,
		"ckpt_downtime_s_p50": o.downtimeP50,
		"ckpt_downtime_n":     float64(o.downtimeN),
		"job_makespan_s":      o.makespan,
		"wasted_node_s":       o.wasted,
	}
	if o.epochs > 0 {
		m["ckpt_mb_per_epoch"] = o.epochMB / float64(o.epochs)
	}
	return m
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
	sz       sizes
}

// run measures one workload and returns its result. Progress and the
// human-readable metric lines go to w.
func run(c config, w io.Writer) (*Result, error) {
	fn, ok := workloads[c.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", c.workload, workloadNames)
	}
	budget := time.Duration(c.seconds) * time.Second
	var defs []metricDef
	var vals map[string]float64
	var attempted, failed int
	if !c.trace {
		setupS := measureSetup(setups[c.workload], c.seed, c.sz)
		stats := runBatches(fn, c.seed, c.sz, newRecorder(false), false, budget)
		attempted, failed = checkDigests(stats)
		vals = endToEndMetrics(stats)
		vals["setup_s"] = setupS
		defs = endToEnd
		printBatches(w, "untraced", stats)
		for k, v := range simMetrics(stats[0].out) {
			fmt.Fprintf(w, "sim %s = %.6g\n", k, v)
		}
	} else {
		if err := os.MkdirAll(c.out, 0o755); err != nil {
			return nil, fmt.Errorf("create output directory: %w", err)
		}
		untraced := runBatches(fn, c.seed, c.sz, newRecorder(false), false, budget/2)
		rec := newRecorder(true)
		profPath := filepath.Join(c.out, fmt.Sprintf("cpu-%s-%d.pprof", c.workload, c.seed))
		traced, err := profiled(profPath, func() []batchStat {
			return runBatches(fn, c.seed, c.sz, rec, true, budget/2)
		})
		if err != nil {
			return nil, err
		}
		var prof profiles
		if prof.cpu, prof.cpuSamples, err = readShares(profPath, "cpu"); err != nil {
			return nil, err
		}
		// The allocs profile counts since the process started: untraced and
		// traced batches run the same scenarios, so its shares are the
		// workload's.
		allocPath := filepath.Join(c.out, fmt.Sprintf("allocs-%s-%d.pprof", c.workload, c.seed))
		if err := writeAllocs(allocPath); err != nil {
			return nil, err
		}
		if prof.alloc, prof.allocSamples, err = readShares(allocPath, "alloc_objects"); err != nil {
			return nil, err
		}
		if err := writeSpans(filepath.Join(c.out, fmt.Sprintf("spans-%s-%d.jsonl", c.workload, c.seed)), rec); err != nil {
			return nil, err
		}
		// The tracer only observes: traced batches must simulate exactly
		// as untraced ones do.
		attempted, failed = checkDigests(append(append([]batchStat(nil), untraced...), traced...))
		vals = perLayerMetrics(untraced, traced, rec.spans, prof)
		if attempted > 0 {
			vals["ops_failed_frac"] = float64(failed) / float64(attempted)
		}
		defs = perLayer()
		printBatches(w, "untraced", untraced)
		printBatches(w, "traced", traced)
	}
	res := &Result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]Metric{}}
	for _, d := range defs {
		v := vals[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.Name] = Metric{Value: v, Unit: d.Unit}
		fmt.Fprintf(w, "metric %s = %.6g %s (%s is better)\n", d.Name, v, d.Unit, d.Better)
	}
	return res, nil
}

// profiled runs fn under the CPU profiler, writing the profile to path.
func profiled(path string, fn func() []batchStat) ([]batchStat, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("create CPU profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("start CPU profile: %w", err)
	}
	stats := fn()
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return nil, fmt.Errorf("write CPU profile: %w", err)
	}
	return stats, nil
}

// writeAllocs writes the allocs profile, after a collection so that it
// includes every allocation made so far.
func writeAllocs(path string) error {
	runtime.GC()
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create allocs profile: %w", err)
	}
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return fmt.Errorf("write allocs profile: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write allocs profile: %w", err)
	}
	return nil
}

// readShares attributes a profile file's named value to layers.
func readShares(path, valueType string) (map[string]float64, int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("read profile: %w", err)
	}
	return profileShares(data, valueType)
}

// writeSpans writes the traced run's spans once the run has ended.
func writeSpans(path string, rec *recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create span file: %w", err)
	}
	if err := rec.writeSpans(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printBatches prints each batch's figures and the digest.
func printBatches(w io.Writer, label string, stats []batchStat) {
	for i, s := range stats {
		fmt.Fprintf(w, "%s batch %d: wall %.4fs setup %.4fs events %d allocs %d ops %d failed %d digest %016x\n",
			label, i, s.wallS, s.setupS, s.events, s.allocs, s.attempted, s.failed, s.digest)
	}
}

func main() {
	var c config
	var trace int
	flag.StringVar(&c.workload, "workload", "", "workload to run: rm_faults or pscale2600")
	flag.Int64Var(&c.seed, "seed", 1, "workload seed")
	flag.IntVar(&c.seconds, "seconds", 20, "host seconds to measure for")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&c.out, "out", filepath.Join(".bench_build", "out"), "directory for the CPU profile and spans of a traced run")
	flag.Parse()
	c.trace = trace == 1
	c.sz = defaultSizes
	if c.seconds < 1 || (trace != 0 && trace != 1) {
		fail(errors.New("--seconds must be >= 1 and --trace 0 or 1"))
	}
	res, err := run(c, os.Stdout)
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}
