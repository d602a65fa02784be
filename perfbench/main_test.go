package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	b := loadBenchmark(t)
	if len(b.EndToEnd) < 1 || len(b.EndToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", len(b.EndToEnd))
	}
	if len(b.PerLayer) < 1 || len(b.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", len(b.PerLayer))
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", b.RunSeconds)
	}
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(b.Workloads), len(workloadNames))
	}
	seen := map[string]bool{}
	check := func(name, unit, better string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q breaks the charset [A-Za-z0-9_.-] or length rule", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("unit %q of %s breaks the unit rule", unit, name)
		}
		if better != "" && better != "lower" && better != "higher" {
			t.Errorf("better %q of %s", better, name)
		}
	}
	for i, w := range b.Workloads {
		check(w.Name, "", "")
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, w.Name, workloadNames[i])
		}
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q has no batch function", w.Name)
		}
		if _, ok := setups[w.Name]; !ok {
			t.Errorf("workload %q has no set-up function", w.Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %q: why has %d characters", w.Name, len(w.Why))
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the harness %d", len(b.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range b.EndToEnd {
		check(m.Name, m.Unit, m.Better)
		if m.metricDef != endToEnd[i] {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, harness %+v", i, m.metricDef, endToEnd[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("bound %v of %s outside (0, 0.25]", m.Bound, m.Name)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	pl := perLayer()
	if len(b.PerLayer) != len(pl) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the harness %d", len(b.PerLayer), len(pl))
	}
	for i, m := range b.PerLayer {
		check(m.Name, m.Unit, m.Better)
		if m != pl[i] {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, harness %+v", i, m, pl[i])
		}
	}
}

func TestTailPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{0, 0}, {1, 0}, {10, 0}, {11, 9}, {20, 50}, {21, 52}, {100, 90}, {1000, 99}, {5000, 99}} {
		if got := tailPct(tc.n); got != tc.want {
			t.Errorf("tailPct(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	// The rule itself: at least ten samples above the chosen percentile's
	// rank, and fewer than ten above the next whole percentile's.
	for n := 11; n <= 3000; n++ {
		p := tailPct(n)
		above := func(p float64) int { return n - int(math.Ceil(p*float64(n)/100)) }
		if above(p) < 10 {
			t.Fatalf("n=%d: p%v leaves %d samples above", n, p, above(p))
		}
		if p < 99 && above(p+1) >= 10 {
			t.Fatalf("n=%d: p%v is not the highest qualifying percentile", n, p)
		}
	}

	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	s := summarize(vals)
	if s.N != 100 || s.Median != 50.5 || s.TailPct != 90 || s.Tail != 90 {
		t.Errorf("summarize(1..100) = %+v, want n=100 median=50.5 p90=90", s)
	}
	s = summarize([]float64{3, 1, 2})
	if s.N != 3 || s.Median != 2 || s.TailPct != 0 || s.Tail != 2 {
		t.Errorf("summarize(3 samples) = %+v, want median 2 and no tail", s)
	}
}

func TestFailureCounting(t *testing.T) {
	stats := []batchStat{
		{attempted: 6, failed: 0, digest: 7},
		{attempted: 6, failed: 1, digest: 7},
		{attempted: 6, failed: 0, digest: 8}, // diverged: every op counts as failed
	}
	a, f := checkDigests(stats)
	if a != 18 || f != 7 {
		t.Errorf("checkDigests = %d attempted, %d failed; want 18, 7", a, f)
	}
	rec := newRecorder(false)
	rec.op(true)
	rec.op(false)
	rec.op(true)
	if rec.attempt != 3 || rec.failed != 1 {
		t.Errorf("recorder counted %d/%d, want 3 attempted 1 failed", rec.attempt, rec.failed)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "trial", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "boot", Start: 1, End: 3},
		{ID: 3, Parent: 1, Name: "traffic", Start: 2, End: 5}, // overlaps boot
		{ID: 4, Parent: 1, Name: "drain", Start: 9, End: 12},  // clipped at the parent's end
	}
	got := selfSeconds(spans)
	if len(got) != 1 || math.Abs(got[0]-5) > 1e-12 {
		t.Errorf("selfSeconds = %v, want [5]", got)
	}
}

// TestSmoke runs every workload at tiny size, untraced and traced, and
// checks the result against BENCHMARK.json and the layer invariants.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := loadBenchmark(t)
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			c := config{workload: w, seed: 3, seconds: 1, trace: traced, out: t.TempDir(), sz: tinySizes}
			res, err := run(c, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, traced, res.Correct, res.Attempted, res.Failed)
			}
			var want []string
			if traced {
				for _, m := range b.PerLayer {
					want = append(want, m.Name)
				}
			} else {
				for _, m := range b.EndToEnd {
					want = append(want, m.Name)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: printed %d metrics, BENCHMARK.json lists %d", w, traced, len(res.Metrics), len(want))
			}
			for _, name := range want {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("%s trace=%v: metric %s not printed", w, traced, name)
				}
			}
			if !traced {
				for _, name := range want {
					if res.Metrics[name].Value <= 0 {
						t.Errorf("%s: end-to-end %s = %v, want > 0", w, name, res.Metrics[name].Value)
					}
				}
				continue
			}
			for _, kind := range []string{"cpu", "alloc"} {
				sum := 0.0
				for _, bkt := range cpuBuckets {
					sum += res.Metrics[kind+"."+bkt].Value
				}
				if res.Metrics[kind+".samples"].Value > 0 && math.Abs(sum-1) > 1e-9 {
					t.Errorf("%s: %s shares sum to %v", w, kind, sum)
				}
			}
			gw := res.Metrics["partition.gate_waits"].Value
			if (w == "pscale2600") != (gw > 0) {
				t.Errorf("%s: partition.gate_waits = %v", w, gw)
			}
		}
	}
}
