package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"dvc/internal/obs"
)

// These tests enforce the fleet determinism contract end to end: running
// an experiment with any Options.Parallel value must produce bytes
// identical to the serial loop — tables, shape checks, the JSONL event
// trace, and the counter registry. The mechanism under test is the pair
// of structural properties internal/fleet and forEachTrial guarantee:
// kernels never cross goroutines, and results (and child traces) merge
// in trial-index order on the caller's goroutine.

// e2Run is every byte a traced E2 run externalizes: the printed tables,
// the shape checks, the serialized JSONL trace, the registry and series
// snapshots, and the number of records traced.
type e2Run struct {
	tables   []byte
	checks   []Check
	trace    []byte
	registry string
	series   []byte
	records  int
}

// e2Parallel runs a scaled-down (Trials: 2) memory-traced E2 at the given
// pool size.
func e2Parallel(seed int64, parallel int) (e2Run, error) {
	tr := obs.NewTracer()
	var tbl bytes.Buffer
	res, err := Run("E2", Options{Seed: seed, Trials: 2, Parallel: parallel, Out: &tbl, Tracer: tr})
	if err != nil {
		return e2Run{}, err
	}
	var trace, series bytes.Buffer
	if err := tr.WriteJSONL(&trace); err != nil {
		return e2Run{}, err
	}
	if err := tr.Series().WriteJSONL(&series); err != nil {
		return e2Run{}, err
	}
	return e2Run{tbl.Bytes(), res.Checks, trace.Bytes(), tr.Registry().Table().String(), series.Bytes(), tr.Len()}, nil
}

// e2SerialRef is the serial memory-traced run the parallel and streaming
// equivalence tests compare against.
var e2SerialRef memo[e2Run]

func refE2Serial(t *testing.T) e2Run {
	t.Helper()
	return e2SerialRef.get(t, func() (e2Run, error) { return e2Parallel(replaySeed, 1) })
}

// TestParallelMatchesSerial: same seed, Parallel=1 (inline, no
// goroutines) vs Parallel=4 (worker pool) — every external byte must
// match.
func TestParallelMatchesSerial(t *testing.T) {
	serial := refE2Serial(t)
	par, err := e2Parallel(replaySeed, 4)
	if err != nil {
		t.Fatal(err)
	}
	tabS, checksS, traceS, regS := serial.tables, serial.checks, serial.trace, serial.registry
	tabP, checksP, traceP, regP := par.tables, par.checks, par.trace, par.registry

	if !bytes.Equal(tabS, tabP) {
		t.Errorf("experiment tables differ between serial and parallel runs:\n--- serial ---\n%s\n--- parallel ---\n%s", tabS, tabP)
	}
	if len(checksS) != len(checksP) {
		t.Fatalf("check counts differ: serial %d, parallel %d", len(checksS), len(checksP))
	}
	for i := range checksS {
		if checksS[i] != checksP[i] {
			t.Errorf("check %d differs:\n  serial:   %+v\n  parallel: %+v", i, checksS[i], checksP[i])
		}
	}
	if !bytes.Equal(traceS, traceP) {
		// Find the first diverging line for a useful failure message.
		ls, lp := bytes.Split(traceS, []byte("\n")), bytes.Split(traceP, []byte("\n"))
		for i := 0; i < len(ls) && i < len(lp); i++ {
			if !bytes.Equal(ls[i], lp[i]) {
				t.Fatalf("JSONL trace diverges at line %d:\n  serial:   %s\n  parallel: %s", i+1, ls[i], lp[i])
			}
		}
		t.Fatalf("JSONL traces differ in length: serial %d lines, parallel %d lines", len(ls), len(lp))
	}
	if regS != regP {
		t.Errorf("registry snapshots differ:\n--- serial ---\n%s\n--- parallel ---\n%s", regS, regP)
	}
}

// BenchmarkParallelSpeedup measures E2 at trials=8 with a serial pool
// (Parallel=1) against one worker per core, and reports the wall-clock
// speedup. On a single-core runner the speedup is ~1.0 by construction;
// the acceptance target (≥2× on a 4-core runner) is checked by reading
// the reported metric from the CI artifact, not asserted here.
//
// With DVC_BENCH_JSON=<path> the result is also written as a small JSON
// document (the BENCH_fleet.json CI artifact).
//
// Run it alone (it is deliberately heavy):
//
//	go test -run '^$' -bench BenchmarkParallelSpeedup -benchtime 1x ./internal/experiments
func BenchmarkParallelSpeedup(b *testing.B) {
	const seed, trials = 20070917, 8
	workers := runtime.NumCPU()
	run := func(parallel int) time.Duration {
		start := time.Now()
		if _, err := Run("E2", Options{Seed: seed, Trials: trials, Parallel: parallel}); err != nil {
			b.Fatal(err)
		}
		return time.Since(start)
	}

	var serial, parallel time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serial += run(1)
		parallel += run(workers)
	}
	b.StopTimer()

	speedup := float64(serial) / float64(parallel)
	b.ReportMetric(speedup, "speedup")
	b.ReportMetric(serial.Seconds()/float64(b.N), "serial-s/op")
	b.ReportMetric(parallel.Seconds()/float64(b.N), "parallel-s/op")

	if path := os.Getenv("DVC_BENCH_JSON"); path != "" {
		doc := struct {
			Benchmark string  `json:"benchmark"`
			Exp       string  `json:"exp"`
			Trials    int     `json:"trials"`
			Workers   int     `json:"workers"`
			CPUs      int     `json:"cpus"`
			SerialS   float64 `json:"serial_s"`
			ParallelS float64 `json:"parallel_s"`
			Speedup   float64 `json:"speedup"`
		}{"BenchmarkParallelSpeedup", "E2", trials, workers, runtime.NumCPU(),
			serial.Seconds() / float64(b.N), parallel.Seconds() / float64(b.N), speedup}
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			b.Fatal(err)
		}
		fmt.Printf("wrote %s (speedup %.2fx with %d workers)\n", path, speedup, workers)
	}
}
