// Command dvcsim regenerates the paper's tables and figures.
//
// Usage:
//
//	dvcsim -list
//	dvcsim -exp E1 [-seed 42] [-trials 20]
//	dvcsim -exp all [-full] [-parallel 8]
//	dvcsim -exp E2 -trials 1 -trace e2.jsonl -perfetto e2.json
//	dvcsim -exp E2 -report out/           # self-contained run artifact
//	dvcsim -exp E2 -trace e2.jsonl -sample-every 10 -filter-type lsc,vm
//	dvcsim -exp E2 -flight 2000           # ring buffer dumped on failure
//
// Each experiment prints its table(s) followed by PASS/FAIL shape checks
// against the paper's reported results. The exit status is non-zero if
// any check fails.
//
// Independent trials fan out across a worker pool (-parallel; default one
// worker per core). Every table, check and trace byte is identical for
// any -parallel value — only wall-clock time changes. -partitions N
// selects the partitioned simulation engine (one sub-kernel per
// topology zone under conservative-lookahead sync, N bounding how many
// run concurrently); output is likewise identical for any value,
// including 0 (the serial kernel). -cpuprofile and -memprofile write
// pprof profiles of the run.
//
// With -trace a deterministic event trace of the run is streamed as
// JSONL through a fixed-size buffer (same seed, same flags =>
// byte-identical output), so tracer memory stays bounded no matter how
// long the run is; convert offline with dvctrace -convert to view in
// ui.perfetto.dev. -perfetto exports Chrome trace_events in-process
// (this buffers the records in memory). Tracing also prints (or, with
// -json, embeds) the counter-registry snapshot.
//
// -report dir/ writes a self-contained run artifact: config.json (the
// run's flags), results.json (tables + checks), registry.json,
// trace.jsonl, summary.json (per-type counts, span percentiles) and
// series.jsonl (windowed registry metrics sampled on virtual time).
//
// -flight N retains the last N trace records in a ring buffer and dumps
// them as JSONL when a shape check fails or the run panics — bounded
// observability for runs too big to trace in full.
//
// -filter-type/-filter-node/-filter-dom/-sample-every narrow the
// recorded stream deterministically (sampling is keyed on record
// sequence numbers; span begin/end records always pass). The filter
// applies to every sink, so filtered runs trade replay byte-identity
// with unfiltered runs for volume.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"dvc"
	"dvc/internal/obs"
)

// main delegates to run so deferred profile writers execute before the
// process exits with run's status code.
func main() { os.Exit(run()) }

func run() int {
	var (
		exp      = flag.String("exp", "all", "experiment id (see -list) or \"all\"")
		seed     = flag.Int64("seed", 42, "simulation seed")
		trials   = flag.Int("trials", 0, "trial count for statistical experiments (0 = default)")
		full     = flag.Bool("full", false, "paper-scale parameters (slow: E2 runs >2000 trials)")
		parallel = flag.Int("parallel", 0, "worker pool size for independent trials (0 = one per core, 1 = serial); output is identical for any value")
		parts    = flag.Int("partitions", 0, "partitioned simulation engine: bound on concurrent partition sub-kernels (0 = serial kernel); output is identical for any value")
		list     = flag.Bool("list", false, "list experiments and exit")
		jsonOut  = flag.Bool("json", false, "emit results as JSON instead of tables")
		traceOut = flag.String("trace", "", "stream a deterministic JSONL event trace to this file")
		perfOut  = flag.String("perfetto", "", "write a Chrome/Perfetto trace_events JSON to this file (buffers records in memory)")
		report   = flag.String("report", "", "write a self-contained run artifact into this directory")
		flightN  = flag.Int("flight", 0, "retain the last N trace records; dumped on failed check or panic")
		flightTo = flag.String("flight-out", "dvcsim-flight.jsonl", "flight-recorder dump path")
		fTypes   = flag.String("filter-type", "", "record only these comma-separated event types/categories")
		fNodes   = flag.String("filter-node", "", "record only these comma-separated nodes")
		fDoms    = flag.String("filter-dom", "", "record only these comma-separated domains")
		sampleN  = flag.Uint64("sample-every", 0, "record every Nth instant/counter record (seq%N==0); spans always pass")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file at exit")
		dcs      = flag.Int("dc", 0, "scale mode: generate this many datacenters (enables -cluster/-host/-vm)")
		clusters = flag.Int("cluster", 10, "scale mode: clusters per datacenter")
		hosts    = flag.Int("host", 26, "scale mode: hosts per cluster")
		vms      = flag.Int("vm", 8, "scale mode: virtual-cluster width of the reference job")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "dvcsim:", err)
				return
			}
			runtime.GC() // up-to-date allocation statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "dvcsim:", err)
			}
			f.Close()
		}()
	}

	if *list {
		dvc.WriteBanner(os.Stdout)
		for _, id := range dvc.ExperimentIDs() {
			fmt.Printf("  %-4s %s\n", id, dvc.ExperimentTitle(id))
		}
		return 0
	}

	opts := dvc.ExperimentOptions{Seed: *seed, Trials: *trials, Full: *full, Parallel: *parallel, Partitions: *parts, Out: os.Stdout}
	if *jsonOut {
		opts.Out = nil // tables land in the JSON document instead
	} else {
		dvc.WriteBanner(os.Stdout)
		fmt.Println()
	}

	// Assemble the trace pipeline: every requested consumer becomes one
	// sink on a shared tee, so the run records once and each sink sees the
	// identical stream.
	var (
		tracer  *dvc.Tracer
		mem     *obs.MemorySink  // only when -perfetto needs the full stream
		flight  *obs.FlightSink  // only with -flight
		summary *obs.SummarySink // only with -report
		sinks   []obs.Sink
		closers []*os.File
	)
	if *report != "" {
		if err := os.MkdirAll(*report, 0o755); err != nil {
			return fail(err)
		}
		f, err := os.Create(filepath.Join(*report, "trace.jsonl"))
		if err != nil {
			return fail(err)
		}
		closers = append(closers, f)
		summary = obs.NewSummarySink()
		sinks = append(sinks, obs.NewJSONLSink(f, 0), summary)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return fail(err)
		}
		closers = append(closers, f)
		sinks = append(sinks, obs.NewJSONLSink(f, 0))
	}
	if *perfOut != "" {
		mem = obs.NewMemorySink()
		sinks = append(sinks, mem)
	}
	if *flightN > 0 {
		flight = obs.NewFlightSink(*flightN)
		sinks = append(sinks, flight)
	}
	if len(sinks) > 0 {
		sink := obs.Tee(sinks...)
		filter := obs.FilterConfig{
			Types:  splitTypes(*fTypes),
			Nodes:  splitList(*fNodes),
			Doms:   splitList(*fDoms),
			EveryN: *sampleN,
		}
		if len(filter.Types) > 0 || len(filter.Nodes) > 0 || len(filter.Doms) > 0 || filter.EveryN > 1 {
			sink = obs.NewFilterSink(sink, filter)
		}
		tracer = obs.NewTracerWithSink(sink)
		opts.Tracer = tracer
	}

	// A panic mid-run still dumps the flight recorder before unwinding —
	// the retained window is exactly what a crash investigation needs.
	defer func() {
		if r := recover(); r != nil {
			dumpFlight(flight, *flightTo)
			panic(r)
		}
	}()

	if *dcs > 0 {
		spec := dvc.ScaleSpec{DCs: *dcs, ClustersPerDC: *clusters, HostsPerCluster: *hosts, VMs: *vms}
		return runScaleMode(spec, *seed, tracer, closers)
	}

	var results []*dvc.ExperimentResult
	if *exp == "all" {
		all, err := dvc.RunAllExperiments(opts)
		if err != nil {
			return fail(err)
		}
		results = all
	} else {
		res, err := dvc.RunExperiment(*exp, opts)
		if err != nil {
			return fail(err)
		}
		results = append(results, res)
	}

	if tracer != nil {
		if err := tracer.Flush(); err != nil {
			return fail(err)
		}
		if *perfOut != "" {
			if err := writeFile(*perfOut, func(w io.Writer) error {
				return obs.WritePerfettoRecords(w, mem.Records())
			}); err != nil {
				return fail(err)
			}
		}
		if *report != "" {
			if err := writeReport(*report, *exp, *seed, *trials, *full, *parallel, results, tracer, summary); err != nil {
				return fail(err)
			}
		}
		for _, f := range closers {
			if err := f.Close(); err != nil {
				return fail(err)
			}
		}
		if !*jsonOut {
			fmt.Println(tracer.Registry().Table().String())
			fmt.Printf("dvcsim: %d trace events recorded\n\n", tracer.Len())
		}
	}

	failed := 0
	for _, res := range results {
		for range res.FailedChecks() {
			failed++
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		var err error
		if tracer != nil {
			// Merge the counter-registry snapshot alongside the results.
			err = enc.Encode(struct {
				Results  []*dvc.ExperimentResult `json:"results"`
				Registry json.Marshaler          `json:"registry"`
			}{results, tracer.Registry()})
		} else {
			err = enc.Encode(results)
		}
		if err != nil {
			return fail(err)
		}
	}
	if failed > 0 {
		dumpFlight(flight, *flightTo)
		fmt.Fprintf(os.Stderr, "dvcsim: %d shape check(s) FAILED\n", failed)
		return 1
	}
	if !*jsonOut {
		fmt.Println("dvcsim: all shape checks passed")
	}
	return 0
}

// writeReport lays down the self-contained run artifact next to the
// already-streamed trace.jsonl: config, results (tables + checks),
// registry snapshot, streaming trace summary and the windowed metric
// series. Every file's bytes are a pure function of the run.
func writeReport(dir, exp string, seed int64, trials int, full bool, parallel int,
	results []*dvc.ExperimentResult, tracer *dvc.Tracer, summary *obs.SummarySink) error {
	writeJSON := func(name string, v any) error {
		return writeFile(filepath.Join(dir, name), func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(v)
		})
	}
	cfg := struct {
		Experiment string `json:"experiment"`
		Seed       int64  `json:"seed"`
		Trials     int    `json:"trials,omitempty"`
		Full       bool   `json:"full,omitempty"`
		Parallel   int    `json:"parallel,omitempty"`
	}{exp, seed, trials, full, parallel}
	if err := writeJSON("config.json", cfg); err != nil {
		return err
	}
	if err := writeJSON("results.json", results); err != nil {
		return err
	}
	if err := writeJSON("registry.json", tracer.Registry()); err != nil {
		return err
	}
	if err := writeJSON("summary.json", &summary.Summary); err != nil {
		return err
	}
	return writeFile(filepath.Join(dir, "series.jsonl"), tracer.Series().WriteJSONL)
}

// dumpFlight writes the flight recorder's retained window, if one is
// armed and has records.
// runScaleMode generates a -dc/-cluster/-host topology, drives the
// reference LSC workload over it end-to-end, and prints throughput
// figures. Exit status is non-zero if the checkpoint or the job failed.
func runScaleMode(spec dvc.ScaleSpec, seed int64, tracer *dvc.Tracer, closers []*os.File) int {
	start := time.Now()
	res, err := dvc.RunScale(seed, spec, tracer)
	if err != nil {
		return fail(err)
	}
	wall := time.Since(start)

	// The inventory is one line per cluster; summarize past 20 clusters.
	lines := strings.Split(strings.TrimRight(res.Inventory, "\n"), "\n")
	const invHead = 4 // topology + leaf/spine/wan profile lines
	if len(lines) > invHead+20 {
		fmt.Println(strings.Join(lines[:invHead+20], "\n"))
		fmt.Printf("... (%d more clusters)\n", len(lines)-invHead-20)
	} else {
		fmt.Println(strings.Join(lines, "\n"))
	}
	fmt.Printf("scale: nodes=%d clusters=%d vms=%d sim=%v\n", res.Nodes, res.Clusters, res.VMs, res.SimTime)
	fmt.Printf("scale: events=%d wall=%v ns/event=%.0f events/s=%.0f\n",
		res.Events, wall.Round(time.Millisecond),
		float64(wall.Nanoseconds())/float64(res.Events),
		float64(res.Events)/wall.Seconds())
	fmt.Printf("scale: checkpoint=%v job=%v skew=%.2fms\n", res.CheckpointOK, res.JobOK, res.SaveSkew.Seconds()*1000)

	if tracer != nil {
		if err := tracer.Flush(); err != nil {
			return fail(err)
		}
		fmt.Printf("dvcsim: %d trace events recorded\n", tracer.Len())
	}
	for _, f := range closers {
		if err := f.Close(); err != nil {
			return fail(err)
		}
	}
	if !res.OK() {
		fmt.Fprintln(os.Stderr, "dvcsim: scale run failed")
		return 1
	}
	return 0
}

func dumpFlight(flight *obs.FlightSink, path string) {
	if flight == nil || flight.Retained() == 0 {
		return
	}
	if err := writeFile(path, flight.Dump); err != nil {
		fmt.Fprintln(os.Stderr, "dvcsim: flight dump:", err)
		return
	}
	fmt.Fprintf(os.Stderr, "dvcsim: flight recorder dumped %d of %d records to %s\n",
		flight.Retained(), flight.Total(), path)
}

// writeFile writes one exporter's output to path.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// splitList parses a comma-separated flag value, dropping empties.
func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}

// splitTypes parses a comma-separated list of event types/categories.
func splitTypes(s string) []obs.EventType {
	parts := splitList(s)
	if parts == nil {
		return nil
	}
	out := make([]obs.EventType, len(parts))
	for i, p := range parts {
		out[i] = obs.EventType(p)
	}
	return out
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "dvcsim:", err)
	return 2
}
