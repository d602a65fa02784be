package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"dvc/internal/core"
)

// BenchmarkE2EventRate measures end-to-end kernel event throughput on the
// E2-shaped workload (8-node LSC bed, halo-exchange MPI job, one
// coordinated checkpoint): wall-clock nanoseconds per kernel event
// dispatched, with the full stack — TCP, netsim, guest scheduling, VM
// lifecycle, storage transfers — generating the events. This is the
// number the slab kernel exists to improve; BenchmarkKernelChurn isolates
// the event path, this keeps it in context.
//
// With DVC_BENCH_JSON=<path> the result is appended to the BENCH_kernel
// JSON artifact. Run alone (it is deliberately heavy):
//
//	go test -run '^$' -bench BenchmarkE2EventRate -benchtime 1x ./internal/experiments
func BenchmarkE2EventRate(b *testing.B) {
	const seed, nodes = 20070917, 8
	var totalEvents uint64
	var totalWall time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bd := makeBed(seed, bedOptions{clusters: map[string]int{"alpha": nodes}, lsc: core.DefaultNTPLSC(), ntp: true})
		start := time.Now()
		run, err := bd.runRefJob("bench", nodes)
		totalWall += time.Since(start)
		totalEvents += bd.k.Fired()
		if err != nil {
			b.Fatal(err)
		}
		if !run.imagesOK {
			b.Fatalf("checkpoint failed: %+v", run.ckpt)
		}
		if !run.job.AllOK() {
			b.Fatalf("job failed: %+v", run.job)
		}
	}
	b.StopTimer()

	nsPerEvent := float64(totalWall.Nanoseconds()) / float64(totalEvents)
	eventsPerSec := float64(totalEvents) / totalWall.Seconds()
	b.ReportMetric(nsPerEvent, "ns/event")
	b.ReportMetric(eventsPerSec/1e6, "Mevents/s")

	if path := os.Getenv("DVC_BENCH_JSON"); path != "" {
		doc := struct {
			Benchmark   string  `json:"benchmark"`
			N           int     `json:"n"`
			Events      uint64  `json:"events"`
			NsPerEvent  float64 `json:"ns_per_event"`
			EventsPerS  float64 `json:"events_per_s"`
			WallSeconds float64 `json:"wall_s"`
		}{"BenchmarkE2EventRate", b.N, totalEvents, nsPerEvent, eventsPerSec, totalWall.Seconds()}
		data, err := json.Marshal(doc)
		if err != nil {
			b.Fatal(err)
		}
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			b.Fatal(err)
		}
		defer f.Close()
		fmt.Fprintf(f, "%s\n", data)
	}
}
