package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"dvc/internal/core"
	"dvc/internal/hpcc"
	"dvc/internal/mpi"
	"dvc/internal/phys"
	"dvc/internal/sim"
)

// BenchmarkDeltaCheckpoint measures the incremental content-addressed
// checkpoint pipeline on the 2-datacenter WAN bed: bytes shipped per
// epoch under full-image vs delta policy at the default guest dirty
// rate, the chunk pool's dedup ratio, and the restore staging latency
// from a delta generation. The byte metrics are machine-independent
// (pure simulation outputs), so the dvcbench gate fails hard on them.
//
// Epoch 0 is reported separately: the ~30 s boot at the default dirty
// rate saturates the page table, so the first delta epoch ships nearly
// the whole image and only the steady-state epochs show the win. The
// in-bench gate enforces the acceptance bar — steady-state delta
// bytes/epoch at most 25% of the full-image baseline.
//
// With DVC_BENCH_JSON=<path> the result is appended to the BENCH_ckpt
// JSON artifact. Run alone:
//
//	go test -run '^$' -bench BenchmarkDeltaCheckpoint -benchtime 1x ./internal/experiments
func BenchmarkDeltaCheckpoint(b *testing.B) {
	const (
		seed   = 20070917
		nodes  = 4
		epochs = 6
	)

	type runOut struct {
		firstEpoch   int64
		steadyEpoch  int64
		logical      int64
		sent         int64
		restoreStage sim.Time
	}
	run := func(delta bool) runOut {
		lsc := core.DefaultNTPLSC()
		lsc.ContinueAfterSave = true
		lsc.Delta = delta
		// Tight epochs: at the default 40 MB/s dirty rate the guests touch
		// ~2% of RAM per 100 ms, so the 2 s default schedule lead would
		// dominate the per-epoch dirty set. NTP skew is micro-seconds, so
		// a 500 ms lead still pauses every domain on time.
		lsc.ScheduleLead = 500 * sim.Millisecond
		bd := makeBed(seed, bedOptions{topo: wanTopo(nodes * 2), lsc: lsc, ntp: true})
		src := phys.ClusterName(0, 0)
		vc, err := bd.mgr.Allocate(core.VCSpec{Name: "bench", Nodes: nodes, VMRAM: vmRAM, Clusters: []string{src}}, nil)
		if err != nil {
			b.Fatal(err)
		}
		// Default dirty rate: no SetDirtyRate call, per the acceptance bar.
		bd.k.RunFor(35 * sim.Second)
		vc.LaunchMPI(6000, func(int) mpi.App { return hpcc.NewHalo(30000, 20*sim.Millisecond, 1024) })
		bd.k.RunFor(sim.Second)

		o := runOut{}
		var last *core.CheckpointResult
		for i := 0; i < epochs; i++ {
			r := bd.checkpointOnce(vc, 10*sim.Minute)
			if r == nil || !r.OK {
				b.Fatalf("epoch %d failed: %+v", i, r)
			}
			last = r
			epoch := int64(0)
			if delta {
				epoch = r.SentBytes
				o.logical += r.LogicalBytes
			} else {
				for _, img := range r.Images {
					epoch += img.SizeBytes()
				}
				o.logical += epoch
			}
			o.sent += epoch
			if i == 0 {
				o.firstEpoch = epoch
			} else {
				o.steadyEpoch += epoch
			}
			bd.k.RunFor(500 * sim.Millisecond)
		}
		o.steadyEpoch /= epochs - 1

		vc.PhysicalNodes()[0].Fail()
		bd.k.RunFor(2 * sim.Second)
		vc.Teardown()
		targets := bd.site.UpNodes(src)[:nodes]
		var rr *core.RestoreResult
		bd.co.RestoreVC(vc, last.Generation, targets, func(r *core.RestoreResult) { rr = r })
		deadline := bd.k.Now() + 30*sim.Minute
		for rr == nil && bd.k.Now() < deadline {
			bd.k.RunFor(sim.Second)
		}
		if rr == nil || !rr.OK {
			b.Fatalf("restore failed: %+v", rr)
		}
		o.restoreStage = rr.StageTime
		return o
	}

	var full, delta runOut
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		full = run(false)
		delta = run(true)
	}
	b.StopTimer()

	dedup := float64(delta.logical) / float64(delta.sent)
	sentFraction := float64(delta.steadyEpoch) / float64(full.steadyEpoch)
	restoreMs := float64(delta.restoreStage) / float64(sim.Millisecond)
	b.ReportMetric(float64(delta.steadyEpoch), "delta-bytes/epoch")
	b.ReportMetric(float64(full.steadyEpoch), "full-bytes/epoch")
	b.ReportMetric(dedup, "dedup-ratio")
	b.ReportMetric(restoreMs, "restore-ms")

	// The acceptance gate, enforced in-bench so a regression fails even
	// without the dvcbench trajectory check.
	if delta.steadyEpoch*4 > full.steadyEpoch {
		b.Fatalf("steady-state delta epoch %d bytes > 25%% of full epoch %d bytes", delta.steadyEpoch, full.steadyEpoch)
	}

	if path := os.Getenv("DVC_BENCH_JSON"); path != "" {
		doc := struct {
			Benchmark       string  `json:"benchmark"`
			N               int     `json:"n"`
			FullEpochBytes  int64   `json:"full_epoch_bytes"`
			DeltaEpochBytes int64   `json:"delta_epoch_bytes"`
			FirstEpochBytes int64   `json:"delta_first_epoch_bytes"`
			SentFraction    float64 `json:"sent_fraction"`
			DedupRatio      float64 `json:"dedup_ratio"`
			RestoreStageMs  float64 `json:"restore_stage_ms"`
		}{"BenchmarkDeltaCheckpoint", b.N, full.steadyEpoch, delta.steadyEpoch, delta.firstEpoch, sentFraction, dedup, restoreMs}
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
