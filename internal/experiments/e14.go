package experiments

import (
	"fmt"

	"dvc/internal/core"
	"dvc/internal/hpcc"
	"dvc/internal/metrics"
	"dvc/internal/mpi"
	"dvc/internal/phys"
	"dvc/internal/sim"
	"dvc/internal/vm"
)

func init() {
	register("E14", "Extension: incremental checkpoints as content-addressed delta epochs", runE14)
}

// e14Bed is one of the two testbeds E14 checkpoints on.
type e14Bed struct {
	name    string
	build   func(lsc core.LSCConfig) *bed
	cluster string   // where the VC runs and is restored
	boot    sim.Time // wait from allocation to job launch
	gap     sim.Time // running time between checkpoints
}

// runE14 extends the checkpoint-cost story (E4/E5) with incremental
// checkpoints: content-addressed delta epochs against the paper's full
// image every time, on a one-cluster LAN and on a 2-datacenter WAN.
// Every delta epoch is self-contained — the store's chunk pool dedups
// template, zero, and unchanged private chunks across epochs and VMs, so
// the wire carries only new chunks plus manifest metadata, and a restore
// stages a single image per VM, just as a full restore does.
func runE14(opts Options) *Result {
	res := &Result{}
	const (
		nodes     = 4
		cycles    = 6
		dirtyRate = 6e6
	)
	lan := e14Bed{
		name: "LAN",
		build: func(lsc core.LSCConfig) *bed {
			return newBed(opts.Seed, map[string]int{"alpha": nodes * 2}, lsc, true)
		},
		cluster: "alpha",
		boot:    vm.DefaultXenConfig().BootTime + sim.Second,
		gap:     10 * sim.Second,
	}
	wan := e14Bed{
		name: "WAN",
		build: func(lsc core.LSCConfig) *bed {
			return newWANBed(opts.Seed+20, nodes*2, lsc)
		},
		cluster: phys.ClusterName(0, 0),
		boot:    35 * sim.Second,
		gap:     5 * sim.Second,
	}

	type out struct {
		firstEpoch   int64 // bytes shipped for epoch 0 (cold pool)
		steadyEpoch  int64 // mean bytes/epoch over epochs 1..n-1
		logical      int64 // logical image bytes across all epochs
		sent         int64 // bytes actually shipped across all epochs
		meanStore    sim.Time
		meanDown     sim.Time
		restoreStage sim.Time
		jobOK        bool
	}
	run := func(eb e14Bed, delta bool) out {
		lsc := core.DefaultNTPLSC()
		lsc.ContinueAfterSave = true
		lsc.Delta = delta
		b := eb.build(lsc)
		vc, err := b.mgr.Allocate(core.VCSpec{Name: "e14", Nodes: nodes, VMRAM: vmRAM, Clusters: []string{eb.cluster}}, nil)
		if err != nil {
			panic(err)
		}
		for _, d := range vc.Domains() {
			d.SetDirtyRate(dirtyRate)
		}
		b.k.RunFor(eb.boot)
		vc.LaunchMPI(6000, func(int) mpi.App { return hpcc.NewHalo(30000, 20*sim.Millisecond, 1024) })
		b.k.RunFor(sim.Second)

		o := out{}
		var gens []*core.CheckpointResult
		for i := 0; i < cycles; i++ {
			var r *core.CheckpointResult
			if err := b.co.Checkpoint(vc, func(cr *core.CheckpointResult) { r = cr }); err != nil {
				panic(err)
			}
			for r == nil {
				b.k.RunFor(sim.Second)
			}
			if !r.OK {
				panic("E14 checkpoint failed: " + r.Reason)
			}
			gens = append(gens, r)
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
			o.meanStore += r.StoreTime
			o.meanDown += r.Downtime
			b.k.RunFor(eb.gap)
		}
		o.steadyEpoch /= cycles - 1
		o.meanStore /= cycles
		o.meanDown /= cycles

		// Fail a node and recover from the newest generation.
		vc.PhysicalNodes()[0].Fail()
		b.k.RunFor(2 * sim.Second)
		vc.Teardown()
		targets := b.site.UpNodes(eb.cluster)[:nodes]
		var rr *core.RestoreResult
		b.co.RestoreVC(vc, gens[len(gens)-1].Generation, targets, func(r *core.RestoreResult) { rr = r })
		deadline := b.k.Now() + 30*sim.Minute
		for rr == nil && b.k.Now() < deadline {
			b.k.RunFor(sim.Second)
		}
		if rr == nil || !rr.OK {
			panic("E14 restore failed")
		}
		o.restoreStage = rr.StageTime
		o.jobOK = b.runJob(vc, 2*sim.Hour).AllOK()
		return o
	}

	lanFull, lanDelta := run(lan, false), run(lan, true)
	wanFull, wanDelta := run(wan, false), run(wan, true)

	tbl := metrics.NewTable(fmt.Sprintf("E14: %d checkpoint epochs of a %d-VM cluster (%d MiB guests, %.0f MB/s dirty)",
		cycles, nodes, vmRAM>>20, dirtyRate/1e6),
		"bed", "policy", "epoch 0", "bytes/epoch (steady)", "total shipped", "dedup ratio",
		"store/ckpt", "downtime/ckpt", "restore stage", "job")
	row := func(eb e14Bed, policy string, o out) {
		tbl.Row(eb.name, policy, fmtBytes(o.firstEpoch), fmtBytes(o.steadyEpoch), fmtBytes(o.sent),
			fmt.Sprintf("%.1fx", float64(o.logical)/float64(o.sent)),
			o.meanStore, o.meanDown, o.restoreStage, okStr(o.jobOK))
	}
	row(lan, "full image every epoch", lanFull)
	row(lan, "delta epochs", lanDelta)
	row(wan, "full image every epoch", wanFull)
	row(wan, "delta epochs", wanDelta)
	res.table(tbl, opts.out())

	dedup := float64(wanDelta.logical) / float64(wanDelta.sent)
	res.check("every run recovers its job",
		lanFull.jobOK && lanDelta.jobOK && wanFull.jobOK && wanDelta.jobOK, "")
	res.check("delta cuts store traffic to under half of full (LAN)",
		lanDelta.sent*2 < lanFull.sent,
		"%s vs %s", fmtBytes(lanDelta.sent), fmtBytes(lanFull.sent))
	res.check("delta shrinks per-checkpoint downtime (LAN)",
		lanDelta.meanDown < lanFull.meanDown,
		"%v vs %v", lanDelta.meanDown, lanFull.meanDown)
	res.check("steady-state delta epoch ships <= 25% of a full epoch (WAN)",
		wanDelta.steadyEpoch*4 <= wanFull.steadyEpoch,
		"%s vs %s", fmtBytes(wanDelta.steadyEpoch), fmtBytes(wanFull.steadyEpoch))
	res.check("chunk pool dedups across epochs and VMs (WAN)",
		dedup > 2,
		"ratio %.1fx", dedup)
	res.check("a delta restore stages no more than a full restore (LAN)",
		lanDelta.restoreStage <= lanFull.restoreStage,
		"%v vs %v", lanDelta.restoreStage, lanFull.restoreStage)
	res.check("a delta restore stages no more than a full restore (WAN)",
		wanDelta.restoreStage <= wanFull.restoreStage,
		"%v vs %v", wanDelta.restoreStage, wanFull.restoreStage)
	return res
}

func okStr(ok bool) string {
	if ok {
		return "ok"
	}
	return "FAILED"
}
