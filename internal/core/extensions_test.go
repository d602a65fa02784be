package core

import (
	"testing"

	"dvc/internal/guest"
	"dvc/internal/hpcc"
	"dvc/internal/mpi"
	"dvc/internal/sim"
)

func TestLiveMigrateLowDirtyRate(t *testing.T) {
	tb := newTestbed(t, 21, map[string]int{"alpha": 3, "beta": 3}, DefaultNTPLSC())
	vc, err := tb.mgr.Allocate(VCSpec{Name: "lm", Nodes: 3, VMRAM: testVMRAM, Clusters: []string{"alpha"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tb.k.RunFor(30 * sim.Second)
	vc.LaunchMPI(6000, func(int) mpi.App { return hpcc.NewHalo(4000, 20*sim.Millisecond, 1024) })
	tb.k.RunFor(sim.Second)
	for _, d := range vc.Domains() {
		d.SetDirtyRate(20e6) // moderate writer: converges in a few rounds
	}

	var res *LiveMigrationResult
	if err := tb.co.LiveMigrate(vc, tb.site.UpNodes("beta"), DefaultLiveConfig(), func(r *LiveMigrationResult) { res = r }); err != nil {
		t.Fatal(err)
	}
	tb.k.RunFor(10 * sim.Minute)
	if res == nil || !res.OK {
		t.Fatalf("live migration failed: %+v", res)
	}
	// 256MiB at 117MB/s stop-and-copy would be ~2.3s of downtime; a calm
	// guest's pre-copy residual must be far below that.
	if res.Downtime > sim.Second {
		t.Fatalf("live downtime %v, want sub-second", res.Downtime)
	}
	if res.Rounds < 2 {
		t.Fatalf("pre-copy did %d rounds", res.Rounds)
	}
	for _, n := range vc.PhysicalNodes() {
		if n.Cluster() != "beta" {
			t.Fatal("not migrated to beta")
		}
	}
	js := tb.runJob(t, vc, time60())
	if !js.AllOK() {
		t.Fatalf("job after live migration: %+v", js)
	}
}

func TestLiveMigrateBeatsStopAndCopyDowntime(t *testing.T) {
	run := func(live bool) sim.Time {
		tb := newTestbed(t, 22, map[string]int{"alpha": 2, "beta": 2}, DefaultNTPLSC())
		vc, _ := tb.mgr.Allocate(VCSpec{Name: "x", Nodes: 2, VMRAM: testVMRAM, Clusters: []string{"alpha"}}, nil)
		tb.k.RunFor(30 * sim.Second)
		vc.LaunchMPI(6000, func(int) mpi.App { return hpcc.NewHalo(4000, 20*sim.Millisecond, 1024) })
		tb.k.RunFor(sim.Second)
		for _, d := range vc.Domains() {
			d.SetDirtyRate(5e6)
		}
		targets := tb.site.UpNodes("beta")
		var down sim.Time
		if live {
			var res *LiveMigrationResult
			tb.co.LiveMigrate(vc, targets, DefaultLiveConfig(), func(r *LiveMigrationResult) { res = r })
			tb.k.RunFor(10 * sim.Minute)
			if res == nil || !res.OK {
				t.Fatalf("live: %+v", res)
			}
			down = res.Downtime
		} else {
			var res *CheckpointResult
			tb.co.Migrate(vc, targets, func(r *CheckpointResult) { res = r })
			tb.k.RunFor(10 * sim.Minute)
			if res == nil || !res.OK {
				t.Fatalf("stop-and-copy: %+v", res)
			}
			down = res.Downtime
		}
		return down
	}
	stop := run(false)
	live := run(true)
	if live*5 > stop {
		t.Fatalf("live downtime %v not clearly better than stop-and-copy %v", live, stop)
	}
}

func TestLiveMigrateHotGuestHitsRoundCap(t *testing.T) {
	tb := newTestbed(t, 23, map[string]int{"alpha": 2, "beta": 2}, DefaultNTPLSC())
	vc, _ := tb.mgr.Allocate(VCSpec{Name: "hot", Nodes: 2, VMRAM: testVMRAM, Clusters: []string{"alpha"}}, nil)
	tb.k.RunFor(30 * sim.Second)
	vc.LaunchMPI(6000, func(int) mpi.App { return hpcc.NewHalo(1<<20, 20*sim.Millisecond, 1024) })
	tb.k.RunFor(sim.Second)
	for _, d := range vc.Domains() {
		// Dirtying nearly as fast as the wire: pre-copy cannot converge.
		d.SetDirtyRate(100e6)
	}
	cfg := DefaultLiveConfig()
	var res *LiveMigrationResult
	tb.co.LiveMigrate(vc, tb.site.UpNodes("beta"), cfg, func(r *LiveMigrationResult) { res = r })
	tb.k.RunFor(30 * sim.Minute)
	if res == nil || !res.OK {
		t.Fatalf("hot migration: %+v", res)
	}
	if res.Rounds != cfg.MaxRounds {
		t.Fatalf("expected to hit the %d-round cap, did %d", cfg.MaxRounds, res.Rounds)
	}
	// Total traffic far exceeds RAM: the re-dirty tax.
	if res.BytesCopied < 2*int64(vc.Spec().Nodes)*testVMRAM {
		t.Fatalf("copied only %d bytes", res.BytesCopied)
	}
}

func TestNodeCrashDuringSaveFailsCheckpointCleanly(t *testing.T) {
	tb := newTestbed(t, 41, map[string]int{"alpha": 3}, DefaultNTPLSC())
	vc := tb.allocate(t, "cs", 3, guest.WatchdogConfig{})
	vc.LaunchMPI(6000, func(int) mpi.App { return hpcc.NewHalo(4000, 20*sim.Millisecond, 1024) })
	tb.k.RunFor(sim.Second)
	var res *CheckpointResult
	if err := tb.co.Checkpoint(vc, func(r *CheckpointResult) { res = r }); err != nil {
		t.Fatal(err)
	}
	// The node dies inside the schedule-lead window, before its pause.
	vc.PhysicalNodes()[1].Fail()
	tb.k.RunFor(5 * sim.Minute)
	if res == nil {
		t.Fatal("checkpoint never reported")
	}
	if res.OK {
		t.Fatal("checkpoint with a mid-save crash reported OK")
	}
	if tb.co.FailCount != 1 {
		t.Fatalf("FailCount = %d", tb.co.FailCount)
	}
}

func TestRestoreOntoCrashedNodeFails(t *testing.T) {
	cfg := DefaultNTPLSC()
	cfg.ContinueAfterSave = true
	tb := newTestbed(t, 42, map[string]int{"alpha": 6}, cfg)
	vc := tb.allocate(t, "rc", 2, guest.WatchdogConfig{})
	vc.LaunchMPI(6000, func(int) mpi.App { return hpcc.NewHalo(4000, 20*sim.Millisecond, 1024) })
	tb.k.RunFor(sim.Second)
	var ck *CheckpointResult
	tb.co.Checkpoint(vc, func(r *CheckpointResult) { ck = r })
	tb.k.RunFor(2 * sim.Minute)
	if ck == nil || !ck.OK {
		t.Fatalf("setup checkpoint: %+v", ck)
	}
	vc.Teardown()
	// Pick targets, then crash one before the restore begins.
	targets := tb.site.UpNodes("alpha")[:2]
	targets[1].Fail()
	var rr *RestoreResult
	tb.co.RestoreVC(vc, ck.Generation, targets, func(r *RestoreResult) { rr = r })
	tb.k.RunFor(5 * sim.Minute)
	if rr == nil {
		t.Fatal("restore never reported")
	}
	if rr.OK {
		t.Fatal("restore onto a dead node reported OK")
	}
	// And a second attempt on healthy nodes still works (rollback left
	// the addresses free).
	fresh := tb.site.UpNodes("alpha")[:2]
	var rr2 *RestoreResult
	tb.co.RestoreVC(vc, ck.Generation, fresh, func(r *RestoreResult) { rr2 = r })
	tb.k.RunFor(5 * sim.Minute)
	if rr2 == nil || !rr2.OK {
		t.Fatalf("second restore: %+v", rr2)
	}
	if !tb.runJob(t, vc, time60()).AllOK() {
		t.Fatal("job failed after recovery")
	}
}

func TestRestoreUnknownGenerationFails(t *testing.T) {
	tb := newTestbed(t, 43, map[string]int{"alpha": 3}, DefaultNTPLSC())
	vc := tb.allocate(t, "ug", 2, guest.WatchdogConfig{})
	vc.Teardown()
	var rr *RestoreResult
	tb.co.RestoreVC(vc, 99, tb.site.UpNodes("alpha")[:2], func(r *RestoreResult) { rr = r })
	tb.k.RunFor(sim.Minute)
	if rr == nil || rr.OK {
		t.Fatalf("restore of unknown generation: %+v", rr)
	}
}

func TestMigrateWrongTargetCount(t *testing.T) {
	tb := newTestbed(t, 44, map[string]int{"alpha": 3}, DefaultNTPLSC())
	vc := tb.allocate(t, "wt", 3, guest.WatchdogConfig{})
	if err := tb.co.Migrate(vc, tb.site.UpNodes("alpha")[:1], func(*CheckpointResult) {}); err == nil {
		t.Fatal("migrate with too few targets accepted")
	}
	if err := tb.co.LiveMigrate(vc, tb.site.UpNodes("alpha")[:1], DefaultLiveConfig(), func(*LiveMigrationResult) {}); err == nil {
		t.Fatal("live migrate with too few targets accepted")
	}
}
