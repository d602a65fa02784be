package core

import (
	"reflect"
	"testing"

	"dvc/internal/guest"
	"dvc/internal/hpcc"
	"dvc/internal/mpi"
	"dvc/internal/sim"
	"dvc/internal/vm"
)

// TestDeltaCheckpointEpochsDedupAndRestore drives the full delta path:
// coordinated delta epochs, steady-state epochs costing a fraction of
// the full image, prune + GC of old self-contained generations, and
// crash recovery staging exactly one image per domain.
func TestDeltaCheckpointEpochsDedupAndRestore(t *testing.T) {
	cfg := DefaultNTPLSC()
	cfg.ContinueAfterSave = true
	cfg.Delta = true
	tb := newTestbed(t, 25, map[string]int{"alpha": 4}, cfg)
	vc, err := tb.mgr.Allocate(VCSpec{Name: "dlt", Nodes: 2, VMRAM: testVMRAM}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range vc.Domains() {
		d.SetDirtyRate(2e6) // modest writer from first guest instruction
	}
	tb.k.RunFor(vm.DefaultXenConfig().BootTime + sim.Second)
	vc.LaunchMPI(6000, func(int) mpi.App { return hpcc.NewHalo(6000, 20*sim.Millisecond, 1024) })
	tb.k.RunFor(sim.Second)

	var gens []*CheckpointResult
	for i := 0; i < 3; i++ {
		var res *CheckpointResult
		tb.co.Checkpoint(vc, func(r *CheckpointResult) { res = r })
		for res == nil {
			tb.k.RunFor(sim.Second)
		}
		tb.k.RunFor(5 * sim.Second)
		if !res.OK {
			t.Fatalf("delta checkpoint %d: %+v", i, res)
		}
		gens = append(gens, res)
	}

	logical := int64(vc.Spec().Nodes) * testVMRAM
	for i, g := range gens {
		if g.LogicalBytes != logical {
			t.Fatalf("gen %d logical %d, want %d", i, g.LogicalBytes, logical)
		}
		for _, img := range g.Images {
			if img.Pages == nil {
				t.Fatalf("gen %d image is not a delta epoch", i)
			}
		}
	}
	// Generation 0 already dedups: the golden-image template chunks are
	// shared across both VMs, and untouched RAM is one zero chunk.
	if gens[0].SentBytes >= gens[0].LogicalBytes {
		t.Fatalf("gen 0 sent %d of %d logical — no dedup", gens[0].SentBytes, gens[0].LogicalBytes)
	}
	if gens[0].DedupChunks == 0 {
		t.Fatal("gen 0 saw no dedup hits")
	}
	// Steady state: an epoch costs its dirtied chunks plus metadata —
	// far below the full image, and far below generation 0.
	for _, g := range gens[1:] {
		if g.SentBytes*4 > g.LogicalBytes {
			t.Fatalf("steady-state epoch sent %d of %d logical, want <= 25%%", g.SentBytes, g.LogicalBytes)
		}
	}
	if gens[1].SentBytes >= gens[0].SentBytes {
		t.Fatalf("gen 1 sent %d, not below gen 0's %d", gens[1].SentBytes, gens[0].SentBytes)
	}
	if gens[1].StoreTime >= gens[0].StoreTime {
		t.Fatalf("gen 1 store time %v not below gen 0's %v", gens[1].StoreTime, gens[0].StoreTime)
	}
	if tb.store.DeltaWrites != 6 {
		t.Fatalf("store delta writes %d, want 6", tb.store.DeltaWrites)
	}

	// Old delta generations are self-contained, so pruning drops them
	// whole and GC reclaims their private chunks.
	uniqueBefore := tb.store.UniqueBytes()
	if deleted := tb.co.PruneGenerations("dlt", 1); deleted != 4 {
		t.Fatalf("pruned %d objects, want 4 (2 gens x 2 domains)", deleted)
	}
	if tb.store.UniqueBytes() >= uniqueBefore {
		t.Fatalf("prune+GC did not shrink the pool: %d -> %d", uniqueBefore, tb.store.UniqueBytes())
	}

	// Crash recovery from the kept generation: each delta epoch is
	// self-contained, so the pruned older generations are not needed.
	vc.PhysicalNodes()[0].Fail()
	tb.k.RunFor(2 * sim.Second)
	vc.Teardown()
	targets := tb.site.UpNodes("alpha")[:2]
	var rr *RestoreResult
	tb.co.RestoreVC(vc, gens[2].Generation, targets, func(r *RestoreResult) { rr = r })
	tb.k.RunFor(5 * sim.Minute)
	if rr == nil || !rr.OK {
		t.Fatalf("delta restore: %+v", rr)
	}
	js := tb.runJob(t, vc, time60())
	if !js.AllOK() {
		t.Fatalf("job after delta restore: %+v", js)
	}
}

// TestDeltaRestoreByteIdenticalToFull is the acceptance proof: an image
// written through WriteDelta and read back from the chunk pool is
// byte-identical — same payload bytes, same decoded guest state — to a
// full image captured at the same paused instant, and it restores to a
// running domain.
func TestDeltaRestoreByteIdenticalToFull(t *testing.T) {
	tb := newTestbed(t, 26, map[string]int{"alpha": 2}, DefaultNTPLSC())
	vc := tb.allocate(t, "bi", 1, guest.WatchdogConfig{})
	tb.k.RunFor(10 * sim.Second)
	d := vc.Domains()[0]
	if err := d.Pause(); err != nil {
		t.Fatal(err)
	}
	full, err := d.CaptureImage()
	if err != nil {
		t.Fatal(err)
	}
	delta, err := d.CaptureDeltaImage()
	if err != nil {
		t.Fatal(err)
	}
	if !delta.Data.Equal(full.Data) {
		t.Fatal("delta capture's functional payload differs from the full capture")
	}

	if _, err := tb.store.WriteDelta("bi/0", delta, nil); err != nil {
		t.Fatal(err)
	}
	tb.k.RunFor(sim.Minute)
	var got *vm.Image
	var gotErr error
	tb.store.Read("bi/0", func(i *vm.Image, err error) { got, gotErr = i, err })
	tb.k.RunFor(sim.Minute)
	if gotErr != nil {
		t.Fatal(gotErr)
	}
	if !got.Data.Equal(full.Data) {
		t.Fatal("reassembled delta image is not byte-identical to the full image")
	}
	sf, err := guest.DecodeImagePayload(full.Data)
	if err != nil {
		t.Fatal(err)
	}
	sg, err := guest.DecodeImagePayload(got.Data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sf, sg) {
		t.Fatal("decoded guest state differs between delta and full restore")
	}

	// And it restores to a live domain.
	d.Destroy()
	tb.k.RunFor(sim.Second)
	h := tb.mgr.hvs[vc.PhysicalNodes()[0].ID()]
	d2, err := h.RestoreDomain(got, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := d2.Unpause(); err != nil {
		t.Fatal(err)
	}
	tb.k.RunFor(sim.Second)
	if d2.State() != vm.StateRunning {
		t.Fatalf("restored domain is %v", d2.State())
	}
}

// TestLiveMigrateDeltaSkipsUntouchedRAM: the WAN-ready variant elides
// never-dirtied chunks from the first pre-copy round and keeps chunk
// lineage across the move.
func TestLiveMigrateDeltaSkipsUntouchedRAM(t *testing.T) {
	tb := newTestbed(t, 27, map[string]int{"alpha": 2, "beta": 2}, DefaultNTPLSC())
	vc, err := tb.mgr.Allocate(VCSpec{Name: "wan", Nodes: 2, VMRAM: testVMRAM, Clusters: []string{"alpha"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range vc.Domains() {
		d.SetDirtyRate(2e6) // calm guest: most RAM never dirtied
	}
	tb.k.RunFor(vm.DefaultXenConfig().BootTime + sim.Second)
	vc.LaunchMPI(6000, func(int) mpi.App { return hpcc.NewHalo(4000, 20*sim.Millisecond, 1024) })
	tb.k.RunFor(sim.Second)

	cfg := DefaultLiveConfig()
	cfg.Delta = true
	var res *LiveMigrationResult
	if err := tb.co.LiveMigrate(vc, tb.site.UpNodes("beta"), cfg, func(r *LiveMigrationResult) { res = r }); err != nil {
		t.Fatal(err)
	}
	tb.k.RunFor(10 * sim.Minute)
	if res == nil || !res.OK {
		t.Fatalf("delta live migration: %+v", res)
	}
	total := int64(vc.Spec().Nodes) * testVMRAM
	if res.BytesSkipped == 0 {
		t.Fatal("delta pre-copy skipped nothing on a calm guest")
	}
	if res.BytesCopied+res.BytesSkipped < total {
		t.Fatalf("copied %d + skipped %d < RAM %d", res.BytesCopied, res.BytesSkipped, total)
	}
	if res.BytesCopied >= total {
		t.Fatalf("copied %d bytes, no elision vs %d RAM", res.BytesCopied, total)
	}
	// The migrated domains carry their page tables (delta final capture):
	// a post-move epoch dedups against pre-move state.
	for _, d := range vc.Domains() {
		if d.UntouchedBytes() == testVMRAM {
			t.Fatal("migrated domain lost its page-table state")
		}
	}
	js := tb.runJob(t, vc, time60())
	if !js.AllOK() {
		t.Fatalf("job after delta live migration: %+v", js)
	}
}
