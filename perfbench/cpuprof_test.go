package main

import (
	"math"
	"os"
	"testing"
)

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		fn    string
		layer string
		ok    bool
	}{
		{"dvc/internal/sim.(*Kernel).Step", "sim", true},
		{"dvc/internal/sim/partition.(*Coordinator).Run.func1", "partition", true},
		{"dvc/internal/guest.(*OS).pump", "guest", true},
		{"dvc/internal/storage.(*Store).pinManifest", "storage", true},
		{"dvc/internal/experiments.RunScalePartitioned.func1", "other", true},
		{"dvc/internal/workload.(*BSPApp).Step", "other", true},
		{"runtime.mallocgc", "", false},
		{"main.lscTrial", "", false},
		{"encoding/gob.(*Encoder).Encode", "", false},
	} {
		l, ok := layerOf(tc.fn)
		if l != tc.layer || ok != tc.ok {
			t.Errorf("layerOf(%q) = %q, %v; want %q, %v", tc.fn, l, ok, tc.layer, tc.ok)
		}
	}
}

func TestAttributeInnermostInternalFrame(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		// Allocation, map and gob time counts against the calling layer.
		{[]string{"runtime.mallocgc", "runtime.makeslice", "dvc/internal/mpi.encodeHeader", "dvc/internal/guest.(*OS).pump", "dvc/internal/sim.(*Kernel).Step"}, "mpi"},
		{[]string{"runtime.mapassign_fast64", "dvc/internal/storage.(*Store).pinManifest", "dvc/internal/core.(*Coordinator).afterPaused"}, "storage"},
		{[]string{"encoding/gob.(*Encoder).Encode", "dvc/internal/guest.encodeSection", "dvc/internal/vm.CaptureDeltaImage"}, "guest"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime_gc"},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.mPark"}, "other"},
		{[]string{"main.mallocs", "main.(*recorder).begin"}, "other"},
	} {
		if got := attribute(tc.stack); got != tc.want {
			t.Errorf("attribute(%v) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

// TestCPUSharesFixture reads a committed CPU profile of a short traced
// run of the E2 set-up (26 VMs, PTRANS then HPL). The expected milliseconds per bucket were computed from
// `go tool pprof -traces testdata/cpu.pprof` with the same
// innermost-dvc/internal-frame rule applied to its printed stacks.
func TestCPUSharesFixture(t *testing.T) {
	data, err := os.ReadFile("testdata/cpu.pprof")
	if err != nil {
		t.Fatal(err)
	}
	shares, samples, err := profileShares(data, "cpu")
	if err != nil {
		t.Fatal(err)
	}
	wantMS := map[string]float64{
		"mpi": 290, "tcp": 920, "sim": 550, "guest": 1200, "netsim": 310,
		"payload": 250, "hpcc": 70, "runtime_gc": 410, "other": 80, "vm": 10,
	}
	const totalMS = 4090
	if samples != 374 {
		t.Errorf("read %d samples, want 374", samples)
	}
	sum := 0.0
	for _, b := range cpuBuckets {
		sum += shares[b]
		if got := shares[b] * totalMS; math.Abs(got-wantMS[b]) > 1e-6 {
			t.Errorf("bucket %s: %.3f ms, want %v", b, got, wantMS[b])
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v", sum)
	}
	for b := range shares {
		if !contains(cpuBuckets, b) {
			t.Errorf("unexpected bucket %q", b)
		}
	}
	if _, _, err := profileShares(data, "alloc_objects"); err == nil {
		t.Error("a CPU profile yielded alloc_objects shares")
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{
		{0x1f, 0x8b, 0x00},                   // truncated gzip
		{0x12, 0x05, 0x01},                   // length beyond the buffer
		{0x0b},                               // unsupported wire type 3
		{0x08, 0xff, 0xff},                   // unterminated varint
		{0x32, 0x00, 0x0a, 0x02, 0x08, 0x05}, // sample type names a missing string
	} {
		if _, _, err := profileShares(data, "cpu"); err == nil {
			t.Errorf("profileShares(%x) succeeded, want an error", data)
		}
	}
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}
