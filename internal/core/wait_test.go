package core

import (
	"errors"
	"testing"

	"dvc/internal/guest"
	"dvc/internal/hpcc"
	"dvc/internal/mpi"
	"dvc/internal/sim"
)

// TestAwaitStopsAtReportInstant: a checkpoint that reports returns with
// the kernel standing at the report instant, not a poll boundary.
func TestAwaitStopsAtReportInstant(t *testing.T) {
	tb := newTestbed(t, 3, map[string]int{"alpha": 4}, DefaultNTPLSC())
	vc := tb.allocate(t, "await", 4, guest.WatchdogConfig{})
	vc.LaunchMPI(6000, func(int) mpi.App { return hpcc.NewHalo(1500, 20*sim.Millisecond, 4096) })
	tb.k.RunFor(2 * sim.Second)
	res, ok, err := Await(tb.k, sim.Hour, func(done func(*CheckpointResult)) error {
		return tb.co.Checkpoint(vc, done)
	})
	if err != nil || !ok {
		t.Fatalf("Await = ok %v, err %v; want a report", ok, err)
	}
	if !res.OK {
		t.Fatalf("checkpoint failed: %s", res.Reason)
	}
	if now := tb.k.Now(); now != res.FinishedAt {
		t.Fatalf("Await returned at %v, checkpoint finished at %v", now, res.FinishedAt)
	}
}

// TestAwaitTimesOutAtDeadline: an operation that never reports times out
// with the kernel exactly at the deadline, even with events queued past
// it; a start error returns at once without running the kernel.
func TestAwaitTimesOutAtDeadline(t *testing.T) {
	k := sim.NewKernel(1)
	fired := 0
	for _, at := range []sim.Time{sim.Second, 3 * sim.Second, 9 * sim.Second} {
		k.At(at, func() { fired++ })
	}
	start := k.Now()
	res, ok, err := Await(k, 5*sim.Second, func(func(int)) error { return nil })
	if err != nil || ok || res != 0 {
		t.Fatalf("Await = (%d, %v, %v), want a timeout", res, ok, err)
	}
	if k.Now() != start+5*sim.Second {
		t.Fatalf("timed out at %v, want %v", k.Now(), start+5*sim.Second)
	}
	if fired != 2 {
		t.Fatalf("%d events fired before the deadline, want 2", fired)
	}

	boom := errors.New("boom")
	before := k.Now()
	if _, ok, err := Await(k, sim.Hour, func(func(int)) error { return boom }); err != boom || ok {
		t.Fatalf("Await = ok %v, err %v; want the start error", ok, err)
	}
	if k.Now() != before {
		t.Fatalf("a failed start advanced the kernel from %v to %v", before, k.Now())
	}
}

// TestAwaitJobDisarmsExitHook: AwaitJob stops early when the job ends,
// and leaves no exit hook armed on either return path — after a timeout,
// later process exits must not halt an unrelated run.
func TestAwaitJobDisarmsExitHook(t *testing.T) {
	tb := newTestbed(t, 4, map[string]int{"alpha": 4}, DefaultNTPLSC())
	vc := tb.allocate(t, "job", 4, guest.WatchdogConfig{})
	vc.LaunchMPI(6000, func(int) mpi.App { return hpcc.NewHalo(100, 20*sim.Millisecond, 1024) })

	start := tb.k.Now()
	if js := AwaitJob(tb.k, vc, 100*sim.Millisecond); js.Done() {
		t.Fatalf("job done after 100 ms: %+v", js)
	}
	if tb.k.Now() != start+100*sim.Millisecond {
		t.Fatalf("AwaitJob timed out at %v, want %v", tb.k.Now(), start+100*sim.Millisecond)
	}
	deadline := tb.k.Now() + sim.Minute
	tb.k.RunUntil(deadline)
	if tb.k.Halted() || tb.k.Now() != deadline {
		t.Fatalf("a process exit halted the kernel at %v after AwaitJob returned", tb.k.Now())
	}
	if !vc.JobStatus().AllOK() {
		t.Fatalf("job did not finish: %+v", vc.JobStatus())
	}

	vc2 := tb.allocate(t, "job2", 4, guest.WatchdogConfig{})
	vc2.LaunchMPI(6000, func(int) mpi.App { return hpcc.NewHalo(100, 20*sim.Millisecond, 1024) })
	limit := tb.k.Now() + sim.Hour
	if js := AwaitJob(tb.k, vc2, sim.Hour); !js.AllOK() {
		t.Fatalf("job failed: %+v", js)
	}
	if tb.k.Now() >= limit {
		t.Fatalf("AwaitJob ran to its limit instead of stopping when the job ended")
	}
	deadline = tb.k.Now() + sim.Minute
	tb.k.RunUntil(deadline)
	if tb.k.Halted() || tb.k.Now() != deadline {
		t.Fatalf("kernel halted at %v after the job was done", tb.k.Now())
	}
}
