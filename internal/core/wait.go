package core

import "dvc/internal/sim"

// Await starts an asynchronous DVC operation and runs the kernel until
// the operation reports or limit elapses. start receives the completion
// callback to hand to the operation (Coordinator.Checkpoint, Migrate,
// LiveMigrate, RestoreVC, Manager.Allocate's onReady); an operation that
// cannot fail simply returns nil. The callback halts the kernel, so the
// wait stops at the exact report instant instead of the next poll
// boundary. ok is false when the operation never reported: the kernel
// then stands exactly at the deadline. A start error is returned as is,
// without running the kernel.
func Await[R any](k *sim.Kernel, limit sim.Time, start func(done func(R)) error) (res R, ok bool, err error) {
	if err := start(func(r R) { res, ok = r, true; k.Halt() }); err != nil {
		return res, false, err
	}
	deadline := k.Now() + limit
	for !ok && k.Now() < deadline {
		k.RunUntil(deadline)
	}
	return res, ok, nil
}

// AwaitJob runs the kernel until the VC's job is done (every process
// exited and the VC is ready) or limit elapses, and returns the job's
// status. The wait is event-driven: every guest process exit halts the
// kernel, so the loop re-checks its predicate only when something
// actually finished. Stopping at the exact completion instant (rather
// than the next poll boundary) also means the kernel fires no
// post-completion timer or NTP events. No exit hook stays armed after
// it returns.
func AwaitJob(k *sim.Kernel, vc *VirtualCluster, limit sim.Time) JobStatus {
	deadline := k.Now() + limit
	// arm installs (or clears, fn == nil) the exit hook on every live
	// guest OS of the VC.
	arm := func(fn func()) {
		for _, os := range vc.OSes() {
			if os != nil {
				os.SetExitNotify(fn)
			}
		}
	}
	defer arm(nil)
	for {
		js := vc.JobStatus()
		if js.Done() && vc.State() == VCReady {
			return js
		}
		if k.Now() >= deadline {
			return vc.JobStatus()
		}
		// Re-arm each pass: a restore mid-wait replaces the guest OSes,
		// and arming is idempotent on the ones already hooked.
		arm(k.Halt)
		k.RunUntil(deadline)
	}
}
