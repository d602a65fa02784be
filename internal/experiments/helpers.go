package experiments

import (
	"fmt"

	"dvc/internal/clock"
	"dvc/internal/core"
	"dvc/internal/guest"
	"dvc/internal/hpcc"
	"dvc/internal/mpi"
	"dvc/internal/netsim"
	"dvc/internal/obs"
	"dvc/internal/phys"
	"dvc/internal/rm"
	"dvc/internal/sim"
	"dvc/internal/storage"
	"dvc/internal/tcp"
	"dvc/internal/vm"
)

// Experiment-wide hardware constants (documented in EXPERIMENTS.md).
const (
	vmRAM      = 256 << 20 // 2007-era HPC guest size
	guestFlops = 10.0      // GFlops per node
)

// bed is the common experiment test environment: one or more Ethernet
// clusters, NTP-disciplined clocks, DVC with an LSC coordinator.
type bed struct {
	k     *sim.Kernel
	site  *phys.Site
	store *storage.Store
	mgr   *core.Manager
	co    *core.Coordinator
}

// bedOptions customises makeBed beyond the common defaults.
type bedOptions struct {
	clusters map[string]int
	// topo generates a multi-datacenter topology into the site after the
	// named clusters (phys.BuildTopo or, for one partition,
	// phys.BuildTopoZones); nil = none.
	topo    func(*phys.Site)
	lsc     core.LSCConfig
	ntp     bool                // start the NTP daemon
	ntpCfg  *clock.NTPConfig    // nil = LAN defaults
	tcpCfg  *tcp.Config         // nil = default transport
	profile *netsim.LinkProfile // nil = gigabit Ethernet
	tracer  *obs.Tracer         // nil = tracing off
}

// probeInterval is the kernel probe's sampling period on traced beds.
const probeInterval = 500 * sim.Millisecond

// makeBed builds the environment: kernel, site and clusters, NTP, store,
// manager, tracer and coordinator, in that order. Named clusters are
// created in a fixed name order for determinism.
func makeBed(seed int64, o bedOptions) *bed {
	k := sim.NewKernel(seed)
	ntpCfg := clock.DefaultNTPConfig()
	if o.ntpCfg != nil {
		ntpCfg = *o.ntpCfg
	}
	site := phys.NewSite(k, clock.DefaultConfig(), ntpCfg)
	profile := netsim.EthernetGigE()
	if o.profile != nil {
		profile = *o.profile
	}
	for _, name := range []string{"alpha", "beta", "gamma", "delta"} {
		if n, ok := o.clusters[name]; ok {
			site.AddCluster(name, n, phys.DefaultSpec(), profile)
		}
	}
	if o.topo != nil {
		o.topo(site)
	}
	if o.ntp {
		site.NTP.Start()
	}
	store := storage.New(k, storage.DefaultConfig())
	mgr := core.NewManager(k, site, store, vm.DefaultXenConfig())
	if o.tcpCfg != nil {
		mgr.SetTCPConfig(*o.tcpCfg)
	}
	b := &bed{k: k, site: site, store: store, mgr: mgr, co: core.NewCoordinator(mgr, o.lsc)}
	if o.tracer != nil {
		b.trace(o.tracer)
	}
	return b
}

// trace attaches tr to every layer and starts the kernel probe. The
// probe schedules ordinary events, so traced and untraced runs have
// different schedules — but any two traced runs are identical.
func (b *bed) trace(tr *obs.Tracer) {
	b.mgr.SetTracer(tr)
	obs.StartKernelProbe(b.k, tr, probeInterval)
}

// wanTopo generates two datacenters joined by the WAN profile (2.5 ms,
// 100 MB/s), one cluster of hostsPerDC gigabit hosts each, with the
// canonical cluster names dc00-c00 / dc01-c00.
func wanTopo(hostsPerDC int) func(*phys.Site) {
	return func(site *phys.Site) {
		if _, err := phys.BuildTopo(site, phys.TopoSpec{DCs: 2, ClustersPerDC: 1, HostsPerCluster: hostsPerDC}); err != nil {
			panic(err)
		}
	}
}

// newRM assembles a resource manager over site and starts it. The DVC
// backend gets its own store, manager and NTP coordinator that keeps
// each job running after a save; interval is the RM's checkpoint period
// (0 = never).
func newRM(k *sim.Kernel, site *phys.Site, backend rm.Backend, interval sim.Time) *rm.RM {
	var mgr *core.Manager
	var coord *core.Coordinator
	if backend == rm.DVC {
		store := storage.New(k, storage.DefaultConfig())
		mgr = core.NewManager(k, site, store, vm.DefaultXenConfig())
		lsc := core.DefaultNTPLSC()
		lsc.ContinueAfterSave = true
		coord = core.NewCoordinator(mgr, lsc)
	}
	cfg := rm.DefaultConfig(backend)
	cfg.CheckpointInterval = interval
	r := rm.New(k, site, mgr, coord, cfg)
	r.Start()
	return r
}

// allocate boots a VC and waits a fixed BootTime + 1 s for it.
func (b *bed) allocate(name string, nodes int, wd guest.WatchdogConfig) *core.VirtualCluster {
	vc, err := b.boot(core.VCSpec{Name: name, Nodes: nodes, VMRAM: vmRAM, Watchdog: wd})
	if err != nil {
		panic(err)
	}
	return vc
}

// boot is allocate reporting its failure instead of panicking.
func (b *bed) boot(spec core.VCSpec) (*core.VirtualCluster, error) {
	vc, err := b.mgr.Allocate(spec, nil)
	if err != nil {
		return nil, err
	}
	b.k.RunFor(vm.DefaultXenConfig().BootTime + sim.Second)
	if vc.State() != core.VCReady {
		return nil, fmt.Errorf("experiments: VC %s did not become ready", spec.Name)
	}
	return vc, nil
}

// checkpointOnce issues one checkpoint and runs until it reports
// (core.Await); nil means it never reported within limit.
func (b *bed) checkpointOnce(vc *core.VirtualCluster, limit sim.Time) *core.CheckpointResult {
	res, _, err := core.Await(b.k, limit, func(done func(*core.CheckpointResult)) error {
		return b.co.Checkpoint(vc, done)
	})
	if err != nil {
		panic(err)
	}
	return res
}

// refJob is the outcome of runRefJob.
type refJob struct {
	ckpt     *core.CheckpointResult // nil if the checkpoint never reported
	imagesOK bool                   // ckpt committed and its images are consistent
	job      core.JobStatus
}

// runRefJob drives the E2-shaped reference job on b: boot a vms-wide VC
// called name, run a 600-round halo exchange (20 ms, 4 KiB), checkpoint
// it 2 s in (10 min limit), run the job to completion (4 h limit) and
// inspect the checkpoint's images.
func (b *bed) runRefJob(name string, vms int) (refJob, error) {
	vc, err := b.boot(core.VCSpec{Name: name, Nodes: vms, VMRAM: vmRAM})
	if err != nil {
		return refJob{}, err
	}
	if _, err := vc.LaunchMPI(6000, func(int) mpi.App { return hpcc.NewHalo(600, 20*sim.Millisecond, 4096) }); err != nil {
		return refJob{}, err
	}
	b.k.RunFor(2 * sim.Second)
	r := refJob{ckpt: b.checkpointOnce(vc, 10*sim.Minute)}
	r.job = core.AwaitJob(b.k, vc, 4*sim.Hour)
	r.imagesOK = r.ckpt != nil && r.ckpt.OK && core.InspectImages(r.ckpt.Images) == nil
	return r, nil
}

// trialJob is the MPI job an lscTrial checkpoints: how to build each
// rank, how to verify each rank after the run, and how long the run may
// take.
type trialJob struct {
	app    func(rank int) mpi.App
	rankOK func(mpi.App) bool
	limit  sim.Time
}

// haloJob keeps halo traffic flowing through the longest plausible save
// window (~30 s of 20 ms rounds); a rank passes if its exchange finished.
var haloJob = trialJob{
	app: func(int) mpi.App { return hpcc.NewHalo(1500, 20*sim.Millisecond, 4096) },
	rankOK: func(app mpi.App) bool {
		h, ok := app.(*hpcc.Halo)
		return ok && h.Finished
	},
	limit: 2 * sim.Hour,
}

// lscTrialResult reports one lscTrial.
type lscTrialResult struct {
	ok        bool     // save and restore were transparent
	committed bool     // the checkpoint reported OK
	skew      sim.Time // save skew of any checkpoint that reported
	downtime  sim.Time
}

// lscTrial runs one full LSC trial on a bed built from o: boot nodes VMs,
// launch job, checkpoint ~2s in, then run the job to completion. It
// reports whether save AND restore were transparent (checkpoint OK,
// images consistent, job finished successfully, every rank verified)
// along with the measured skew. o.tracer may span many trials; each
// trial restarts virtual time and the exporters handle it. A trial is
// self-contained (own kernel, own tracer), so the fleet pool can run
// many concurrently.
func lscTrial(seed int64, nodes int, o bedOptions, job trialJob) lscTrialResult {
	b := makeBed(seed, o)
	vc := b.allocate("t", nodes, guest.WatchdogConfig{})
	vc.LaunchMPI(6000, job.app)
	b.k.RunFor(2 * sim.Second)
	res := b.checkpointOnce(vc, 10*sim.Minute)
	if res == nil {
		return lscTrialResult{}
	}
	out := lscTrialResult{committed: res.OK, skew: res.SaveSkew, downtime: res.Downtime}
	if !res.OK || core.InspectImages(res.Images) != nil || !core.AwaitJob(b.k, vc, job.limit).AllOK() {
		return out
	}
	for _, app := range vc.RankApps() {
		if !job.rankOK(app) {
			return out
		}
	}
	out.ok = true
	return out
}

// pct returns 100*a/b guarded against b==0.
func pct(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}
