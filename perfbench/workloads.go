package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"

	"dvc/internal/core"
	"dvc/internal/experiments"
	"dvc/internal/netsim"
	"dvc/internal/obs"
	"dvc/internal/phys"
	"dvc/internal/rm"
	"dvc/internal/sim"
	"dvc/internal/storage"
	"dvc/internal/vm"
	"dvc/internal/workload"
)

// batch is the state one closed batch of a workload runs with.
type batch struct {
	rec    *recorder
	traced bool // attach an obs tracer to the layers that take one

	// digest covers every simulated output of the batch: two batches of
	// one seed must produce the same sum.
	digest hash.Hash64
	out    simOut
	counts map[string]float64 // per-layer counts, read after each scenario

	peakLive uint64 // highest HeapAlloc after a GC at a phase boundary
}

func newBatch(rec *recorder, traced bool) *batch {
	return &batch{rec: rec, traced: traced, digest: fnv.New64a(), counts: map[string]float64{}}
}

// simOut collects the simulated quantities a batch produces. They are a
// pure function of the seed; only a model change can move them.
type simOut struct {
	skewMax     float64 // worst LSC save skew, sim s
	downtimeP50 float64 // LSC downtime median, from the traced registry
	downtimeN   int
	epochMB     float64 // MiB shipped to storage, summed over epochs
	epochs      int     // committed epochs behind epochMB
	makespan    float64 // rm: sim s
	wasted      float64 // rm: sim node-s
}

// mix folds values into the batch digest.
func (b *batch) mix(vals ...float64) {
	var buf [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		b.digest.Write(buf[:])
	}
}

// add accumulates a per-layer count.
func (b *batch) add(name string, v float64) { b.counts[name] += v }

// gcPeak forces a collection at a phase boundary, outside any timed span,
// and records the live heap it leaves. Traced batches skip it, so forced
// collections do not inflate the profile's GC share.
func (b *batch) gcPeak() {
	if b.traced {
		return
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > b.peakLive {
		b.peakLive = ms.HeapAlloc
	}
}

// tracer returns a count-only tracer when the batch is traced: the
// registry fills, records are counted and dropped.
func (b *batch) tracer() *obs.Tracer {
	if !b.traced {
		return nil
	}
	return obs.NewTracerWithSink(&countSink{b: b})
}

// countSink counts trace records without keeping them.
type countSink struct{ b *batch }

func (s *countSink) WriteRecord(*obs.Record) error { s.b.counts["obs.records"]++; return nil }
func (s *countSink) Flush() error                  { return nil }

// registryCounts adds the obs registry counters that have no public
// getter to the batch's per-layer counts.
func (b *batch) registryCounts(tr *obs.Tracer) {
	if tr == nil {
		return
	}
	reg := tr.Registry()
	for name, key := range map[string]string{
		"tcp.retransmits": "tcp.retransmits",
		"tcp.resets":      "tcp.resets",
		"vm.saves":        "vm.saves",
		"vm.restores":     "vm.restores",
		"lsc.attempts":    "lsc.attempts",
		"lsc.commits":     "lsc.commits",
		"lsc.aborts":      "lsc.aborts",
		"store.gc_chunks": "store.gc.chunks",
		"rm.completed":    "rm.completed",
		"rm.requeues":     "rm.requeues",
	} {
		b.add(name, reg.Counter(key))
	}
}

// fabricCounts adds a fabric's traffic counters.
func (b *batch) fabricCounts(f *netsim.Fabric) {
	st := f.Stats()
	b.add("netsim.sent", float64(st.Sent))
	b.add("netsim.delivered", float64(st.Delivered))
	b.add("netsim.dropped_down", float64(st.DroppedDown))
	b.add("netsim.mb", float64(st.Bytes)/(1<<20))
	b.mix(float64(st.Sent), float64(st.Delivered), float64(st.DroppedDown), float64(st.Bytes))
}

// sizes scales each workload. defaultSizes is what the benchmark runs;
// tests use tinySizes.
type sizes struct {
	// rm_faults
	RMClusters, RMHosts, RMJobs int
	RMWidths                    []int
	RMWorkMin, RMWorkMax        sim.Time
	RMArrivalMean, RMMTBF       sim.Time
	// pscale2600
	PScale experiments.ScaleSpec
	PRuns  int
}

var defaultSizes = sizes{
	RMClusters: 4, RMHosts: 26, RMJobs: 150, RMWidths: []int{2, 4, 8, 16},
	RMWorkMin: 4 * sim.Minute, RMWorkMax: 14 * sim.Minute,
	RMArrivalMean: 45 * sim.Second, RMMTBF: 8 * sim.Hour,
	PScale: experiments.ScaleSpec{DCs: 10, ClustersPerDC: 10, HostsPerCluster: 26},
	PRuns:  3,
}

var tinySizes = sizes{
	RMClusters: 1, RMHosts: 8, RMJobs: 6, RMWidths: []int{2, 4},
	RMWorkMin: 1 * sim.Minute, RMWorkMax: 3 * sim.Minute,
	RMArrivalMean: 20 * sim.Second, RMMTBF: 2 * sim.Hour,
	PScale: experiments.ScaleSpec{DCs: 2, ClustersPerDC: 1, HostsPerCluster: 8, VMs: 4},
	PRuns:  1,
}

// workloads maps each workload name to its batch function.
var workloads = map[string]func(b *batch, seed int64, sz sizes){
	"rm_faults":  runRMFaults,
	"pscale2600": runPScale,
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"rm_faults", "pscale2600"}

// ---------------------------------------------------------------- rm_faults

// rmStep is the simulated length of one step of the RM loop.
const rmStep = 30 * sim.Second

// jobMix builds the rm_faults job trace from the seed. Widths cycle
// through sz.RMWidths and work sizes are stratified over
// [RMWorkMin, RMWorkMax], both in a seeded order, with exponential
// arrivals: the seed changes which job is which and when it arrives, not
// the total work, so host figures stay comparable across seeds.
func jobMix(seed int64, sz sizes) []workload.JobSpec {
	rng := rand.New(rand.NewSource(seed))
	n := sz.RMJobs
	widthOrder := rng.Perm(n)
	workOrder := rng.Perm(n)
	span := float64(sz.RMWorkMax - sz.RMWorkMin)
	jobs := make([]workload.JobSpec, n)
	var at sim.Time
	for i := range jobs {
		at += sim.Exp(rng, sz.RMArrivalMean)
		work := sz.RMWorkMin + sim.Time(span*(float64(workOrder[i])+rng.Float64())/float64(n))
		jobs[i] = workload.JobSpec{
			ID:      fmt.Sprintf("job%04d", i),
			Width:   sz.RMWidths[widthOrder[i]%len(sz.RMWidths)],
			Work:    work,
			Arrival: at,
		}
	}
	return jobs
}

// rmBed is the rm_faults environment: RMClusters x RMHosts gigabit nodes,
// delta LSC epochs (checkpoint-and-continue) every two simulated minutes,
// the DVC-backend resource manager with the job mix submitted, and the
// fault injector armed.
type rmBed struct {
	k     *sim.Kernel
	site  *phys.Site
	store *storage.Store
	co    *core.Coordinator
	r     *rm.RM
	inj   *phys.Injector
	jobs  []workload.JobSpec
}

// buildRM builds the rm_faults bed: the workload's set-up.
func buildRM(rec *recorder, trace int, root *open, seed int64, sz sizes, tr *obs.Tracer) *rmBed {
	setup := rec.begin("setup", kindSetup, trace, root, nil)
	defer setup.end()
	k := sim.NewKernel(seed)
	site := phys.DefaultSite(k)
	for _, name := range []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}[:sz.RMClusters] {
		site.AddCluster(name, sz.RMHosts, phys.DefaultSpec(), netsim.EthernetGigE())
	}
	site.NTP.Start()
	store := storage.New(k, storage.DefaultConfig())
	mgr := core.NewManager(k, site, store, vm.DefaultXenConfig())
	lsc := core.DefaultNTPLSC()
	lsc.Delta = true
	lsc.ContinueAfterSave = true
	co := core.NewCoordinator(mgr, lsc)
	cfg := rm.DefaultConfig(rm.DVC)
	cfg.MaxRequeues = 50
	r := rm.New(k, site, mgr, co, cfg)
	if tr != nil {
		mgr.SetTracer(tr)
		r.SetTracer(tr)
	}
	jobs := jobMix(seed, sz)
	r.SubmitTrace(jobs)
	r.Start()
	inj := phys.NewInjector(k, phys.InjectorConfig{MTBF: sz.RMMTBF, RepairTime: 10 * sim.Minute})
	inj.Start(site.Nodes())
	return &rmBed{k: k, site: site, store: store, co: co, r: r, inj: inj, jobs: jobs}
}

// runRMFaults runs the job mix to completion in rmStep steps under node
// faults with repair; crashed jobs recover through RestoreVC. Every job
// must end Completed; LSC aborts caused by crashes are model outcomes.
func runRMFaults(b *batch, seed int64, sz sizes) {
	rec := b.rec
	trace := rec.newTrace()
	root := rec.begin("rm_run", kindRoot, trace, nil, nil)
	defer root.end()
	tr := b.tracer()
	bed := buildRM(rec, trace, root, seed, sz, tr)
	k, r, inj, co, store := bed.k, bed.r, bed.inj, bed.co, bed.store
	b.gcPeak()

	deadline := 48 * sim.Hour
	for !r.AllDone() && k.Now() < deadline {
		step := rec.begin(phaseRMStep, kindTimed, trace, root, k)
		k.RunFor(rmStep)
		step.end()
	}
	inj.Stop()
	b.gcPeak()
	runtime.KeepAlive(bed)

	completed := 0
	for _, j := range r.Jobs() {
		ok := j.State == rm.Completed
		rec.op(ok)
		if ok {
			completed++
		}
	}
	for i := len(r.Jobs()); i < len(bed.jobs); i++ {
		rec.op(false) // a submitted job the RM lost track of
	}
	st := r.Stats()
	b.out.makespan += st.Makespan.Seconds()
	b.out.wasted += st.TotalWasted.Seconds()
	if tr != nil {
		reg := tr.Registry()
		// Epoch outcomes stay inside the RM; the traced run reads them
		// from the registry the coordinator and store fill.
		if h := reg.Histogram("lsc.downtime_ms"); h != nil && h.N() > 0 {
			b.out.downtimeP50, b.out.downtimeN = h.Percentile(50)/1e3, h.N()
		}
		if h := reg.Histogram("lsc.save_skew_ms"); h != nil && h.N() > 0 {
			b.out.skewMax = h.Max() / 1e3
		}
		if commits := reg.Counter("lsc.commits"); commits > 0 {
			sent := reg.Counter("store.delta.sent_bytes") / (1 << 20)
			b.out.epochMB, b.out.epochs = sent, int(commits)
			b.add("store.sent_mb", sent)
			b.add("store.logical_mb", reg.Counter("store.delta.logical_bytes")/(1<<20))
		}
	}
	b.mix(float64(k.Fired()), float64(k.Now()), float64(completed), float64(st.Makespan),
		float64(st.TotalWasted), float64(st.TotalWaited), float64(st.BusyNodeTime),
		float64(inj.Crashes()), float64(co.AttemptCount), float64(co.FailCount),
		float64(store.UniqueBytes()), float64(store.TotalBytes()))
	b.add("sim.events", float64(k.Fired()))
	b.add("phys.crashes", float64(inj.Crashes()))
	b.add("store.unique_mb", float64(store.UniqueBytes())/(1<<20))
	b.fabricCounts(bed.site.Fabric)
	b.registryCounts(tr)
}

// ---------------------------------------------------------------- pscale2600

// pscaleWorkers bounds the partitioned engine's concurrent sub-kernels by
// the host's CPUs, at most two.
func pscaleWorkers() int { return min(2, runtime.NumCPU()) }

// runPScale runs sz.PRuns partitioned scale runs of sz.PScale: one
// sub-kernel per datacenter, each running the 8-VM E2-shaped job with one
// LSC epoch, and monitors pinging across datacenters. Set-up is a
// standalone phys.BuildTopoZones pass over the same spec, since the run
// builds its own topology inside the timed call.
func runPScale(b *batch, seed int64, sz sizes) {
	rec := b.rec
	for i := 0; i < sz.PRuns; i++ {
		runSeed := seed*1_000 + int64(i)
		trace := rec.newTrace()
		root := rec.begin("pscale_run", kindRoot, trace, nil, nil)

		err := buildZones(rec, trace, root, runSeed, sz.PScale, b.gcPeak)
		run := rec.begin(phasePartition, kindTimed, trace, root, nil)
		var res *experiments.PScaleResult
		if err == nil {
			res, err = experiments.RunScalePartitioned(runSeed, sz.PScale, pscaleWorkers(), nil)
		}
		var events uint64
		var simS float64
		if res != nil {
			events, simS = res.Events, res.SimTime.Seconds()
		}
		run.endWith(events, simS)
		rec.op(err == nil && res.OK())
		root.end()
		if res == nil {
			continue
		}
		b.out.skewMax = max(b.out.skewMax, res.SaveSkew.Seconds())
		b.mix(float64(res.Events), float64(res.Pings), float64(res.NetForwarded),
			float64(res.SaveSkew), float64(res.SimTime), float64(res.Stats.Forwarded))
		b.add("sim.events", float64(res.Events))
		b.add("partition.barriers", float64(res.Stats.Barriers))
		b.add("partition.gate_waits", float64(res.Stats.GateWaits))
		b.add("partition.forwarded", float64(res.Stats.Forwarded))
	}
}

// buildZones is the pscale2600 set-up: a standalone pass of
// phys.BuildTopoZones over every datacenter of spec, as the partitioned
// run does for each of its sub-kernels. atPeak runs while every zone is
// still held.
func buildZones(rec *recorder, trace int, root *open, seed int64, spec experiments.ScaleSpec, atPeak func()) error {
	setup := rec.begin("setup", kindSetup, trace, root, nil)
	sites := make([]*phys.Site, spec.DCs)
	var err error
	for d := range sites {
		sites[d] = phys.DefaultSite(sim.NewKernel(seed))
		if _, e := phys.BuildTopoZones(sites[d], spec.Topo(), d); e != nil && err == nil {
			err = e
		}
	}
	setup.end()
	if atPeak != nil {
		atPeak()
	}
	runtime.KeepAlive(sites)
	return err
}

// setups maps each workload to its set-up alone, which measureSetup repeats
// to measure setup_s.
var setups = map[string]func(rec *recorder, seed int64, sz sizes){
	"rm_faults": func(rec *recorder, seed int64, sz sizes) {
		buildRM(rec, 0, nil, seed, sz, nil)
	},
	"pscale2600": func(rec *recorder, seed int64, sz sizes) {
		buildZones(rec, 0, nil, seed*1_000, sz.PScale, nil)
	},
}
