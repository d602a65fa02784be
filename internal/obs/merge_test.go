package obs

import (
	"bytes"
	"fmt"
	"testing"

	"dvc/internal/sim"
)

// TestMergeMatchesSerialEmission: recording each partition's events into
// a private child and merging by (TS, child index, child seq) must
// produce the exact bytes of one tracer emitting the same global
// schedule directly — the property that keeps partitioned traces
// byte-identical to the serial engine's.
func TestMergeMatchesSerialEmission(t *testing.T) {
	parent := NewTracer()
	c0, c1, c2 := parent.Child(), parent.Child(), parent.Child()

	// Partition schedules, with a timestamp tie at t=10 (c0 before c1 by
	// partition index) and spans that interleave across partitions.
	c0.Emit(10, EvVMBoot, "p0-n0", "vm0", "boot")
	s0 := c0.Begin(20, EvLSCEpoch, "", "p0", "epoch")
	c0.Counter(35, EvSimProbe, "p0-n0", "", "queue", 3)
	c0.End(40, s0, Str("outcome", "commit"))
	c0.Inc("events", 4)
	c0.Gauge("last_partition", 0)

	c1.Emit(10, EvVMBoot, "p1-n0", "vm0", "boot")
	s1 := c1.Begin(15, EvLSCStore, "", "p1", "store")
	c1.End(30, s1, Str("outcome", "ok"))
	c1.Inc("events", 3)
	c1.Gauge("last_partition", 1)

	c2.Emit(25, EvVMDestroy, "p2-n0", "vm0", "destroy")
	c2.Inc("events", 1)
	c2.Gauge("last_partition", 2)

	parent.Merge(c0, c1, c2)

	// The same global schedule emitted serially, in (TS, partition) order.
	serial := NewTracer()
	serial.Emit(10, EvVMBoot, "p0-n0", "vm0", "boot")
	serial.Emit(10, EvVMBoot, "p1-n0", "vm0", "boot")
	t1 := serial.Begin(15, EvLSCStore, "", "p1", "store")
	t0 := serial.Begin(20, EvLSCEpoch, "", "p0", "epoch")
	serial.Emit(25, EvVMDestroy, "p2-n0", "vm0", "destroy")
	serial.End(30, t1, Str("outcome", "ok"))
	serial.Counter(35, EvSimProbe, "p0-n0", "", "queue", 3)
	serial.End(40, t0, Str("outcome", "commit"))

	var a, b bytes.Buffer
	if err := serial.WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := parent.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("merged trace differs from serial emission:\nserial:\n%s\nmerged:\n%s", a.String(), b.String())
	}

	// Seqs dense from 0, span references intact across the interleave.
	recs := parent.Records()
	for i, r := range recs {
		if r.Seq != uint64(i) {
			t.Fatalf("record %d has seq %d (seqs must be re-assigned densely)", i, r.Seq)
		}
		if r.Ph == PhaseBegin && r.Span != r.Seq {
			t.Fatalf("begin record %d has span %d, want self-reference", i, r.Span)
		}
		if r.Ph == PhaseEnd {
			begin := recs[r.Span]
			if begin.Ph != PhaseBegin || begin.Type != r.Type || begin.Name != r.Name {
				t.Fatalf("end record %d references seq %d which is not its begin", i, r.Span)
			}
		}
	}

	// Registry merges in partition order: counters add, gauges
	// last-write-wins on partition index.
	if got := parent.Registry().Counter("events"); got != 8 {
		t.Errorf("counter merge: got %v, want 8", got)
	}
	if got := parent.Registry().GaugeValue("last_partition"); got != 2 {
		t.Errorf("gauge merge is not last-write-wins in partition order: got %v", got)
	}
}

// TestMergeDeterministic: merging the same children (same argument
// order) into fresh parents yields identical bytes — the merge depends
// only on (TS, partition index, partition seq), never on anything
// runtime-dependent.
func TestMergeDeterministic(t *testing.T) {
	build := func() []*Tracer {
		c0, c1 := NewTracer(), NewTracer()
		c0.Emit(5, EvVMBoot, "a", "vm0", "boot")
		s := c1.Begin(5, EvLSCEpoch, "", "t", "epoch")
		c1.End(9, s)
		c0.Emit(9, EvVMDestroy, "a", "vm0", "destroy")
		return []*Tracer{c0, c1}
	}
	var out [2]bytes.Buffer
	for i := range out {
		p := NewTracer()
		p.Merge(build()...)
		if err := p.WriteJSONL(&out[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(out[0].Bytes(), out[1].Bytes()) {
		t.Fatalf("repeated merges diverge:\n%s\nvs\n%s", out[0].String(), out[1].String())
	}
}

// TestMergeNilSafety: nil parents, nil children and the Child of a nil
// parent are all inert, so untraced runs never allocate.
func TestMergeNilSafety(t *testing.T) {
	var nilT *Tracer
	if nilT.Child() != nil {
		t.Fatal("nil.Child() must be nil")
	}
	nilT.Merge(NewTracer()) // must not panic

	parent := NewTracer()
	c := parent.Child()
	c.Emit(1, EvVMBoot, "n0", "vm0", "boot")
	parent.Merge(nil, c, nil)
	if parent.Len() != 1 {
		t.Fatalf("merge with nil children recorded %d, want 1", parent.Len())
	}
}

// TestMergeRejectsStreamingChild: children must be memory-backed — a
// streaming child has already shipped its records and cannot be merged.
func TestMergeRejectsStreamingChild(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Merge accepted a non-memory-backed child")
		}
	}()
	var buf bytes.Buffer
	NewTracer().Merge(NewTracerWithSink(NewJSONLSink(&buf, 0)))
}

// emitTrial records a representative per-trial event mix (instants, a
// nested span pair, counters, registry updates) onto tr.
func emitTrial(tr *Tracer, trial int) {
	base := sim.Time(trial) * sim.Second
	node := fmt.Sprintf("n%d", trial)
	tr.Emit(base, EvVMBoot, node, "vm0", "boot", Int("trial", int64(trial)))
	outer := tr.Begin(base+1, EvLSCEpoch, "", "t", "epoch", Int("gen", 0))
	inner := tr.Begin(base+2, EvLSCStore, "", "t", "store")
	tr.Counter(base+3, EvSimProbe, node, "", "queue", float64(trial))
	tr.End(base+4, inner, Str("outcome", "ok"))
	tr.End(base+5, outer, Str("outcome", "commit"))
	tr.Inc("trials", 1)
	tr.Gauge("last_trial", float64(trial))
	tr.Observe("skew_ms", float64(trial)*0.5)
}

// TestMergePerChildMatchesSerialEmission: recording N trials into
// per-trial child tracers and merging them back one child per call, in
// trial order, must produce the exact bytes (JSONL) and registry
// snapshot of recording the same trials sequentially into one tracer —
// the property that keeps parallel trial execution byte-identical to
// the serial loop.
func TestMergePerChildMatchesSerialEmission(t *testing.T) {
	const trials = 5

	serial := NewTracer()
	for i := 0; i < trials; i++ {
		emitTrial(serial, i)
	}

	parent := NewTracer()
	children := make([]*Tracer, trials)
	for i := 0; i < trials; i++ {
		children[i] = parent.Child()
		emitTrial(children[i], i)
	}
	for _, c := range children {
		parent.Merge(c)
	}

	var a, b bytes.Buffer
	if err := serial.WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := parent.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("merged trace differs from serial emission:\nserial:\n%s\nmerged:\n%s", a.String(), b.String())
	}

	// Seqs must be dense from 0 and span references intact.
	for i, r := range parent.Records() {
		if r.Seq != uint64(i) {
			t.Fatalf("record %d has seq %d (seqs must be re-assigned densely)", i, r.Seq)
		}
		if r.Ph == PhaseBegin && r.Span != r.Seq {
			t.Fatalf("begin record %d has span %d, want self-reference", i, r.Span)
		}
		if r.Ph == PhaseEnd {
			begin := parent.Records()[r.Span]
			if begin.Ph != PhaseBegin || begin.Type != r.Type || begin.Name != r.Name {
				t.Fatalf("end record %d references seq %d which is not its begin", i, r.Span)
			}
		}
	}

	// Registry: counters added, gauges last-write-wins, histograms merged.
	sa, sb := serial.Registry().Snapshot(), parent.Registry().Snapshot()
	if fmt.Sprint(sa) != fmt.Sprint(sb) {
		t.Fatalf("registry snapshots diverge:\nserial: %v\nmerged: %v", sa, sb)
	}
	if got := parent.Registry().Counter("trials"); got != trials {
		t.Errorf("counter merge: got %v, want %d", got, trials)
	}
	if got := parent.Registry().GaugeValue("last_trial"); got != trials-1 {
		t.Errorf("gauge merge is not last-write-wins: got %v", got)
	}
	if got := parent.Registry().Histogram("skew_ms").N(); got != trials {
		t.Errorf("histogram merge: got %d observations, want %d", got, trials)
	}
}

// TestMergeInterleavedWithDirectEmission: records emitted directly on
// the parent before and after a merge keep a single dense seq space.
func TestMergeInterleavedWithDirectEmission(t *testing.T) {
	parent := NewTracer()
	parent.Emit(0, EvVMBoot, "n0", "vm0", "boot")
	c := parent.Child()
	emitTrial(c, 1)
	parent.Merge(c)
	parent.Emit(sim.Hour, EvVMDestroy, "n0", "vm0", "destroy")
	for i, r := range parent.Records() {
		if r.Seq != uint64(i) {
			t.Fatalf("record %d has seq %d", i, r.Seq)
		}
	}
	if got := parent.Len(); got != c.Len()+2 {
		t.Fatalf("parent has %d records, want %d", got, c.Len()+2)
	}
}

// TestMergeIntoStreamingParent: children merged one per call into a
// streaming parent stream out the serial bytes, and their registries
// still merge.
func TestMergeIntoStreamingParent(t *testing.T) {
	// Serial reference: everything emitted on one memory tracer.
	serial := NewTracer()
	emitFixture(serial)
	emitFixture(serial)
	var want bytes.Buffer
	if err := serial.WriteJSONL(&want); err != nil {
		t.Fatal(err)
	}

	// Streaming parent; two children merged in order.
	var got bytes.Buffer
	parent := NewTracerWithSink(NewJSONLSink(&got, 128))
	c1, c2 := parent.Child(), parent.Child()
	emitFixture(c1)
	emitFixture(c2)
	parent.Merge(c1)
	parent.Merge(c2)
	if err := parent.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("merged streaming output differs from serial:\n got: %s\nwant: %s", got.Bytes(), want.Bytes())
	}
	if parent.Registry().Counter("lsc.commits") != 2 {
		t.Fatalf("registry merge lost counts: %v", parent.Registry().Counter("lsc.commits"))
	}
}
