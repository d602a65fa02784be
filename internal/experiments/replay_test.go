package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"testing"

	"dvc/internal/core"
	"dvc/internal/guest"
	"dvc/internal/obs"
)

// These tests are the executable form of the kernel's core promise
// ("reproducible bit for bit", internal/sim/sim.go): run a reference
// scenario twice with the same seed and require byte-identical serialized
// metrics and identical event digests. They run as part of the default
// `go test ./...` (tier-1) and again under `go test -race ./...` in CI,
// where the race detector doubles as proof that no hidden concurrency
// has crept into the replayed path.

// replaySeed is the seed every replay and equivalence test runs E2 at
// (CLUSTER 2007).
const replaySeed = 20070917

// memo memoises one reference run per test binary, so tests that compare
// against the same reference share it. Only a reference is shared: the
// run a test compares it with is always computed fresh. A memoised value
// is read-only; a tracer that is later flushed or mutated is never put
// in one.
type memo[T any] struct {
	once sync.Once
	v    T
	err  error
}

// get runs run on first use and returns its result ever after.
func (m *memo[T]) get(t *testing.T, run func() (T, error)) T {
	t.Helper()
	m.once.Do(func() { m.v, m.err = run() })
	if m.err != nil {
		t.Fatal(m.err)
	}
	return m.v
}

// e2MetricsDigest runs a scaled-down E2 (the paper's LSC checkpoint
// experiment) and hashes every byte the experiment serializes: tables,
// check lines, details.
func e2MetricsDigest(seed int64) (string, error) {
	var buf bytes.Buffer
	res, err := Run("E2", Options{Seed: seed, Trials: 1, Out: &buf})
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write(buf.Bytes())
	for _, c := range res.Checks {
		fmt.Fprintf(h, "check %s ok=%v detail=%s\n", c.Name, c.OK, c.Detail)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// e2MetricsRef is the first metrics digest at replaySeed.
var e2MetricsRef memo[string]

func refE2MetricsDigest(t *testing.T) string {
	t.Helper()
	return e2MetricsRef.get(t, func() (string, error) { return e2MetricsDigest(replaySeed) })
}

// lscEventDigest runs one LSC checkpoint trial directly on a bed and
// hashes the event-level trace evidence: how many kernel events fired,
// the final virtual clock, the checkpoint's timing metrics, and the
// decoded content of every captured image.
//
// Image payload *bytes* — and their encoded *lengths* — are deliberately
// not hashed. gob writes map entries in Go's randomized map order, so two
// encodings of the same guest state are content-equivalent but not
// byte-equal; and gob assigns wire type ids from a process-global counter
// in first-encode order, so even the encoded length of an image depends
// on what else the process happened to gob-encode first (running E5's
// GobSize probes before this test shifts every later type id). Nothing in
// the simulation consumes either: transfer time uses the modelled sizes
// (RAMBytes / PayloadBytes) and restore decodes the content. So replay
// determinism is judged on what the kernel and the restored guest can
// observe: decode each image and hash the guest state it carries.
func lscEventDigest(t *testing.T, seed int64) string {
	t.Helper()
	const nodes = 8
	b := makeBed(seed, bedOptions{clusters: map[string]int{"alpha": nodes}, lsc: core.DefaultNTPLSC(), ntp: true})
	run, err := b.runRefJob("replay", nodes)
	if err != nil {
		t.Fatal(err)
	}
	res := run.ckpt
	if !run.imagesOK {
		t.Fatalf("reference checkpoint failed or its images are inconsistent: %+v", res)
	}
	if !run.job.AllOK() {
		t.Fatalf("reference job failed: %+v", run.job)
	}

	h := sha256.New()
	fmt.Fprintf(h, "fired=%d now=%d pending=%d\n", b.k.Fired(), b.k.Now(), b.k.Pending())
	fmt.Fprintf(h, "gen=%d attempts=%d skew=%d store=%d downtime=%d finished=%d\n",
		res.Generation, res.Attempts, res.SaveSkew, res.StoreTime, res.Downtime, res.FinishedAt)
	for _, img := range res.Images {
		fmt.Fprintf(h, "img domain=%s addr=%v ram=%d incremental=%v captured=%d\n",
			img.DomainName, img.Addr, img.RAMBytes, img.Pages != nil, img.CapturedAt)
		snap, err := guest.DecodeImagePayload(img.Data)
		if err != nil {
			t.Fatalf("decoding image for %s: %v", img.DomainName, err)
		}
		fmt.Fprintf(h, "  guest nextpid=%d nextfd=%d jiffies=%d fds=%d listens=%v log=%d\n",
			snap.NextPID, snap.NextFD, snap.Jiffies, len(snap.FDs), snap.Listens, len(snap.Log))
		procs := append([]guest.ProcSnapshot(nil), snap.Procs...)
		sort.Slice(procs, func(i, j int) bool { return procs[i].PID < procs[j].PID })
		for _, p := range procs {
			fmt.Fprintf(h, "  proc pid=%d exited=%v code=%d timer=%d\n",
				p.PID, p.Exited, p.ExitCode, p.TimerLeft)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSeedReplayMetricsDigest: same seed, twice, byte-identical metrics.
func TestSeedReplayMetricsDigest(t *testing.T) {
	const seed = replaySeed
	first := refE2MetricsDigest(t)
	second, err := e2MetricsDigest(seed)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatalf("E2 serialized metrics diverged between two runs with seed %d:\n  run 1: %s\n  run 2: %s",
			seed, first, second)
	}
}

// e2Trace is a traced E2 run: the JSONL trace and its digest.
type e2Trace struct {
	digest string
	raw    []byte
}

// e2TraceDigest runs the scaled-down E2 with a fresh tracer attached and
// hashes the serialized JSONL event trace.
func e2TraceDigest(seed int64) (e2Trace, error) {
	tr := obs.NewTracer()
	if _, err := Run("E2", Options{Seed: seed, Trials: 1, Tracer: tr}); err != nil {
		return e2Trace{}, err
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		return e2Trace{}, err
	}
	h := sha256.Sum256(buf.Bytes())
	return e2Trace{digest: hex.EncodeToString(h[:]), raw: buf.Bytes()}, nil
}

// e2TraceRef is the first traced run at replaySeed.
var e2TraceRef memo[e2Trace]

func refE2Trace(t *testing.T) e2Trace {
	t.Helper()
	return e2TraceRef.get(t, func() (e2Trace, error) { return e2TraceDigest(replaySeed) })
}

// freshE2Trace is e2TraceDigest failing t on error.
func freshE2Trace(t *testing.T, seed int64) e2Trace {
	t.Helper()
	r, err := e2TraceDigest(seed)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestSeedReplayTraceDigest: the full observability trace — every event
// the instrumented layers emit, in emission order, serialized to JSONL —
// must be byte-identical across two same-seed runs, and must actually
// contain the event families E2 exercises (LSC epochs, VM pause/save/
// restore, TCP retransmissions, kernel probe samples). A different seed
// must diverge, proving the trace observes the run rather than a
// constant schedule.
func TestSeedReplayTraceDigest(t *testing.T) {
	const seed = replaySeed
	ref := refE2Trace(t)
	first, raw := ref.digest, ref.raw
	second := freshE2Trace(t, seed).digest
	if first != second {
		t.Fatalf("JSONL trace diverged between two runs with seed %d:\n  run 1: %s\n  run 2: %s",
			seed, first, second)
	}
	if other := freshE2Trace(t, seed+1).digest; other == first {
		t.Fatalf("trace digest for seed %d equals seed %d: trace is not sensitive to the run", seed, seed+1)
	}
	for _, want := range []string{
		`"ev":"lsc.epoch"`,
		`"ev":"lsc.store"`,
		`"ev":"vm.pause"`,
		`"ev":"vm.save"`,
		`"ev":"vm.restore"`,
		`"ev":"sim.probe"`,
	} {
		if !bytes.Contains(raw, []byte(want)) {
			t.Errorf("trace is missing %s events", want)
		}
	}
	// And the JSONL must round-trip through the reader.
	recs, err := obs.ReadJSONL(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("re-reading own trace: %v", err)
	}
	if len(recs) == 0 {
		t.Fatal("trace round-tripped to zero records")
	}
}

// TestSeedReplayEventDigest: same seed, twice, identical kernel-level
// event digests; a different seed must (overwhelmingly) diverge, proving
// the digest actually observes the run.
func TestSeedReplayEventDigest(t *testing.T) {
	const seed = replaySeed
	first := lscEventDigest(t, seed)
	second := lscEventDigest(t, seed)
	if first != second {
		t.Fatalf("event digest diverged between two runs with seed %d:\n  run 1: %s\n  run 2: %s",
			seed, first, second)
	}
	if other := lscEventDigest(t, seed+1); other == first {
		t.Fatalf("event digest for seed %d equals seed %d: digest is not sensitive to the run", seed, seed+1)
	}
}

// Pinned baseline digests for seed 20070917, recorded before the
// zero-copy data-plane rewrite (chunked payload ropes, ring-buffered TCP
// queues, streaming image encode). The rewrite is required to preserve
// observable behaviour exactly — same segment boundaries, same event
// ordering, same serialized tables and traces, and the same decoded
// image content — so all three digests must match the pre-rewrite
// values bit for bit. (The LSC digest judges images by decoded content,
// not encoded bytes or lengths; see lscEventDigest for why gob's
// process-global type-id counter makes anything else order-sensitive.)
// If a future change moves one of these, it changed
// simulation-visible behaviour and the new value must be justified and
// re-pinned here (cf. the queue_depth note for the PR 4 event path).
const (
	pinnedE2MetricsDigest = "118959d6fd036deb649a5640544155fe10f84c339189c9c36a119f39b3e5086d"
	pinnedE2TraceDigest   = "3097fbaeed5e5b6a48ec7b981bdd2874c8e3ff59260c174d0afc823219877c65"
	pinnedLSCEventDigest  = "83070258c20fbfcba8993713719d015a5de36b9030aea1d13005322c99ba73ff"
)

// TestSeedReplayDigestsMatchPinnedBaseline: the digests are not merely
// self-consistent across two runs — they equal the recorded pre-rewrite
// baseline, proving the data-plane rewrite is behaviour-preserving. The
// E2 digests are the replay tests' memoised first runs.
func TestSeedReplayDigestsMatchPinnedBaseline(t *testing.T) {
	const seed = replaySeed
	if got := refE2MetricsDigest(t); got != pinnedE2MetricsDigest {
		t.Errorf("E2 metrics digest moved off the pinned baseline:\n  got  %s\n  want %s", got, pinnedE2MetricsDigest)
	}
	if got := refE2Trace(t).digest; got != pinnedE2TraceDigest {
		t.Errorf("E2 JSONL trace digest moved off the pinned baseline:\n  got  %s\n  want %s", got, pinnedE2TraceDigest)
	}
	if got := lscEventDigest(t, seed); got != pinnedLSCEventDigest {
		t.Errorf("LSC event digest moved off the pinned baseline:\n  got  %s\n  want %s", got, pinnedLSCEventDigest)
	}
}
