package experiments

import (
	"bytes"
	"testing"

	"dvc/internal/obs"
)

// These tests pin the streaming half of the replay contract: a traced
// experiment writing through the streaming JSONL sink must externalize
// byte-identical output to the memory-backed tracer, at any Parallel
// value, while retaining no records — peak tracer memory is the sink's
// fixed buffer plus the child trace being merged, not the full trace.

// e2Stream is what a streamed E2 run externalizes, plus the tracer
// state the bounded-memory contract is judged on.
type e2Stream struct {
	out        []byte
	retained   []obs.Record // what the tracer kept (must be nil)
	records    int
	registry   string
	series     []byte
	seriesRows int
}

// e2Streamed runs the scaled-down traced E2 with a streaming JSONL sink
// (deliberately tiny buffer to force many mid-run flushes).
func e2Streamed(seed int64, parallel, bufSize int) (e2Stream, error) {
	var out bytes.Buffer
	tr := obs.NewTracerWithSink(obs.NewJSONLSink(&out, bufSize))
	var tbl bytes.Buffer
	if _, err := Run("E2", Options{Seed: seed, Trials: 2, Parallel: parallel, Out: &tbl, Tracer: tr}); err != nil {
		return e2Stream{}, err
	}
	if err := tr.Flush(); err != nil {
		return e2Stream{}, err
	}
	var series bytes.Buffer
	if err := tr.Series().WriteJSONL(&series); err != nil {
		return e2Stream{}, err
	}
	return e2Stream{out.Bytes(), tr.Records(), tr.Len(), tr.Registry().Table().String(), series.Bytes(), tr.Series().Len()}, nil
}

// e2StreamedRef is the streamed Parallel: 4 run both streaming tests
// compare against the serial memory reference.
var e2StreamedRef memo[e2Stream]

// streamedE2 returns the memoised run at Parallel 4 and a fresh one
// otherwise.
func streamedE2(t *testing.T, parallel int) e2Stream {
	t.Helper()
	run := func() (e2Stream, error) { return e2Streamed(replaySeed, parallel, 4096) }
	if parallel == 4 {
		return e2StreamedRef.get(t, run)
	}
	r, err := run()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestStreamingSinkMatchesMemorySink: the memory tracer's WriteJSONL and
// the streaming sink's output must agree byte for byte on a full E2 run,
// serial and parallel alike.
func TestStreamingSinkMatchesMemorySink(t *testing.T) {
	// Memory reference (serial).
	mem := refE2Serial(t)
	want := mem.trace
	if len(want) == 0 {
		t.Fatal("memory reference trace is empty")
	}

	for _, parallel := range []int{1, 4} {
		st := streamedE2(t, parallel)
		got := st.out
		if !bytes.Equal(got, want) {
			ls, lp := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
			for i := 0; i < len(ls) && i < len(lp); i++ {
				if !bytes.Equal(ls[i], lp[i]) {
					t.Fatalf("parallel=%d: streamed trace diverges at line %d:\n  memory:   %s\n  streamed: %s",
						parallel, i+1, ls[i], lp[i])
				}
			}
			t.Fatalf("parallel=%d: traces differ in length: memory %d lines, streamed %d", parallel, len(ls), len(lp))
		}
		// The bounded-memory half of the contract: the streaming tracer
		// must not have retained the record stream.
		if st.retained != nil {
			t.Fatalf("parallel=%d: streaming tracer retained %d records", parallel, len(st.retained))
		}
		if st.records != mem.records {
			t.Fatalf("parallel=%d: streamed %d records, memory run recorded %d", parallel, st.records, mem.records)
		}
	}
}

// TestStreamedRegistryMatchesMemory: the registry and series travel the
// same merge path as records; streaming must not change them.
func TestStreamedRegistryMatchesMemory(t *testing.T) {
	mem := refE2Serial(t)
	st := streamedE2(t, 4)
	if st.registry != mem.registry {
		t.Fatalf("registry differs:\n--- streamed ---\n%s\n--- memory ---\n%s", st.registry, mem.registry)
	}
	if !bytes.Equal(st.series, mem.series) {
		t.Fatalf("series differs:\n--- streamed ---\n%s\n--- memory ---\n%s", st.series, mem.series)
	}
	if st.seriesRows == 0 {
		t.Fatal("probe sampled no series rows during E2")
	}
}
