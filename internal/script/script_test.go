package script

import (
	"bytes"
	"strings"
	"testing"
)

func run(t *testing.T, seed int64, src string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	in := New(seed, &out)
	err := in.Run(strings.NewReader(src))
	return out.String(), err
}

func TestCheckpointScenarioScript(t *testing.T) {
	out, err := run(t, 1, `
# quickstart scenario
cluster alpha 4
start
alloc job1 4
run job1 hpl 128 2e-5
advance 2s
checkpoint job1
wait job1 2h
assert-ok job1
`)
	if err != nil {
		t.Fatalf("script failed: %v\n%s", err, out)
	}
	for _, want := range []string{"cluster alpha: 4 nodes", "job1 ready", "checkpoint gen 0", "all 4 ranks succeeded"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCrashRecoveryScript(t *testing.T) {
	out, err := run(t, 2, `
cluster alpha 6
start
lsc ntp continue
alloc job1 3
run job1 halo 6000 20ms 1024
advance 2s
checkpoint job1
crash alpha-n01
advance 5s
teardown job1
restore job1 0 alpha
wait job1 2h
assert-ok job1
`)
	if err != nil {
		t.Fatalf("script failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "NODE alpha-n01 CRASHED") || !strings.Contains(out, "restored from gen 0") {
		t.Fatalf("narrative missing:\n%s", out)
	}
}

// TestIncrementalLSCScript: the `incremental` keyword selects delta
// epochs, and the newest epoch restores after a crash.
func TestIncrementalLSCScript(t *testing.T) {
	var out bytes.Buffer
	in := New(4, &out)
	err := in.Run(strings.NewReader(`
cluster alpha 6
start
lsc ntp continue incremental
alloc job1 3
run job1 halo 6000 20ms 1024
advance 2s
checkpoint job1
advance 5s
checkpoint job1
crash alpha-n01
advance 5s
teardown job1
restore job1 1 alpha
wait job1 2h
assert-ok job1
`))
	if err != nil {
		t.Fatalf("script failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "checkpoint gen 1") || !strings.Contains(out.String(), "restored from gen 1") {
		t.Fatalf("narrative missing:\n%s", out.String())
	}
	if !in.sim.Coordinator().Config().Delta {
		t.Fatal("lsc ... incremental did not select delta epochs")
	}
	if got := in.sim.Manager().Store().DeltaWrites; got != 6 {
		t.Fatalf("store delta writes %d, want 6 (2 epochs x 3 VMs)", got)
	}
}

func TestMigrationScripts(t *testing.T) {
	out, err := run(t, 3, `
cluster alpha 2
cluster beta 2
start
alloc job1 2 clusters=alpha
run job1 halo 4000 20ms 1024
advance 1s
migrate job1 beta
wait job1 2h
assert-ok job1
status job1
`)
	if err != nil {
		t.Fatalf("script failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "migrated to beta") || !strings.Contains(out, "placement=[beta-n00 beta-n01]") {
		t.Fatalf("migration narrative missing:\n%s", out)
	}
}

func TestLiveMigrateScript(t *testing.T) {
	out, err := run(t, 4, `
cluster alpha 2
cluster beta 2
start
alloc job1 2 clusters=alpha
run job1 halo 5000 20ms 1024
advance 1s
livemigrate job1 beta
wait job1 2h
assert-ok job1
`)
	if err != nil {
		t.Fatalf("script failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "live-migrated to beta") {
		t.Fatalf("live migration narrative missing:\n%s", out)
	}
}

func TestScriptErrors(t *testing.T) {
	cases := map[string]string{
		"unknown command":      "frobnicate\n",
		"unknown vc":           "cluster a 2\nstart\ncheckpoint nope\n",
		"bad node count":       "cluster a zero\n",
		"unknown node":         "cluster a 2\ncrash ghost\n",
		"unknown workload":     "cluster a 2\nstart\nalloc j 2\nrun j quake3\n",
		"bad duration":         "cluster a 2\nstart\nadvance sideways\n",
		"unknown lsc mode":     "lsc telepathy\n",
		"impossible migration": "cluster a 2\nstart\nalloc j 2\nmigrate j a\n",
		"assert on failed job": "cluster a 2\nstart\nalloc j 2\nrun j halo 100000 20ms 64\ncrash a-n00\nadvance 60s\nassert-ok j\n",
	}
	for name, src := range cases {
		if _, err := run(t, 5, src); err == nil {
			t.Fatalf("%s: script accepted", name)
		}
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	if _, err := run(t, 6, "\n# just a comment\n\n"); err != nil {
		t.Fatal(err)
	}
}

func TestStackedClusterScript(t *testing.T) {
	out, err := run(t, 7, `
cluster alpha 2 rhel4-mpich
start
alloc j 2
run j ptrans 24 50
wait j 1h
assert-ok j
`)
	if err != nil {
		t.Fatalf("script failed: %v\n%s", err, out)
	}
}
