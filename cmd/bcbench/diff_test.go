package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchFixture is a miniature BENCH record with every key-shape class
// the gate knows: higher-is-better rates and speedups (top-level and
// nested under arrays), lower-is-better latencies and bit counts, and
// informational config echoes that must never gate.
const benchFixture = `{
  "meta": {"git_revision": "abc", "wall_clock_sec": 12.5},
  "bench": "fixture",
  "n_ops": 16384,
  "seed": 1,
  "ops_per_sec_batched": 100000,
  "speedup": 4.0,
  "sec_serial": 0.5,
  "wire_bits": 81920,
  "hash": [
    {"kernel": "kwise", "ns_per_op_scalar": 40.0, "ns_per_op_batched": 10.0}
  ]
}`

func writeFixture(t *testing.T, name, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDiffNoRegressionOnIdenticalRecords(t *testing.T) {
	old := writeFixture(t, "old.json", benchFixture)
	nw := writeFixture(t, "new.json", benchFixture)
	var sb strings.Builder
	regs, err := runDiff(&sb, old, nw, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if regs != 0 {
		t.Fatalf("identical records reported %d regressions:\n%s", regs, sb.String())
	}
	if !strings.Contains(sb.String(), "no regressions") {
		t.Fatalf("missing all-clear line:\n%s", sb.String())
	}
}

// TestDiffDetectsTwofoldRegression: the acceptance scenario — a
// synthetic 2x regression on each metric class must trip the default
// tolerance, whichever direction "worse" is for that key.
func TestDiffDetectsTwofoldRegression(t *testing.T) {
	old := writeFixture(t, "old.json", benchFixture)
	regressed := strings.NewReplacer(
		`"ops_per_sec_batched": 100000`, `"ops_per_sec_batched": 50000`, // rate halved
		`"sec_serial": 0.5`, `"sec_serial": 1.0`, // wall-clock doubled
		`"ns_per_op_scalar": 40.0`, `"ns_per_op_scalar": 80.0`, // latency doubled
	).Replace(benchFixture)
	nw := writeFixture(t, "new.json", regressed)

	var sb strings.Builder
	regs, err := runDiff(&sb, old, nw, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if regs != 3 {
		t.Fatalf("want 3 regressions, got %d:\n%s", regs, sb.String())
	}
	out := sb.String()
	for _, key := range []string{"ops_per_sec_batched", "sec_serial", "hash.0.ns_per_op_scalar"} {
		line := findLine(out, key)
		if !strings.Contains(line, "REGRESSION") {
			t.Fatalf("%s not flagged:\n%s", key, out)
		}
	}
	// The untouched metrics stay ok; config echoes never appear as gated.
	if l := findLine(out, "speedup"); !strings.Contains(l, "ok") {
		t.Fatalf("unchanged speedup flagged:\n%s", out)
	}
	if l := findLine(out, "n_ops"); l != "" {
		t.Fatalf("informational key n_ops gated:\n%s", out)
	}
}

func TestDiffToleranceBoundary(t *testing.T) {
	old := writeFixture(t, "old.json", benchFixture)
	// 30% rate drop: ratio 0.7 — inside the default 0.6 tolerance, outside
	// a strict 0.8 one.
	nw := writeFixture(t, "new.json", strings.Replace(benchFixture,
		`"ops_per_sec_batched": 100000`, `"ops_per_sec_batched": 70000`, 1))

	if regs, err := runDiff(&strings.Builder{}, old, nw, 0.6); err != nil || regs != 0 {
		t.Fatalf("tol 0.6: regs=%d err=%v, want 0 regressions", regs, err)
	}
	if regs, err := runDiff(&strings.Builder{}, old, nw, 0.8); err != nil || regs != 1 {
		t.Fatalf("tol 0.8: regs=%d err=%v, want 1 regression", regs, err)
	}
	if _, err := runDiff(&strings.Builder{}, old, nw, 1.5); err == nil {
		t.Fatal("tol outside (0,1) accepted")
	}
}

// TestDiffSchemaDrift: metrics present on only one side are reported but
// never counted as regressions — record schemas evolve across commits.
func TestDiffSchemaDrift(t *testing.T) {
	old := writeFixture(t, "old.json", benchFixture)
	drifted := strings.Replace(benchFixture,
		`"ops_per_sec_batched": 100000`, `"ops_per_sec_renamed": 100000`, 1)
	nw := writeFixture(t, "new.json", drifted)

	var sb strings.Builder
	regs, err := runDiff(&sb, old, nw, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if regs != 0 {
		t.Fatalf("schema drift counted as regression:\n%s", sb.String())
	}
	out := sb.String()
	if l := findLine(out, "ops_per_sec_batched"); !strings.Contains(l, "missing in new") {
		t.Fatalf("dropped metric not reported:\n%s", out)
	}
	if l := findLine(out, "ops_per_sec_renamed"); !strings.Contains(l, "new metric") {
		t.Fatalf("added metric not reported:\n%s", out)
	}
}

func TestMetricDirection(t *testing.T) {
	cases := map[string]int{
		"ops_per_sec_batched":            1,
		"extracts_per_sec_cold":          1,
		"speedup_workers8":               1,
		"ops_per_sec_batched_by_procs.2": 1,
		"hash.0.ns_per_op_scalar":        -1,
		"decode.1.ns_per_decode_ref":     -1,
		"sec_serial":                     -1,
		"wire_bits":                      -1,
		"n_ops":                          0,
		"seed":                           0,
		"coalesce_ratio.h":               0,
		"dirty_level_ratio":              0,
	}
	for key, want := range cases {
		if got := metricDirection(key); got != want {
			t.Errorf("metricDirection(%q) = %d, want %d", key, got, want)
		}
	}
}

// findLine returns the first report line containing key, "" if none.
func findLine(out, key string) string {
	for _, l := range strings.Split(out, "\n") {
		if strings.Contains(l, key) {
			return l
		}
	}
	return ""
}
