package main

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"streambalance"
	"streambalance/internal/streamfmt"
	"streambalance/internal/workload"
)

// mixtureStream renders n bcgen-mixture inserts in the bcgen format.
func mixtureStream(n int, delta int64, seed int64) *bytes.Buffer {
	rng := rand.New(rand.NewSource(seed))
	m := workload.Mixture{N: n, D: 2, Delta: delta, K: 4, Spread: float64(delta) / 270, Skew: 2, NoiseFrac: 0.05}
	ps, _ := m.Generate(rng)
	var buf bytes.Buffer
	for _, p := range ps {
		buf.WriteString(streamfmt.FormatUpdate(streamfmt.Update{P: p}))
		buf.WriteByte('\n')
	}
	return &buf
}

// TestRunWritesMetricsOnFailure: when every guess FAILs, run still
// writes the -metrics snapshot — with the per-guess outcome lines that
// say why — before it exits 1. At Δ = 4096, 5,000 mixture points FAIL
// every guess of the ensemble (the large-geometry FAIL of ROADMAP.md).
func TestRunWritesMetricsOnFailure(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-metrics", "text", "-delta", "4096"}, mixtureStream(5000, 4096, 3), &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit status %d, want 1 (stderr: %s)", code, stderr.String())
	}
	errText := stderr.String()
	if !strings.Contains(errText, "no guess o succeeded") {
		t.Fatalf("stderr lacks the FAIL message:\n%s", errText)
	}
	if !strings.Contains(errText, "stream_guess_outcome_total{") || !strings.Contains(errText, `outcome="fail"`) {
		t.Fatalf("stderr lacks the stream_guess_outcome_total snapshot:\n%s", errText)
	}
	if stdout.Len() != 0 {
		t.Fatalf("a FAILed run wrote a coreset:\n%s", stdout.String())
	}
}

// TestRunSucceeds: a small stream yields a coreset on stdout, the
// summary line on stderr and exit status 0.
func TestRunSucceeds(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-delta", "1024"}, mixtureStream(1500, 1024, 4), &stdout, &stderr); code != 0 {
		t.Fatalf("exit status %d (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "bcstream: 1500 updates, coreset") || stdout.Len() == 0 {
		t.Fatalf("missing coreset or summary; stderr:\n%s", stderr.String())
	}
}

// TestRunRejectsBadMetricsFormat: an unknown -metrics format is a usage
// error, not a silent no-op.
func TestRunRejectsBadMetricsFormat(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-metrics", "xml"}, strings.NewReader(""), &stdout, &stderr); code != 1 {
		t.Fatalf("exit status %d, want 1", code)
	}
}

// TestRunChunkedMatchesOneApply: bcstream feeds its input through Apply
// in chunkOps-sized chunks. On a churn stream of more than 10,000
// updates whose deletions trail their insertions by 1,500 ops — so many
// delete a point inserted in an earlier chunk — the printed coreset must
// be byte-identical to the coreset of an ensemble fed every update in
// one Apply.
func TestRunChunkedMatchesOneApply(t *testing.T) {
	const (
		delta = 1024
		lag   = 1500
	)
	rng := rand.New(rand.NewSource(6))
	base, _ := workload.Mixture{N: 2000, D: 2, Delta: delta, K: 4, Spread: 4, Skew: 2, NoiseFrac: 0.05}.Generate(rng)
	junk := workload.UniformBox(rng, 4100, 2, delta)
	var ops []streambalance.Op
	for i, p := range junk {
		if i < len(base) {
			ops = append(ops, streambalance.Op{P: base[i]})
		}
		ops = append(ops, streambalance.Op{P: p})
		if i >= lag {
			ops = append(ops, streambalance.Op{P: junk[i-lag], Delete: true})
		}
	}
	for _, p := range junk[len(junk)-lag:] {
		ops = append(ops, streambalance.Op{P: p, Delete: true})
	}
	if len(ops) < 10000 || len(ops)%chunkOps == 0 {
		t.Fatalf("%d updates: want ≥ 10,000 with a partial last chunk", len(ops))
	}
	var in bytes.Buffer
	for _, op := range ops {
		in.WriteString(streamfmt.FormatUpdate(streamfmt.Update{P: op.P, Delete: op.Delete}))
		in.WriteByte('\n')
	}

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-delta", "1024"}, &in, &stdout, &stderr); code != 0 {
		t.Fatalf("exit status %d (stderr: %s)", code, stderr.String())
	}

	// The ensemble bcstream builds for these flags, fed in one Apply.
	a, err := streambalance.NewAutoStream(streambalance.StreamConfig{
		Dim: 2, Delta: delta, Params: streambalance.Params{K: 4, R: 2, Seed: 1},
		CellSparsity: 512, PointSparsity: 2048,
	}, 8)
	if err != nil {
		t.Fatal(err)
	}
	a.Apply(ops)
	cs, err := a.Result()
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := streamfmt.WriteWeighted(&want, cs.Points); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stdout.Bytes(), want.Bytes()) {
		t.Fatalf("chunked coreset (%d bytes) differs from the one-Apply coreset (%d bytes)", stdout.Len(), want.Len())
	}
}
