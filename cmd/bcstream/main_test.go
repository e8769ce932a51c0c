package main

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

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
