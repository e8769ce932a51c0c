// Command bcstream maintains a capacitated-clustering coreset over a
// dynamic stream read from stdin or a file (the format cmd/bcgen emits:
// "+ x,y,..." inserts, "- x,y,..." deletes) and writes the weighted
// coreset to stdout as "w x,y,..." lines, with a summary on stderr.
//
// By default the full guess enumeration of Theorem 4.5 runs (one sketch
// ensemble per guess o); pass -guess to run a single-guess instance when
// an estimate of the optimal clustering cost is known.
//
// Telemetry (README "Observability"): -debug-addr serves /metrics,
// /debug/pprof/ and /debug/vars while the stream runs; -metrics dumps a
// final counter snapshot to stderr after the coreset is written.
//
// Usage:
//
//	bcgen -n 10000 -pattern churn | bcstream -k 4 -delta 4096
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"streambalance"
	"streambalance/internal/obs"
	"streambalance/internal/streamfmt"
)

// chunkOps is the ingest batch size: updates are fed to the sketches
// through Apply in chunks of this many ops, the last chunk partial.
const chunkOps = 4096

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, reads the stream from stdin
// (or -in), writes the coreset to stdout and the summary, errors and
// any -metrics snapshot to stderr, and returns the exit status. The
// snapshot is written even when Result fails, so a FAILed run still
// shows which guesses were attempted and why they lost.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bcstream", flag.ContinueOnError)
	fs.SetOutput(stderr)
	k := fs.Int("k", 4, "number of clusters")
	dim := fs.Int("d", 2, "dimension")
	delta := fs.Int64("delta", 1<<12, "coordinate range [1,delta]")
	r := fs.Float64("r", 2, "lr exponent (1 = k-median, 2 = k-means)")
	guess := fs.Float64("guess", 0, "fixed guess o of the optimal cost (0 = enumerate all guesses)")
	seed := fs.Int64("seed", 1, "random seed")
	in := fs.String("in", "-", "input stream file (- = stdin)")
	debugAddr := fs.String("debug-addr", "", "serve /metrics, /debug/pprof/ and /debug/vars on this address (e.g. :6060) while running")
	metricsDump := fs.String("metrics", "", "dump a final telemetry snapshot to stderr: text (Prometheus exposition) or json")
	hold := fs.Duration("hold", 0, "with -debug-addr, keep the debug server up this long after the run (0 = exit immediately)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bcstream:", err)
		return 1
	}

	switch *metricsDump {
	case "", "text", "json":
	default:
		return fail(fmt.Errorf("-metrics must be text or json, got %q", *metricsDump))
	}
	if *metricsDump != "" {
		obs.Enable()
		obs.Trace.Enable()
	}
	if *debugAddr != "" {
		addr, err := obs.ServeDebug(*debugAddr)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "bcstream: debug server on http://%s (/metrics, /debug/pprof/, /debug/vars, /debug/spans)\n", addr)
	}

	src := stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		src = f
	}

	params := streambalance.Params{K: *k, R: *r, Seed: *seed}
	cfg := streambalance.StreamConfig{Dim: *dim, Delta: *delta, Params: params}

	type sink interface {
		Apply([]streambalance.Op)
		Bytes() int64
		Result() (*streambalance.Coreset, error)
	}
	var s sink
	var err error
	if *guess > 0 {
		cfg.O = *guess
		s, err = streambalance.NewStream(cfg)
	} else {
		cfg.CellSparsity = 512
		cfg.PointSparsity = 2048
		s, err = streambalance.NewAutoStream(cfg, 8)
	}
	if err != nil {
		return fail(err)
	}

	var updates int64
	chunk := make([]streambalance.Op, 0, chunkOps)
	err = streamfmt.ReadUpdates(src, *dim, func(u streamfmt.Update) error {
		chunk = append(chunk, streambalance.Op{P: u.P, Delete: u.Delete})
		if len(chunk) == chunkOps {
			s.Apply(chunk)
			chunk = chunk[:0]
		}
		updates++
		return nil
	})
	if err != nil {
		return fail(err)
	}
	s.Apply(chunk)

	status := 0
	if cs, err := s.Result(); err != nil {
		fmt.Fprintln(stderr, "bcstream:", err)
		status = 1
	} else {
		if err := streamfmt.WriteWeighted(stdout, cs.Points); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr,
			"bcstream: %d updates, coreset %d points (total weight %.1f), sketch state %d bytes, accepted o=%.3g\n",
			updates, cs.Size(), cs.TotalWeight(), s.Bytes(), cs.O)
	}

	var dumpErr error
	switch *metricsDump {
	case "text":
		dumpErr = obs.Default.WriteProm(stderr)
	case "json":
		dumpErr = obs.Default.WriteJSON(stderr)
	}
	if dumpErr != nil {
		return fail(dumpErr)
	}
	if *debugAddr != "" && *hold > 0 {
		fmt.Fprintf(stderr, "bcstream: holding debug server for %s\n", *hold)
		time.Sleep(*hold)
	}
	return status
}
