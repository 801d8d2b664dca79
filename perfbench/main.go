// Command perfbench is rockcress's host-performance benchmark. It runs one
// named workload through the simulator's public Go API, checks every cell
// against its serial reference and its recorded cycle/instruction
// fingerprint, and prints the workload's metrics by name with their units.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with tracing
// off; with -trace 1 a separate traced run gives the per-layer ones and
// writes its spans to -out. See README.md for the workloads and metrics.
//
// Usage:
//
//	perfbench -workload mimd_mesh -seed 1 -seconds 25 -trace 0 -out DIR
//	perfbench -record fingerprints.json   # re-record every fingerprint
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run")
		seed    = flag.Int64("seed", 1, "input seed, passed to kernels.Params.Seed")
		seconds = flag.Float64("seconds", 25, "how long the timed passes run")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: traced run with per-layer metrics")
		out     = flag.String("out", "", "directory for spans and observer artifacts (default: a temporary directory)")
		record  = flag.String("record", "", "run every workload at small and tiny scale once and write their fingerprints to this file")
	)
	flag.Parse()
	if err := run(os.Stdout, *name, *seed, *seconds, *traced, *out, *record); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(stdout io.Writer, name string, seed int64, seconds float64, traced int, out, record string) error {
	scratch := out
	if scratch == "" {
		d, err := os.MkdirTemp("", "perfbench-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(d)
		scratch = d
	}
	if record != "" {
		return recordAll(scratch, seed, record)
	}
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if traced != 0 && traced != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", traced)
	}
	fps, err := recorded()
	if err != nil {
		return err
	}
	x, err := newBench(w, false, seed, scratch)
	if err != nil {
		return err
	}
	defer os.RemoveAll(x.dir)
	x.fps = fps
	h := describeHost(seed, w)
	hj, err := json.Marshal(h)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "host %s\n", hj)
	var ms []metric
	if traced == 1 {
		tr := newTracer()
		if ms, err = x.perLayer(tr); err != nil {
			return err
		}
		path := filepath.Join(scratch, fmt.Sprintf("spans-%s-seed%d.json", w.Name, seed))
		if err := writeSpans(path, h, tr.spans); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", len(tr.spans), path)
	} else {
		var n int
		var wallS float64
		ms, wallS, n = x.endToEnd(seconds)
		fmt.Fprintf(stdout, "%s: %d timed passes after 1 warm-up; timings are medians\n", w.Name, n)
		fmt.Fprintf(stdout, "  %-34s %14.6g %s\n", "pass_wall_s", wallS, "s")
		fmt.Fprintf(stdout, "  %-34s %14.6g %s\n", "failed_frac", ratio(float64(x.failed), float64(x.attempted)), "ratio")
	}
	for _, m := range ms {
		fmt.Fprintf(stdout, "  %-34s %14.6g %s\n", m.Name, m.Value, m.Unit)
	}
	for _, e := range x.errs {
		fmt.Fprintf(stdout, "FAILED %s\n", e)
	}
	return printResult(stdout, x, ms)
}

// newBench prepares a workload's runner; tiny forces tiny inputs.
func newBench(w *workload, tiny bool, seed int64, scratch string) (*bench, error) {
	dir, err := os.MkdirTemp(scratch, w.Name+"-")
	if err != nil {
		return nil, err
	}
	return &bench{w: w, scale: w.scale(tiny), seed: seed, jobs: runtime.NumCPU(), dir: dir}, nil
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printResult(w io.Writer, x *bench, ms []metric) error {
	res := resultJSON{Correct: x.failed == 0, Attempted: x.attempted, Failed: x.failed,
		Metrics: map[string]metricJSON{}}
	for _, m := range ms {
		res.Metrics[m.Name] = metricJSON{Value: m.Value, Unit: m.Unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func writeSpans(path string, h host, spans []span) error {
	b, err := json.Marshal(struct {
		Host  host   `json:"host"`
		Spans []span `json:"spans"`
	}{h, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// recordAll runs one pass of every workload, plus its kernels on the GPU
// model, at the benchmark's scale and at tiny scale, and writes the
// fingerprints of every cell.
func recordAll(scratch string, seed int64, path string) error {
	fps := fingerprints{}
	for _, tiny := range []bool{false, true} {
		for _, w := range workloads {
			x, err := newBench(w, tiny, seed, scratch)
			if err != nil {
				return err
			}
			x.record = fps
			cells := x.cells(x.pass())
			x.directPass(gpuCells(cells), execOpts{})
			os.RemoveAll(x.dir)
			if x.failed > 0 {
				return fmt.Errorf("%s: %v", w.Name, x.errs)
			}
		}
	}
	return fps.write(path)
}
