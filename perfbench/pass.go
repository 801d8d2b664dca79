package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"rockcress/internal/harness"
	"rockcress/internal/kernels"
	"rockcress/internal/metrics"
)

// bench runs one workload at one scale and seed.
type bench struct {
	w     *workload
	scale kernels.Scale
	seed  int64
	jobs  int    // harness pool width
	dir   string // scratch directory for observer artifacts
	fps   fingerprints
	// record, when non-nil, collects fingerprints instead of checking them.
	record fingerprints

	attempted, failed int
	errs              []string
}

// passResult sums one pass over a workload's cells.
type passResult struct {
	wallNs  int64
	cpuNs   int64 // process CPU time of the pass
	setupNs int64
	runNs   int64 // Σ machine.Run wall (manycore cells)
	cycles  int64 // Σ simulated cycles (manycore cells)
	// setupCPU sums the cells' set-up CPU time. simCPU is the CPU time that
	// produced the cycles: Σ machine.Run for direct passes; the whole
	// harness sweep for the sweep, whose pool hides its Run calls.
	setupCPU, simCPU int64
	cells            []cellResult
}

// mcyclesPerCPUS is the pass's simulated throughput in Msim-cycles per
// host CPU-second.
func (p *passResult) mcyclesPerCPUS() float64 {
	return ratio(float64(p.cycles), float64(p.simCPU)) * 1e3
}

func (x *bench) key(c cell) string {
	return fmt.Sprintf("%s/%s/%s", x.scale, x.w.Name, c)
}

// verify is the per-cell correctness gate: the run's own error (which
// includes the output check against the serial reference), then simulated
// cycles and instructions against the recorded fingerprint.
func (x *bench) verify(r *cellResult) {
	x.attempted++
	err := r.err
	if err == nil {
		k := x.key(r.cell)
		got := fingerprint{Cycles: r.cycles, Instrs: r.instrs}
		want, ok := x.fps[k]
		switch {
		case x.record != nil:
			x.record[k] = got
		case !ok:
			err = fmt.Errorf("no fingerprint recorded")
		case want != got:
			err = fmt.Errorf("fingerprint mismatch: got %d cycles %d instrs, want %d cycles %d instrs",
				got.Cycles, got.Instrs, want.Cycles, want.Instrs)
		}
	}
	if err != nil {
		x.fail(r.cell.String(), err)
	}
}

// fail counts one failed operation and keeps the first few errors.
func (x *bench) fail(what string, err error) {
	x.failed++
	if len(x.errs) < 8 {
		x.errs = append(x.errs, fmt.Sprintf("%s: %v", what, err))
	}
}

// directPass runs cells back to back through the instrumented executor.
func (x *bench) directPass(cells []cell, o execOpts) passResult {
	var pr passResult
	o = x.withPlane(o)
	for _, c := range cells {
		x.runInto(&pr, c, o)
	}
	return pr
}

// withPlane gives o a fresh metrics plane when its observers want one.
func (x *bench) withPlane(o execOpts) execOpts {
	if o.obs.plane {
		o.plane = metrics.NewPlane(filepath.Join(x.dir, "flight"))
	}
	return o
}

// runInto runs, times and verifies one cell and adds it to pr.
func (x *bench) runInto(pr *passResult, c cell, o execOpts) {
	start, cpu0 := time.Now(), cpuNow()
	r := x.runCell(c, o)
	pr.wallNs += int64(time.Since(start))
	pr.cpuNs += cpuNow() - cpu0
	x.verify(&r)
	pr.add(r)
}

func (p *passResult) add(r cellResult) {
	p.setupNs += r.setupNs()
	p.setupCPU += r.setupCPU
	if !r.gpu {
		p.runNs += r.runNs
		p.simCPU += r.runCPU
		p.cycles += r.cycles
	}
	p.cells = append(p.cells, r)
}

// pass runs the workload once the way its end-to-end metrics measure it.
func (x *bench) pass() passResult {
	if x.w.Sweep {
		return x.sweepPass()
	}
	return x.directPass(x.directCells(), execOpts{})
}

func (x *bench) directCells() []cell {
	if x.scale == kernels.Tiny && x.w.TinyCells != nil {
		return x.w.TinyCells
	}
	return x.w.Cells
}

// sweepPass runs Fig 10 then Fig 14 through a fresh harness.Runner with
// every observer on, checks each cell, then times the sweep cells' set-up
// serially (the harness runs set-up inside its pool, out of reach).
func (x *bench) sweepPass() passResult {
	var pr passResult
	dir, err := os.MkdirTemp(x.dir, "sweep-")
	if err != nil {
		x.attempted++
		x.fail("sweep", err)
		return pr
	}
	defer os.RemoveAll(dir)
	r := harness.New(harness.Options{
		Scale: x.scale, Out: io.Discard, Jobs: x.jobs,
		TelemetryDir: filepath.Join(dir, "telemetry"), ReportDir: filepath.Join(dir, "report"),
		Causal: true, Obs: metrics.NewPlane(filepath.Join(dir, "flight")),
	})
	start, cpu0 := time.Now(), cpuNow()
	serr := r.Fig10(io.Discard)
	if serr == nil {
		serr = r.Fig14(io.Discard)
	}
	cells := x.checkSweep(r, &pr)
	pr.wallNs, pr.cpuNs = int64(time.Since(start)), cpuNow()-cpu0
	pr.simCPU = pr.cpuNs
	if serr != nil {
		x.attempted++
		x.fail("sweep", serr)
	}
	pr.cycles, pr.runNs = r.Throughput()
	for _, c := range cells {
		cr := x.runCell(c, execOpts{setupOnly: true})
		pr.setupNs += cr.setupNs()
		pr.setupCPU += cr.setupCPU
		if cr.err != nil {
			x.attempted++
			x.fail(c.String()+" setup", cr.err)
		}
	}
	return pr
}

// checkSweep verifies every cell the sweep ran (cache hits on the runner)
// and returns the distinct cells under their effective configuration names.
func (x *bench) checkSweep(r *harness.Runner, pr *passResult) []cell {
	seen := map[cell]bool{}
	var cells []cell
	for _, b := range kernels.PolyBench() {
		for _, cfg := range sweepConfigs() {
			res, err := r.RunNamed(b, cfg, nil)
			cr := cellResult{cell: cell{Bench: b.Info().Name, Cfg: cfg}, err: err}
			if err == nil {
				cr.cell.Cfg = res.Config
				cr.cycles = res.Cycles()
				if res.GPU != nil {
					cr.gpu = true
					cr.instrs = res.GPU.ComputeOps + res.GPU.LoadOps + res.GPU.StoreOps
				} else {
					cr.instrs = res.Stats.TotalInstrs()
				}
			}
			if seen[cr.cell] {
				continue
			}
			seen[cr.cell] = true
			x.verify(&cr)
			cells = append(cells, cr.cell)
			pr.cells = append(pr.cells, cr)
		}
	}
	return cells
}

// cells returns the workload's cell list; for the sweep, the distinct cells
// a sweep pass ran.
func (x *bench) cells(warm passResult) []cell {
	if !x.w.Sweep {
		return x.directCells()
	}
	out := make([]cell, len(warm.cells))
	for i := range warm.cells {
		out[i] = warm.cells[i].cell
	}
	return out
}

// poolPass runs cells through harness.Runner on x.jobs goroutines (for the
// sweep workload, the harness figure pool itself) and returns the pass
// wall time and the pool's summed run-loop time.
func (x *bench) poolPass(cells []cell) (wallNs, runNs int64) {
	if x.w.Sweep {
		pr := x.sweepPass()
		return pr.wallNs, pr.runNs
	}
	r := harness.New(harness.Options{Scale: x.scale, Out: io.Discard, Jobs: x.jobs})
	var mod *harness.HWMod
	if x.w.HW != nil {
		mod = &harness.HWMod{Name: x.w.Name, Fn: x.w.HW}
	}
	todo := make(chan cell, len(cells))
	for _, c := range cells {
		todo <- c
	}
	close(todo)
	done := make(chan cellResult, len(cells))
	start := time.Now()
	for i := 0; i < x.jobs; i++ {
		go func() {
			for c := range todo {
				cr := cellResult{cell: c}
				b, err := kernels.Get(c.Bench)
				if err == nil {
					res, rerr := r.RunNamed(b, c.Cfg, mod)
					if err = rerr; err == nil {
						cr.cycles, cr.instrs = res.Cycles(), res.Stats.TotalInstrs()
					}
				}
				cr.err = err
				done <- cr
			}
		}()
	}
	for range cells {
		cr := <-done
		// The harness runs each kernel at its default seed: compare against
		// the fingerprint, which the seed does not move.
		x.verify(&cr)
	}
	wallNs = int64(time.Since(start))
	_, runNs = r.Throughput()
	return wallNs, runNs
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
