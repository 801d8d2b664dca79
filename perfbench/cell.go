package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"rockcress/internal/analyze"
	"rockcress/internal/causal"
	"rockcress/internal/config"
	"rockcress/internal/cpu"
	"rockcress/internal/gpu"
	"rockcress/internal/isa"
	"rockcress/internal/kernels"
	"rockcress/internal/machine"
	"rockcress/internal/metrics"
	"rockcress/internal/sim"
	"rockcress/internal/stats"
	"rockcress/internal/trace"
)

// observers selects the observability layers attached to a cell, the set
// rockbench -telemetry -report -causal -flight turns on.
type observers struct {
	sampler bool // windowed telemetry written as JSONL (trace)
	causal  bool // causal profiler (causal)
	plane   bool // metrics plane with the flight recorder fed by the sampler (metrics)
	report  bool // per-cell report.json (analyze)
}

var allObservers = observers{sampler: true, causal: true, plane: true, report: true}

// execOpts steers one pass of the instrumented executor.
type execOpts struct {
	workers   int
	tr        *tracer
	prof      bool // attach the engine's stage self-profile (sim.Prof)
	lower     bool // time a separate cpu.LowerProgram of the cell's program
	allocs    bool // count heap allocations made during machine.Run
	obs       observers
	plane     *metrics.Plane
	setupOnly bool // stop after the image is applied (no run, no check)
}

// cellResult is what one cell cost and produced. Times are host ns.
type cellResult struct {
	cell   cell
	gpu    bool
	cycles int64
	instrs int64

	prepNs, buildNs, lowerNs, newNs, applyNs, runNs, checkNs int64
	mallocs                                                  uint64
	// Process CPU time (all threads, GC included) of the set-up steps and
	// of machine.Run: the end-to-end metrics' clock, which a shared host's
	// stolen time does not inflate.
	setupCPU, runCPU int64

	st   *stats.Machine
	prof *sim.Prof
	err  error
}

// setupNs is the cell's set-up: Prepare, codegen, machine.New and image
// apply (lowering is inside machine.New).
func (r *cellResult) setupNs() int64 { return r.prepNs + r.buildNs + r.newNs + r.applyNs }

// timed runs f inside a span and adds its wall time to *dst.
func timed(tr *tracer, name string, dst *int64, f func() error) error {
	sp := tr.begin(name)
	t := time.Now()
	err := f()
	*dst += int64(time.Since(t))
	tr.end(sp)
	return err
}

// runCell executes one cell step by step through the layers' public calls,
// the same sequence kernels.ExecuteOpts performs, so every step can be timed
// and every cycle count matches the harness.
func (x *bench) runCell(c cell, o execOpts) (r cellResult) {
	r.cell = c
	b, err := kernels.Get(c.Bench)
	if err != nil {
		r.err = err
		return r
	}
	sw, err := software(c.Cfg)
	if err != nil {
		r.err = err
		return r
	}
	p := b.Defaults(x.scale)
	p.Seed = x.seed
	o.tr.startCell()
	root := o.tr.begin("cell " + c.String())
	defer o.tr.end(root)
	if sw.Style == config.StyleGPU {
		x.runGPU(b, p, &r, o)
		return r
	}
	hw := sw.Apply(x.w.hw())
	groups, err := kernels.GroupsFor(sw, hw)
	if err != nil {
		r.err = err
		return r
	}
	cpu0 := cpuNow()
	var img *kernels.Image
	r.err = timed(o.tr, "kernels.Prepare", &r.prepNs, func() error {
		var err error
		if img, err = b.Prepare(p); err != nil {
			return err
		}
		return img.Err()
	})
	if r.err != nil {
		return r
	}
	var prog *isa.Program
	r.err = timed(o.tr, "prog.Build", &r.buildNs, func() error {
		ctx := kernels.NewCtx(p, img, sw, hw, groups)
		if err := b.Build(ctx); err != nil {
			return err
		}
		var err error
		prog, err = ctx.B.Build()
		return err
	})
	if r.err != nil {
		return r
	}
	if o.lower {
		lower0 := cpuNow()
		_ = timed(o.tr, "cpu.LowerProgram", &r.lowerNs, func() error {
			cpu.LowerProgram(prog, hw)
			return nil
		})
		cpu0 += cpuNow() - lower0 // lowering again is not part of set-up
	}
	memBytes := img.SizeBytes()
	if memBytes < machine.DefaultMemBytes {
		memBytes = machine.DefaultMemBytes
	}
	mp := machine.Params{Cfg: hw, Prog: prog, Groups: groups, MemBytes: memBytes, Workers: o.workers}
	if o.prof {
		r.prof = &sim.Prof{}
		mp.Prof = r.prof
	}
	closeObs, err := x.attachObservers(c, o, &mp)
	if err != nil {
		r.err = err
		return r
	}
	var m *machine.Machine
	r.err = timed(o.tr, "machine.New", &r.newNs, func() error {
		var err error
		m, err = machine.New(mp)
		return err
	})
	if r.err != nil {
		closeObs(nil)
		return r
	}
	_ = timed(o.tr, "kernels.Apply", &r.applyNs, func() error {
		img.Apply(m.Global)
		return nil
	})
	r.setupCPU = cpuNow() - cpu0
	if o.setupOnly {
		closeObs(nil)
		m.Global.Recycle()
		return r
	}
	var ms0, ms1 runtime.MemStats
	if o.allocs {
		runtime.ReadMemStats(&ms0)
	}
	sp := o.tr.begin("machine.Run")
	tok := o.plane.Run().Begin(c.Bench, c.Cfg)
	run0 := cpuNow()
	st, err := m.Run(kernels.DefaultMaxCycles)
	r.runCPU = cpuNow() - run0
	o.plane.Run().End(tok, err)
	o.tr.end(sp)
	if o.allocs {
		runtime.ReadMemStats(&ms1)
		r.mallocs = ms1.Mallocs - ms0.Mallocs
	}
	r.st, r.runNs = st, st.WallNs
	if err != nil {
		closeObs(nil)
		r.err = err
		return r
	}
	r.cycles, r.instrs = st.Cycles, st.TotalInstrs()
	r.err = timed(o.tr, "kernels.Check", &r.checkNs, func() error {
		if err := img.Check(m.Global); err != nil {
			return fmt.Errorf("wrong result: %w", err)
		}
		return nil
	})
	if err := closeObs(&finished{m: m, st: st, groups: groups, hw: hw}); err != nil && r.err == nil {
		r.err = err
	}
	m.Global.Recycle()
	return r
}

// finished is what the end-of-cell observers read.
type finished struct {
	m      *machine.Machine
	st     *stats.Machine
	groups []*config.Group
	hw     config.Manycore
}

// attachObservers wires the selected observers into mp and returns the
// function that flushes them once the cell ends (f is nil on failure).
func (x *bench) attachObservers(c cell, o execOpts, mp *machine.Params) (func(f *finished) error, error) {
	none := func(*finished) error { return nil }
	if o.obs == (observers{}) {
		return none, nil
	}
	stem := filepath.Join(x.dir, sanitize(c.String()))
	cfg := trace.Config{}
	var file *os.File
	if o.obs.sampler {
		var err error
		if file, err = os.Create(stem + ".jsonl"); err != nil {
			return nil, fmt.Errorf("telemetry file: %w", err)
		}
		cfg.SampleTo = file
	}
	if o.obs.plane && o.plane != nil {
		fl := o.plane.Flight()
		key := c.String()
		cfg.Retain = func(w trace.Window) { fl.RetainKeyed(key, 1, w) }
		mp.Obs = o.plane
	}
	var sink *trace.Sink
	if cfg.SampleTo != nil || cfg.Retain != nil {
		sink = trace.NewSink(cfg)
		mp.Trace = sink
	}
	mp.Causal = o.obs.causal
	return func(f *finished) error {
		var err error
		if sink != nil {
			sp := o.tr.begin("trace.Sink.Close")
			err = sink.Close()
			o.tr.end(sp)
		}
		if file != nil {
			if cerr := file.Close(); err == nil && cerr != nil {
				err = fmt.Errorf("telemetry file: %w", cerr)
			}
		}
		if f == nil || err != nil {
			return err
		}
		var crit *causal.Report
		if o.obs.causal {
			sp := o.tr.begin("causal.BuildReport")
			crit = causal.BuildReport(f.m.CausalProfile())
			o.tr.end(sp)
		}
		if o.obs.report {
			sp := o.tr.begin("analyze.Report")
			rep := analyze.New(analyze.Meta{Bench: c.Bench, Config: c.Cfg, Scale: x.scale.String()},
				f.st, f.groups, f.hw)
			rep.CriticalPath = crit
			rep.Build = analyze.CurrentBuild()
			err = rep.WriteFile(stem + ".report.json")
			o.tr.end(sp)
		}
		return err
	}, nil
}

// runGPU runs a GPU cell the way kernels.ExecuteOpts does: prepare, build
// the launches, run them back to back on one device.
func (x *bench) runGPU(b kernels.Benchmark, p kernels.Params, r *cellResult, o execOpts) {
	r.gpu = true
	cpu0 := cpuNow()
	var img *kernels.Image
	r.err = timed(o.tr, "kernels.Prepare", &r.prepNs, func() error {
		var err error
		if img, err = b.Prepare(p); err != nil {
			return err
		}
		return img.Err()
	})
	if r.err != nil {
		return
	}
	var launches []gpu.Kernel
	r.err = timed(o.tr, "gpu.Kernels", &r.buildNs, func() error {
		var err error
		if launches, err = b.GPU(p, img); err != nil {
			return err
		}
		return img.Err()
	})
	r.setupCPU = cpuNow() - cpu0
	if r.err != nil || o.setupOnly {
		return
	}
	var total gpu.Stats
	r.err = timed(o.tr, "gpu.Run", &r.runNs, func() error {
		g := gpu.NewSim(config.GPUDefault())
		for _, k := range launches {
			st, err := g.Run(k, kernels.DefaultMaxCycles)
			if err != nil {
				return err
			}
			total.Add(st)
		}
		return nil
	})
	r.cycles = total.Cycles
	r.instrs = total.ComputeOps + total.LoadOps + total.StoreOps
}

// sanitize maps a cell name to a file stem.
func sanitize(s string) string {
	out := []byte(s)
	for i, ch := range out {
		ok := ch >= 'a' && ch <= 'z' || ch >= 'A' && ch <= 'Z' || ch >= '0' && ch <= '9' || ch == '-' || ch == '_'
		if !ok {
			out[i] = '_'
		}
	}
	return string(out)
}
