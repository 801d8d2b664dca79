package main

import (
	"time"

	"rockcress/internal/stats"
)

// metric is one named, unit-carrying measurement.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEnd times the workload closed-loop: one untimed warm-up pass (the
// mem.Global pool and the Go heap grow lazily), then passes back to back
// until seconds have elapsed. Timings are medians over the timed passes,
// in process CPU time: on a shared host, wall time moves with the time
// other tenants steal, CPU time far less. The median pass wall time is
// returned for the report.
func (x *bench) endToEnd(seconds float64) (ms []metric, wallS float64, passes int) {
	x.pass()
	var mc, cpu, wall, setup []float64
	start := time.Now()
	for len(cpu) == 0 || time.Since(start).Seconds() < seconds {
		pr := x.pass()
		mc = append(mc, pr.mcyclesPerCPUS())
		cpu = append(cpu, float64(pr.cpuNs)/1e9)
		wall = append(wall, float64(pr.wallNs)/1e9)
		setup = append(setup, float64(pr.setupCPU)/1e9)
	}
	return []metric{
		{"sim_mcycles_per_cpu_s", median(mc), "Mcycles/s"},
		{"pass_cpu_s", median(cpu), "s"},
		{"setup_s", median(setup), "s"},
		{"peak_rss_mb", peakRSSMB(), "MB"},
		{"ok_frac", ratio(float64(x.attempted-x.failed), float64(x.attempted)), "ratio"},
	}, median(wall), len(cpu)
}

// layerSums aggregates the traced pass's manycore cells.
type layerSums struct {
	stageNs, stageTicks                 map[string]float64
	ffNs, ffSkips                       float64
	wallNs, cycles, instrs              float64
	hops, hotHops, llcAcc, llcMiss      float64
	dramBusy, coreCycles, frame, inet   float64
	skipped, mallocs                    float64
	prep, build, lower, newM, apply, ck float64
}

func sumLayers(cells []cellResult) layerSums {
	s := layerSums{stageNs: map[string]float64{}, stageTicks: map[string]float64{}}
	for i := range cells {
		r := &cells[i]
		s.prep += float64(r.prepNs)
		s.build += float64(r.buildNs)
		s.lower += float64(r.lowerNs)
		s.newM += float64(r.newNs)
		s.apply += float64(r.applyNs)
		s.ck += float64(r.checkNs)
		if r.gpu || r.st == nil {
			continue
		}
		st := r.st
		if r.prof != nil {
			for _, m := range r.prof.Stages {
				s.stageNs[m.Name] += float64(m.Ns)
				s.stageTicks[m.Name] += float64(m.Ticks)
			}
			s.ffNs += float64(r.prof.FastForward.Ns)
			s.ffSkips += float64(r.prof.FastForward.Ticks)
		}
		s.wallNs += float64(st.WallNs)
		s.cycles += float64(st.Cycles)
		s.instrs += float64(st.TotalInstrs())
		s.hops += float64(st.NocHops)
		s.hotHops += float64(max(st.NocReqHotHops, st.NocRespHotHops))
		for _, l := range st.LLCs {
			s.llcAcc += float64(l.Accesses)
			s.llcMiss += float64(l.Misses)
		}
		s.dramBusy += float64(st.DramBusy)
		for _, c := range st.Cores {
			s.coreCycles += float64(c.Cycles)
			s.frame += float64(c.Stall(stats.StallFrame))
			s.inet += float64(c.Stall(stats.StallInet))
		}
		s.skipped += float64(st.SkippedCycles)
		s.mallocs += float64(r.mallocs)
	}
	return s
}

// stageMetrics derives the engine-stage metrics: ns per stepped cycle, ns
// per unit of the stage's work, and share of machine.Run wall time.
func (s *layerSums) stageMetrics() []metric {
	ns := func(stage string) float64 { return s.stageNs[stage] }
	perTick := func(stage string) float64 { return ratio(ns(stage), s.stageTicks[stage]) }
	var stageTotal float64
	for _, v := range s.stageNs {
		stageTotal += v
	}
	probes := s.stageTicks["mesh"] + s.ffSkips
	return []metric{
		{"noc.ns_per_cycle", perTick("mesh"), "ns/cycle"},
		{"noc.ns_per_hop", ratio(ns("mesh"), s.hops), "ns/hop"},
		{"noc.share", ratio(ns("mesh"), s.wallNs), "ratio"},
		{"noc.hops_per_cycle", ratio(s.hops, s.cycles), "hops/cycle"},
		{"noc.hot_link_busy_frac", ratio(s.hotHops, s.cycles), "ratio"},
		{"cpu.ns_per_cycle", perTick("cores"), "ns/cycle"},
		{"cpu.ns_per_instr", ratio(ns("cores"), s.instrs), "ns/instr"},
		{"cpu.share", ratio(ns("cores"), s.wallNs), "ratio"},
		{"cpu.frame_stall_frac", ratio(s.frame, s.coreCycles), "ratio"},
		{"cpu.inet_stall_frac", ratio(s.inet, s.coreCycles), "ratio"},
		{"mem.ns_per_cycle", perTick("mem"), "ns/cycle"},
		{"mem.ns_per_access", ratio(ns("mem"), s.llcAcc), "ns/access"},
		{"mem.share", ratio(ns("mem"), s.wallNs), "ratio"},
		{"llc.miss_rate", ratio(s.llcMiss, s.llcAcc), "ratio"},
		{"dram.busy_frac", ratio(s.dramBusy, s.cycles), "ratio"},
		{"sim.skipped_frac", ratio(s.skipped, s.cycles), "ratio"},
		{"sim.ff_ns_per_probe", ratio(s.ffNs, probes), "ns/probe"},
		{"sim.loop_ns_per_cycle", ratio(s.wallNs-stageTotal-s.ffNs, s.cycles), "ns/cycle"},
		{"machine.allocs_per_kcycle", ratio(s.mallocs, s.cycles/1000), "allocs/kcycle"},
	}
}

// perLayer is the traced run. After the warm-up it runs each of the
// workload's cells serially through the instrumented executor in six
// variants: untraced (the reference), traced (spans, stage self-profile, a
// separate lowering call, allocation count), at two engine workers, and
// with all, only the sampler, or only the causal observer on. A cell's
// variants run back to back, in an order rotated from cell to cell, so the
// ratios between variants compare runs made close together in time. Then
// the GPU model on the workload's kernels, the harness pool, and the noc
// microbenchmarks.
func (x *bench) perLayer(tr *tracer) ([]metric, error) {
	warm := x.pass()
	cells := x.cells(warm)
	variants := []execOpts{
		{},
		{tr: tr, prof: true, lower: true, allocs: true},
		{workers: 2},
		x.withPlane(execOpts{obs: allObservers}),
		{obs: observers{sampler: true}},
		{obs: observers{causal: true}},
	}
	prs := make([]passResult, len(variants))
	for ci, c := range cells {
		for k := range variants {
			i := (ci + k) % len(variants)
			x.runInto(&prs[i], c, variants[i])
		}
	}
	base, traced, j2, all, smp, cau := prs[0], prs[1], prs[2], prs[3], prs[4], prs[5]
	// Overheads compare CPU time, which stolen time does not inflate; the
	// two-worker engine is judged on machine.Run wall time, its purpose.
	overhead := func(p passResult) float64 { return ratio(float64(p.cpuNs), float64(base.cpuNs)) - 1 }

	gpuPass := x.directPass(gpuCells(cells), execOpts{})
	var gpuNs int64
	for _, r := range gpuPass.cells {
		gpuNs += r.runNs
	}
	poolWall, poolRun := x.poolPass(cells)
	uni, err := nocMicro(x.seed, false)
	if err != nil {
		return nil, err
	}
	hot, err := nocMicro(x.seed, true)
	if err != nil {
		return nil, err
	}

	s := sumLayers(traced.cells)
	ms := []metric{
		{"kernels.prepare_ms", s.prep / 1e6, "ms"},
		{"prog.build_ms", s.build / 1e6, "ms"},
		{"cpu.lower_ms", s.lower / 1e6, "ms"},
		{"machine.new_ms", s.newM / 1e6, "ms"},
		{"kernels.apply_ms", s.apply / 1e6, "ms"},
		{"kernels.check_ms", s.ck / 1e6, "ms"},
		{"setup.share", ratio(float64(base.setupNs), float64(base.wallNs)), "ratio"},
	}
	ms = append(ms, s.stageMetrics()...)
	return append(ms,
		metric{"sim.j2_over_serial", ratio(float64(j2.runNs), float64(base.runNs)), "ratio"},
		metric{"gpu.run_ms", float64(gpuNs) / 1e6, "ms"},
		metric{"harness.pool_busy_frac", ratio(float64(poolRun), float64(poolWall)*float64(x.jobs)), "ratio"},
		metric{"observe.overhead_frac", overhead(all), "ratio"},
		metric{"trace.sampler_overhead_frac", overhead(smp), "ratio"},
		metric{"causal.overhead_frac", overhead(cau), "ratio"},
		metric{"bench.trace_overhead_frac", overhead(traced), "ratio"},
		metric{"noc.micro_uniform_ns_per_hop", uni, "ns/hop"},
		metric{"noc.micro_hotspot_ns_per_hop", hot, "ns/hop"},
	), nil
}

// gpuCells runs each distinct kernel of cells on the GPU model.
func gpuCells(cells []cell) []cell {
	var out []cell
	seen := map[string]bool{}
	for _, c := range cells {
		if !seen[c.Bench] {
			seen[c.Bench] = true
			out = append(out, cell{Bench: c.Bench, Cfg: "GPU"})
		}
	}
	return out
}
