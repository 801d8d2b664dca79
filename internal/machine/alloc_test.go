package machine_test

import (
	"testing"

	"rockcress/internal/config"
	"rockcress/internal/kernels"
	"rockcress/internal/machine"
	"rockcress/internal/metrics"
)

// buildForAllocTest assembles a ready-to-run machine for one kernel and
// software preset, mirroring kernels.Execute up to (but excluding) Run.
// obs, when non-nil, binds the machine to a live observability plane; hw,
// when non-nil, adjusts the hardware configuration after the preset.
func buildForAllocTest(t *testing.T, benchName, cfgName string, obs *metrics.Plane, hwFn func(*config.Manycore)) *machine.Machine {
	t.Helper()
	bench, err := kernels.Get(benchName)
	if err != nil {
		t.Fatal(err)
	}
	p := bench.Defaults(kernels.Tiny)
	sw, err := config.Preset(cfgName)
	if err != nil {
		t.Fatal(err)
	}
	hw := sw.Apply(config.ManycoreDefault())
	if hwFn != nil {
		hwFn(&hw)
	}
	groups, err := kernels.GroupsFor(sw, hw)
	if err != nil {
		t.Fatal(err)
	}
	img, err := bench.Prepare(p)
	if err != nil {
		t.Fatal(err)
	}
	ctx := kernels.NewCtx(p, img, sw, hw, groups)
	if err := bench.Build(ctx); err != nil {
		t.Fatal(err)
	}
	prog, err := ctx.B.Build()
	if err != nil {
		t.Fatal(err)
	}
	memBytes := img.SizeBytes()
	if memBytes < machine.DefaultMemBytes {
		memBytes = machine.DefaultMemBytes
	}
	m, err := machine.New(machine.Params{Cfg: hw, Prog: prog, Groups: groups, MemBytes: memBytes, Obs: obs})
	if err != nil {
		t.Fatal(err)
	}
	img.Apply(m.Global)
	return m
}

// TestSteadyStateAllocs single-steps busy machines and asserts the steady
// state allocates nothing per cycle: pre-lowered dispatch, arena-backed
// flits, and pooled frames mean a warm machine's tick path never touches
// the heap. The warm-up grows every lazily sized buffer (LLC job rings,
// mesh move scratch, expander queues) before the measured window.
func TestSteadyStateAllocs(t *testing.T) {
	cases := []struct {
		name, bench, cfg string
		hw               func(*config.Manycore)
	}{
		{"mvt/NV", "mvt", "NV", nil},   // scalar MIMD: heavy request/response mesh traffic
		{"gemm/V4", "gemm", "V4", nil}, // vector groups: expanders, frames, wide responses
		// DRAM starved to 2 B/cycle: the in-flight heap stays deep and bank
		// heads block on full MSHRs, so the blocked-head park/wake path and
		// heap push/pop run throughout the window.
		{"mvt/V4/dram2", "mvt", "V4", func(c *config.Manycore) { c.DRAMBandwidth = 2 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := buildForAllocTest(t, tc.bench, tc.cfg, nil, tc.hw)
			for i := 0; i < 3000; i++ {
				m.Step()
			}
			avg := testing.AllocsPerRun(1000, func() { m.Step() })
			if avg != 0 {
				t.Errorf("steady-state tick allocates: %.3f allocs/cycle", avg)
			}
		})
	}
}

// TestSteadyStateAllocsWithPlane re-runs the allocation gate with the full
// observability plane attached — registry cells registered, machine bound,
// and a live introspection listener up. Publishing the registry must be
// plain atomic stores into pre-registered cells: the plane may not cost the
// steady state a single allocation. (AllocsPerRun measures process-global
// allocations, so the listener is up but idle during the measured window;
// concurrent scrape safety is the conservation test's job.)
func TestSteadyStateAllocsWithPlane(t *testing.T) {
	plane := metrics.NewPlane("")
	srv, err := metrics.Serve("127.0.0.1:0", plane)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cases := []struct{ bench, cfg string }{
		{"mvt", "NV"},
		{"gemm", "V4"},
	}
	for _, tc := range cases {
		t.Run(tc.bench+"/"+tc.cfg, func(t *testing.T) {
			m := buildForAllocTest(t, tc.bench, tc.cfg, plane, nil)
			defer m.ReleaseObs()
			if !m.ObsBound() {
				t.Fatal("machine did not bind to the plane")
			}
			for i := 0; i < 3000; i++ {
				m.Step()
			}
			m.PublishMetrics()
			avg := testing.AllocsPerRun(1000, func() {
				m.Step()
				m.PublishMetrics()
			})
			if avg != 0 {
				t.Errorf("steady-state tick+publish allocates: %.3f allocs/cycle", avg)
			}
		})
	}
}
