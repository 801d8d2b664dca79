package main

import (
	"fmt"

	"rockcress/internal/config"
	"rockcress/internal/harness"
	"rockcress/internal/kernels"
)

// cell is one simulation of a workload: a benchmark under a Table 3
// configuration name ("GPU" selects the GPU model).
type cell struct {
	Bench string `json:"bench"`
	Cfg   string `json:"cfg"`
}

func (c cell) String() string { return c.Bench + "/" + c.Cfg }

// workload is one named set of cells. The three direct workloads run their
// cells back to back on the serial engine through the benchmark's own
// instrumented executor; the sweep workload runs through harness.Runner.
type workload struct {
	Name  string `json:"name"`
	Why   string `json:"why"`
	Scale string `json:"scale"`
	// Fabric describes HW, the change to the Table 1a machine.
	Fabric string                 `json:"fabric"`
	HW     func(*config.Manycore) `json:"-"`
	// Cells is nil for the sweep workload, whose cells are whatever the
	// harness figure generators run.
	Cells []cell `json:"cells,omitempty"`
	// TinyCells, when set, replaces Cells at tiny scale.
	TinyCells []cell `json:"tiny_cells,omitempty"`
	Sweep     bool   `json:"sweep,omitempty"`
}

// scale returns the kernels scale the workload runs at; tiny forces every
// workload down to tiny inputs (the smoke mode the tests use).
func (w *workload) scale(tiny bool) kernels.Scale {
	if tiny {
		return kernels.Tiny
	}
	s, err := kernels.ParseScale(w.Scale)
	if err != nil {
		panic(fmt.Sprintf("perfbench: invariant: workload %s: %v", w.Name, err))
	}
	return s
}

// hw returns the workload's base machine before a software row applies.
func (w *workload) hw() config.Manycore {
	hw := config.ManycoreDefault()
	if w.HW != nil {
		w.HW(&hw)
	}
	return hw
}

func cross(benches, cfgs []string) []cell {
	var out []cell
	for _, b := range benches {
		for _, c := range cfgs {
			out = append(out, cell{Bench: b, Cfg: c})
		}
	}
	return out
}

// sweepConfigs are the configuration names Fig 10 and Fig 14 request.
func sweepConfigs() []string {
	cfgs := []string{"NV", "NV_PF", "PCV_PF"}
	cfgs = append(cfgs, harness.BestVConfigs...)
	cfgs = append(cfgs, harness.BestVPCVConfigs...)
	return append(cfgs, "GPU")
}

// workloads are chosen so that each loads a different simulator layer (the
// stage shares are asserted by TestStageMix):
//   - mimd_mesh: MIMD scalar loads on a 256-tile fabric flood the mesh, so a
//     noc optimisation shows and a mem one barely does;
//   - vector_dense: software vector groups spend most host time in the cores
//     stage (lowered dispatch, inet forwarding, frame counters);
//   - dram_bound: a starved DRAM channel makes the mem stage dominate while
//     cores and mesh sit parked;
//   - observed_sweep: many short cells through the harness pool with every
//     observer on, so setup, harness, gpu and the observers weigh most.
var workloads = []*workload{
	{
		Name:   "mimd_mesh",
		Why:    "MIMD scalar loads on a 16x16 fabric: the mesh stage dominates host time",
		Scale:  "small",
		Fabric: "16x16 tiles, 32 LLC banks, 256 kB total LLC (Fig 11 shrink rule, grown)",
		HW: func(c *config.Manycore) {
			c.MeshWidth, c.MeshHeight, c.Cores = 16, 16, 256
			c.LLCBanks = 32
		},
		Cells: cross([]string{"mvt", "syrk", "bicg", "gemm"}, []string{"NV"}),
		// mvt and bicg split rows over all 256 cores, which tiny inputs
		// (N=64) cannot fill.
		TinyCells: cross([]string{"syrk", "gemm"}, []string{"NV"}),
	},
	{
		Name:   "vector_dense",
		Why:    "dense kernels on V4/V16 vector groups: the cores stage (dispatch, inet, frames) dominates",
		Scale:  "small",
		Fabric: "Table 1a 8x8",
		Cells: cross([]string{"2dconv", "3dconv", "fdtd-2d", "gemm", "2mm", "3mm", "corr", "covar", "syrk"},
			[]string{"V4", "V16"}),
	},
	{
		Name:   "dram_bound",
		Why:    "DRAM bandwidth cut to 2 B/cycle: the mem stage dominates, cores and mesh are parked",
		Scale:  "small",
		Fabric: "Table 1a 8x8 with DRAM bandwidth 2 B/cycle",
		HW:     func(c *config.Manycore) { c.DRAMBandwidth = 2 },
		Cells:  cross([]string{"atax", "mvt"}, []string{"NV_PF", "V4"}),
	},
	{
		Name:   "observed_sweep",
		Why:    "Fig 10 then Fig 14 through the harness pool with every observer on: setup, harness, gpu and observers weigh most",
		Scale:  "tiny",
		Fabric: "Table 1a 8x8; GPU cells on the GPU model",
		Sweep:  true,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// software resolves a configuration name to its Table 3 row.
func software(name string) (config.Software, error) {
	if name == "GPU" {
		return kernels.GPUSoftware(), nil
	}
	return config.Preset(name)
}
