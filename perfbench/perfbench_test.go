package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// spec is the metric list BENCHMARK.json declares.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func tinyBench(t *testing.T, w *workload, seed int64) *bench {
	t.Helper()
	x, err := newBench(w, true, seed, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if x.fps, err = recorded(); err != nil {
		t.Fatal(err)
	}
	return x
}

// checkMetrics asserts ms holds exactly the declared metrics with their units.
func checkMetrics(t *testing.T, ms []metric, want map[string]string) {
	t.Helper()
	got := map[string]string{}
	for _, m := range ms {
		if _, dup := got[m.Name]; dup {
			t.Errorf("metric %s emitted twice", m.Name)
		}
		got[m.Name] = m.Unit
	}
	for name, unit := range want {
		if u, ok := got[name]; !ok {
			t.Errorf("metric %s not emitted", name)
		} else if u != unit {
			t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", name, u, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("metric %s emitted but not declared in BENCHMARK.json", name)
		}
	}
}

// TestShortMode runs every workload once on tiny inputs, untraced and
// traced, and checks the metric names, units, spans, stage accounting and
// result line.
func TestShortMode(t *testing.T) {
	s := loadSpec(t)
	e2e, layer := map[string]string{}, map[string]string{}
	for _, m := range s.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range s.PerLayer {
		layer[m.Name] = m.Unit
	}
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, perfbench has %d", len(s.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if s.Workloads[i].Name != w.Name {
			t.Fatalf("workload %d: BENCHMARK.json says %s, perfbench has %s", i, s.Workloads[i].Name, w.Name)
		}
		t.Run(w.Name, func(t *testing.T) {
			x := tinyBench(t, w, 3)
			ms, _, n := x.endToEnd(0)
			if n != 1 {
				t.Errorf("endToEnd(0) ran %d timed passes, want 1", n)
			}
			checkMetrics(t, ms, e2e)
			tr := newTracer()
			lms, err := x.perLayer(tr)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, lms, layer)
			if x.failed != 0 {
				t.Fatalf("%d of %d cells failed: %v", x.failed, x.attempted, x.errs)
			}
			checkSpans(t, tr.spans)
			val := map[string]float64{}
			for _, m := range lms {
				val[m.Name] = m.Value
			}
			// The engine's stage total cannot exceed machine.Run wall time.
			if sum := val["noc.share"] + val["cpu.share"] + val["mem.share"]; sum <= 0 || sum > 1 {
				t.Errorf("stage shares sum to %.3f of Run wall, want (0, 1]", sum)
			}
			if val["sim.loop_ns_per_cycle"] < 0 {
				t.Errorf("sim.loop_ns_per_cycle = %g < 0: stage time exceeds Run wall", val["sim.loop_ns_per_cycle"])
			}
			var buf bytes.Buffer
			if err := printResult(&buf, x, ms); err != nil {
				t.Fatal(err)
			}
			var res map[string]json.RawMessage
			if err := json.Unmarshal(buf.Bytes(), &res); err != nil {
				t.Fatal(err)
			}
			if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
				t.Errorf("result line keys: %s", buf.String())
			}
		})
	}
}

// checkSpans asserts every span closes after it opens and nests inside its
// parent, within the parent's cell.
func checkSpans(t *testing.T, spans []span) {
	t.Helper()
	if len(spans) == 0 {
		t.Fatal("traced run recorded no spans")
	}
	byID := map[int]span{}
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("span %d %s ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			if !strings.HasPrefix(s.Name, "cell ") {
				t.Errorf("root span %d is %s, want a cell", s.ID, s.Name)
			}
		} else {
			p, ok := byID[s.Parent]
			switch {
			case !ok:
				t.Errorf("span %d %s: parent %d not recorded before it", s.ID, s.Name, s.Parent)
			case s.Start < p.Start || s.End > p.End:
				t.Errorf("span %d %s [%d,%d] escapes parent %s [%d,%d]", s.ID, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
			case s.Cell != p.Cell:
				t.Errorf("span %d %s in cell %d, parent in cell %d", s.ID, s.Name, s.Cell, p.Cell)
			}
		}
		byID[s.ID] = s
	}
}

// TestStageMix checks each direct workload loads the layer it was chosen
// for, at the benchmark's own scale, and that the sweep has the largest
// set-up share.
func TestStageMix(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload at full benchmark scale")
	}
	want := map[string]string{"mimd_mesh": "mesh", "vector_dense": "cores", "dram_bound": "mem"}
	setupShare := map[string]float64{}
	for _, w := range workloads {
		x, err := newBench(w, false, 1, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if x.fps, err = recorded(); err != nil {
			t.Fatal(err)
		}
		cells := x.cells(x.pass())
		pr := x.directPass(cells, execOpts{prof: true})
		if x.failed != 0 {
			t.Fatalf("%s: %v", w.Name, x.errs)
		}
		setupShare[w.Name] = ratio(float64(pr.setupNs), float64(pr.wallNs))
		s := sumLayers(pr.cells)
		top, topNs := "", 0.0
		for stage, ns := range s.stageNs {
			if ns > topNs {
				top, topNs = stage, ns
			}
		}
		t.Logf("%s: stages %v ns, Run wall %.0f ns, setup share %.4f", w.Name, s.stageNs, s.wallNs, setupShare[w.Name])
		if stage, ok := want[w.Name]; ok && top != stage {
			t.Errorf("%s: largest stage is %s, want %s", w.Name, top, stage)
		}
	}
	for name, share := range setupShare {
		if name != "observed_sweep" && share >= setupShare["observed_sweep"] {
			t.Errorf("%s setup share %.4f >= observed_sweep's %.4f", name, share, setupShare["observed_sweep"])
		}
	}
}

// TestFingerprintsSeedIndependent runs every workload's cells, and their
// kernels on the GPU model, at two more seeds: the recorded fingerprints
// must hold for any input seed.
func TestFingerprintsSeedIndependent(t *testing.T) {
	for _, seed := range []int64{2, 99} {
		for _, w := range workloads {
			x := tinyBench(t, w, seed)
			cells := x.cells(x.pass())
			x.directPass(cells, execOpts{})
			x.directPass(gpuCells(cells), execOpts{})
			if x.failed != 0 {
				t.Errorf("seed %d %s: %d of %d cells failed: %v", seed, w.Name, x.failed, x.attempted, x.errs)
			}
		}
	}
}
