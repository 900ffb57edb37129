package main

import (
	"context"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
)

// smokeScale shrinks each workload to about a thousand entities.
var smokeScale = map[string]float64{
	"ds1-blocksplit-mem":  0.01,
	"ds2-pairrange-spill": 0.002,
	"ds1-pairrange-dist":  0.01,
}

func TestSeedDeterminesInput(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			scale := smokeScale[w.name]
			a, b := w.generate(7, scale), w.generate(7, scale)
			if da, db := inputDigest(a.parts), inputDigest(b.parts); da != db {
				t.Fatalf("seed 7 generated two inputs: %s vs %s", da[:12], db[:12])
			}
			c := w.generate(8, scale)
			if inputDigest(a.parts) == inputDigest(c.parts) {
				t.Fatal("seeds 7 and 8 generated the same input")
			}
			// Same shape: entity count, partition sizes, duplicates.
			if len(a.entities) != len(c.entities) || len(a.parts) != len(c.parts) {
				t.Fatalf("shape differs: %d entities in %d partitions vs %d in %d",
					len(a.entities), len(a.parts), len(c.entities), len(c.parts))
			}
			for i := range a.parts {
				if len(a.parts[i]) != len(c.parts[i]) {
					t.Errorf("partition %d: %d vs %d entities", i, len(a.parts[i]), len(c.parts[i]))
				}
			}
			if da, dc := duplicates(a), duplicates(c); da != dc {
				t.Errorf("duplicates: %d vs %d", da, dc)
			}
		})
	}
}

func duplicates(in *input) int {
	n := 0
	for _, e := range in.entities {
		if strings.HasPrefix(e.ID, "d") {
			n++
		}
	}
	return n
}

// TestSmoke runs every workload at a tiny scale, untraced and traced,
// and requires every job to pass its output check and, when traced,
// its ledgers.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name := w.name
			if trace {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				if smokeScale[w.name] == 0 {
					t.Fatal("workload has no smoke scale")
				}
				dir := t.TempDir()
				rep, err := run(context.Background(), runConfig{
					w: w, seed: 3, seconds: 0.2, trace: trace, scale: smokeScale[w.name], dir: dir,
				})
				if err != nil {
					t.Fatal(err)
				}
				if rep.failed != 0 || rep.attempted < 2 {
					t.Fatalf("attempted %d, failed %d: %v", rep.attempted, rep.failed, rep.detail["failures"])
				}
				want := map[string]bool{}
				if trace {
					for _, p := range perLayer {
						want[p.name] = true
					}
				} else {
					for _, n := range []string{"setup_s", "job_s_p50", "pairs_per_s", "cpu_s_per_job", "alloc_mb_per_job", "peak_heap_mb"} {
						want[n] = true
					}
				}
				for _, m := range rep.metrics {
					if !want[m.name] {
						t.Errorf("unexpected metric %s", m.name)
					}
					delete(want, m.name)
				}
				for n := range want {
					t.Errorf("missing metric %s", n)
				}
				// Spill and worker run files are gone; a traced run
				// leaves its span dump.
				entries, err := os.ReadDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				var left []string
				for _, e := range entries {
					left = append(left, e.Name())
				}
				wantLeft := 0
				if trace {
					wantLeft = 1
				}
				if len(left) != wantLeft {
					t.Errorf("run left %v in its directory", left)
				}
			})
		}
	}
}

func TestTailPercentile(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(40 - i)
	}
	pct, v, ok := tailPercentile(xs)
	if !ok || pct != 75 || v != 30 {
		t.Fatalf("tailPercentile(1..40) = p%d %v %v, want p75 30 true", pct, v, ok)
	}
	if _, _, ok := tailPercentile(xs[:10]); ok {
		t.Fatal("ten samples support no tail percentile")
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

// TestBenchmarkJSON keeps ../BENCHMARK.json and the code in step: the
// same workloads, and every metric the code reports declared with the
// unit it reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	var code []string
	for _, w := range workloads {
		code = append(code, w.name)
	}
	if !slices.Equal(names, code) {
		t.Errorf("workloads: BENCHMARK.json %v, code %v", names, code)
	}
	var e2e []decl
	for _, m := range endToEnd([]sample{{wallS: 1, comparisons: 1}}, 1) {
		e2e = append(e2e, decl{m.name, m.unit})
	}
	if !slices.Equal(bench.EndToEnd, e2e) {
		t.Errorf("end_to_end: BENCHMARK.json %v, code %v", bench.EndToEnd, e2e)
	}
	var layer []decl
	for _, p := range perLayer {
		layer = append(layer, decl{p.name, p.unit})
	}
	if !slices.Equal(bench.PerLayer, layer) {
		t.Errorf("per_layer: BENCHMARK.json %v, code %v", bench.PerLayer, layer)
	}
}
