package mapreduce_test

// Engine-level tests of the external (out-of-core) dataflow: a plain
// word-count-shaped job with string keys and int values (built-in runio
// codecs) run with budgets tiny enough that every map task spills many
// runs, compared byte-for-byte against the typed in-memory engine. The
// strategy-level differential matrix lives in
// external_differential_test.go.

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/mapreduce"
)

// wordJob builds a typed job over (doc line → word counts): map emits
// (word, 1) per occurrence, an optional combiner pre-aggregates, reduce
// sums. Keys get the engine's string-prefix coding, exercising the
// coded-key disk layout with inexact codes.
func wordJob(r int, combine bool) *mapreduce.Job[string, string, int, mapreduce.Pair[string, int]] {
	j := &mapreduce.Job[string, string, int, mapreduce.Pair[string, int]]{
		Name:           "wordcount",
		NumReduceTasks: r,
		NewMapper: func() mapreduce.Mapper[string, string, int] {
			return &mapreduce.MapperFunc[string, string, int]{
				OnMap: func(ctx *mapreduce.MapContext[string, string, int], line string) {
					for _, w := range strings.Fields(line) {
						ctx.Emit(w, 1)
					}
				},
			}
		},
		NewReducer: func() mapreduce.Reducer[string, int, mapreduce.Pair[string, int]] {
			return &mapreduce.ReducerFunc[string, int, mapreduce.Pair[string, int]]{
				OnReduce: func(ctx *mapreduce.ReduceContext[mapreduce.Pair[string, int]], key string, values []mapreduce.Rec[string, int]) {
					sum := 0
					for _, v := range values {
						sum += v.Value
					}
					ctx.Emit(mapreduce.Pair[string, int]{Key: key, Value: sum})
					ctx.Inc("groups-seen", 1)
				},
			}
		},
		Partition: mapreduce.HashPartition,
		Compare:   strings.Compare,
		Coding:    mapreduce.KeyCoding[string]{Encode: mapreduce.StringPrefixCode},
	}
	if combine {
		j.NewCombiner = func() mapreduce.Combiner[string, string, int] {
			return &combinerFunc{}
		}
	}
	return j
}

type combinerFunc struct{}

func (combinerFunc) Configure(m, r, taskIndex int) {}
func (combinerFunc) Combine(ctx *mapreduce.MapContext[string, string, int], key string, values []mapreduce.Rec[string, int]) {
	sum := 0
	for _, v := range values {
		sum += v.Value
	}
	ctx.Emit(key, sum)
}

// wordInput builds m partitions of synthetic text with heavy key skew
// and adversarial words (tabs cannot appear in Fields output, but
// non-ASCII and long words can).
func wordInput(m int) [][]string {
	input := make([][]string, m)
	words := []string{"the", "quick", "brown", "fox", "日本語", "a",
		"longwordthatexceedsthesixteenbyteprefixcode-α", "longwordthatexceedsthesixteenbyteprefixcode-β"}
	for i := 0; i < m; i++ {
		for l := 0; l < 30; l++ {
			var b strings.Builder
			for w := 0; w < 8; w++ {
				b.WriteString(words[(i+l+w*w)%len(words)])
				b.WriteByte(' ')
			}
			input[i] = append(input[i], b.String())
		}
	}
	return input
}

// clearSpillCounters zeroes the external-only metrics fields so the
// rest of the Result can be compared byte-for-byte across dataflows.
func clearSpillCounters(ms []mapreduce.TaskMetrics) {
	for i := range ms {
		ms[i].SpillRuns = 0
		ms[i].SpillBytesWritten = 0
		ms[i].SpillBytesRead = 0
	}
}

func TestExternalWordCountDifferential(t *testing.T) {
	type namedInput struct {
		name  string
		input [][]string
	}
	var inputs []namedInput
	for m := 1; m <= 3; m++ {
		inputs = append(inputs, namedInput{fmt.Sprintf("m=%d", m), wordInput(m)})
	}
	// One map task far below every mid budget next to two far above
	// it: the reduce merge then mixes spilled and unspilled map outputs.
	skewed := wordInput(3)
	skewed[1] = []string{"fox a"}
	inputs = append(inputs, namedInput{"skewed", skewed})
	for _, combine := range []bool{false, true} {
		for _, budget := range []int64{1, 64, 200, 1 << 20} {
			for _, in := range inputs {
				name := fmt.Sprintf("combine=%v/budget=%d/%s", combine, budget, in.name)
				input := in.input
				job := wordJob(4, combine)

				typed, err := job.RunContext(t.Context(), &mapreduce.Engine{}, input)
				if err != nil {
					t.Fatalf("%s: typed: %v", name, err)
				}
				tmp := t.TempDir()
				ext, err := job.RunContext(t.Context(), &mapreduce.Engine{
					Dataflow:    mapreduce.DataflowExternal,
					SpillBudget: budget,
					TmpDir:      tmp,
				}, input)
				if err != nil {
					t.Fatalf("%s: external: %v", name, err)
				}

				if budget == 1 {
					// Every record triggers a spill: each map task must
					// have flushed at least 4 runs (the skewed input's
					// small task one per output record).
					for i := range ext.MapMetrics {
						if want := min(4, ext.MapMetrics[i].OutputRecords); ext.MapMetrics[i].SpillRuns < want {
							t.Errorf("%s: map task %d spilled %d runs, want >= %d",
								name, i, ext.MapMetrics[i].SpillRuns, want)
						}
					}
				}
				if budget >= 1<<20 {
					for i := range ext.MapMetrics {
						if ext.MapMetrics[i].SpillRuns != 0 {
							t.Errorf("%s: map task %d spilled despite huge budget", name, i)
						}
					}
				}
				if in.name == "skewed" && budget > 1 && budget < 1<<20 {
					var spilled, unspilled int
					for i := range ext.MapMetrics {
						if ext.MapMetrics[i].SpillRuns > 0 {
							spilled++
						} else {
							unspilled++
						}
					}
					if spilled == 0 || unspilled == 0 {
						t.Errorf("%s: %d map tasks spilled and %d did not, want both kinds", name, spilled, unspilled)
					}
				}
				clearSpillCounters(ext.MapMetrics)
				clearSpillCounters(ext.ReduceMetrics)
				if !reflect.DeepEqual(typed, ext) {
					t.Fatalf("%s: external Result diverges from typed\ntyped: %+v\nexternal: %+v", name, typed, ext)
				}

				// The per-Run spill directory must be gone.
				ents, err := os.ReadDir(tmp)
				if err != nil {
					t.Fatal(err)
				}
				if len(ents) != 0 {
					t.Fatalf("%s: temp dir not empty after Run: %v", name, ents)
				}
			}
		}
	}
}

// TestTypedNeverTouchesDisk pins that DataflowTyped is the external
// dataflow with no spill budget and nothing else: with TmpDir under a
// regular file, creating any directory or file there would fail the
// run.
func TestTypedNeverTouchesDisk(t *testing.T) {
	blocker := filepath.Join(t.TempDir(), "regular-file")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	input := wordInput(3)
	for _, combine := range []bool{false, true} {
		job := wordJob(4, combine)
		want, err := job.RunContext(t.Context(), &mapreduce.Engine{Dataflow: mapreduce.DataflowReference}, input)
		if err != nil {
			t.Fatalf("combine=%v: reference: %v", combine, err)
		}
		for _, par := range []int{1, 4} {
			got, err := job.RunContext(t.Context(), &mapreduce.Engine{
				Parallelism: par,
				TmpDir:      filepath.Join(blocker, "tmp"),
			}, input)
			if err != nil {
				t.Fatalf("combine=%v/par=%d: typed run with an unusable TmpDir: %v", combine, par, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("combine=%v/par=%d: typed Result diverges from the reference dataflow", combine, par)
			}
		}
	}
}

// TestExternalNoCoding runs the external dataflow without a KeyCoding
// (codeWidth 0 on disk, comparator-only merge).
func TestExternalNoCoding(t *testing.T) {
	input := wordInput(3)
	job := wordJob(4, true)
	job.Coding = mapreduce.KeyCoding[string]{}
	typed, err := job.RunContext(t.Context(), &mapreduce.Engine{}, input)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := job.RunContext(t.Context(), &mapreduce.Engine{
		Dataflow:    mapreduce.DataflowExternal,
		SpillBudget: 64,
		TmpDir:      t.TempDir(),
	}, input)
	if err != nil {
		t.Fatal(err)
	}
	clearSpillCounters(ext.MapMetrics)
	clearSpillCounters(ext.ReduceMetrics)
	if !reflect.DeepEqual(typed, ext) {
		t.Fatal("external (no coding) Result diverges from typed")
	}
}

// TestExternalTempCleanupOnError proves the spill directory is removed
// even when a reduce task fails mid-merge (with runs on disk).
func TestExternalTempCleanupOnError(t *testing.T) {
	input := wordInput(3)
	job := wordJob(4, false)
	job.NewReducer = func() mapreduce.Reducer[string, int, mapreduce.Pair[string, int]] {
		return &mapreduce.ReducerFunc[string, int, mapreduce.Pair[string, int]]{
			OnReduce: func(ctx *mapreduce.ReduceContext[mapreduce.Pair[string, int]], key string, values []mapreduce.Rec[string, int]) {
				panic("injected reducer failure")
			},
		}
	}
	tmp := t.TempDir()
	_, err := job.RunContext(t.Context(), &mapreduce.Engine{
		Dataflow:    mapreduce.DataflowExternal,
		SpillBudget: 1,
		TmpDir:      tmp,
	}, input)
	if err == nil || !strings.Contains(err.Error(), "injected reducer failure") {
		t.Fatalf("err = %v, want injected reducer failure", err)
	}
	ents, rerr := os.ReadDir(tmp)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if len(ents) != 0 {
		t.Fatalf("temp dir not cleaned up after reducer error: %v", ents)
	}

	// Same for a map-side failure.
	job2 := wordJob(4, false)
	job2.NewMapper = func() mapreduce.Mapper[string, string, int] {
		return &mapreduce.MapperFunc[string, string, int]{
			OnMap: func(ctx *mapreduce.MapContext[string, string, int], line string) {
				ctx.Emit("w", 1)
				panic("injected mapper failure")
			},
		}
	}
	if _, err := job2.RunContext(t.Context(), &mapreduce.Engine{Dataflow: mapreduce.DataflowExternal, SpillBudget: 1, TmpDir: tmp}, input); err == nil {
		t.Fatal("map-side failure not reported")
	}
	if ents, _ := os.ReadDir(tmp); len(ents) != 0 {
		t.Fatalf("temp dir not cleaned up after mapper error: %v", ents)
	}
}

// TestExternalMissingCodec: a key type nobody registered a codec for
// must fail up front with a descriptive error, not per record.
func TestExternalMissingCodec(t *testing.T) {
	type unregisteredKey struct{ X int }
	job := &mapreduce.Job[string, unregisteredKey, int, string]{
		Name:           "nocodec",
		NumReduceTasks: 1,
		NewMapper: func() mapreduce.Mapper[string, unregisteredKey, int] {
			return &mapreduce.MapperFunc[string, unregisteredKey, int]{
				OnMap: func(ctx *mapreduce.MapContext[string, unregisteredKey, int], s string) {},
			}
		},
		NewReducer: func() mapreduce.Reducer[unregisteredKey, int, string] {
			return &mapreduce.ReducerFunc[unregisteredKey, int, string]{
				OnReduce: func(ctx *mapreduce.ReduceContext[string], k unregisteredKey, vs []mapreduce.Rec[unregisteredKey, int]) {
				},
			}
		},
		Partition: func(k unregisteredKey, r int) int { return 0 },
		Compare:   func(a, b unregisteredKey) int { return a.X - b.X },
	}
	_, err := job.RunContext(t.Context(), &mapreduce.Engine{Dataflow: mapreduce.DataflowExternal}, [][]string{{"x"}})
	if err == nil || !strings.Contains(err.Error(), "no runio codec") {
		t.Fatalf("err = %v, want missing-codec error", err)
	}
}
