package mapreduce_test

// This file checks the production dataflows against the serial
// reference dataflow (DataflowReference), the plain model of Section
// II: map every record, bucket by part, concatenate each reduce task's
// buckets in map-task order, stable-sort by comp, reduce each group.
// Random jobs over random inputs must produce the identical Result:
// output, side output and every TaskMetrics field (the external
// dataflow's spill counters excepted).

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/mapreduce"
)

// randomJob builds a job with composite keys whose partition, sort, and
// group functions exercise different key components.
func randomJob(r int) *mapreduce.Job[int, ckey, int, mapreduce.Pair[ckey, string]] {
	return &mapreduce.Job[int, ckey, int, mapreduce.Pair[ckey, string]]{
		Name:           "differential",
		NumReduceTasks: r,
		NewMapper: func() mapreduce.Mapper[int, ckey, int] {
			return &mapreduce.MapperFunc[int, ckey, int]{
				OnMap: func(ctx *mapreduce.MapContext[int, ckey, int], v int) {
					// Deterministic fan-out of 1-3 records per input.
					n := v%3 + 1
					for i := 0; i < n; i++ {
						ctx.Emit(ckey{A: v % 5, B: (v + i) % 7, C: v % 2}, v*10+i)
					}
				},
			}
		},
		NewReducer: func() mapreduce.Reducer[ckey, int, mapreduce.Pair[ckey, string]] {
			return &mapreduce.ReducerFunc[ckey, int, mapreduce.Pair[ckey, string]]{
				OnReduce: func(ctx *mapreduce.ReduceContext[mapreduce.Pair[ckey, string]], key ckey, values []mapreduce.Rec[ckey, int]) {
					// The value sequence, in arrival order, makes the
					// output sensitive to the merge order of equal keys.
					var b strings.Builder
					for _, v := range values {
						fmt.Fprintf(&b, "%d/%d ", v.Key.C, v.Value)
					}
					ctx.Emit(mapreduce.Pair[ckey, string]{Key: key, Value: b.String()})
				},
			}
		},
		Partition: func(key ckey, r int) int { return key.A % r },
		Compare:   compareCKeys,
		// Group on (A, B) only: coarser than the sort.
		Group: func(x, y ckey) int { return compareCKeys(ckey{A: x.A, B: x.B}, ckey{A: y.A, B: y.B}) },
	}
}

// passThroughCombiner re-emits each value under its own key: it changes
// nothing but still exercises the map-side grouping machinery.
type passThroughCombiner struct{}

func (passThroughCombiner) Configure(m, r, taskIndex int) {}
func (passThroughCombiner) Combine(ctx *mapreduce.MapContext[int, ckey, int], _ ckey, values []mapreduce.Rec[ckey, int]) {
	for _, v := range values {
		ctx.Emit(v.Key, v.Value)
	}
}

func randomInput(rng *rand.Rand, m, maxLen, maxVal int) [][]int {
	input := make([][]int, m)
	for i := range input {
		input[i] = make([]int, rng.Intn(maxLen))
		for j := range input[i] {
			input[i][j] = rng.Intn(maxVal)
		}
	}
	return input
}

// checkAgainstReference runs job on the typed dataflow at parallelism 1
// and 4 and on the external dataflow, and requires each full Result to
// equal the reference dataflow's.
func checkAgainstReference(t *testing.T, label string, job *mapreduce.Job[int, ckey, int, mapreduce.Pair[ckey, string]], input [][]int) {
	t.Helper()
	want, err := job.RunContext(t.Context(), &mapreduce.Engine{Dataflow: mapreduce.DataflowReference}, input)
	if err != nil {
		t.Fatalf("%s (reference): %v", label, err)
	}
	for _, run := range []struct {
		name string
		eng  *mapreduce.Engine
	}{
		{"typed par=1", &mapreduce.Engine{Parallelism: 1}},
		{"typed par=4", &mapreduce.Engine{Parallelism: 4}},
		{"external", &mapreduce.Engine{Parallelism: 2, Dataflow: mapreduce.DataflowExternal, SpillBudget: 64, TmpDir: t.TempDir()}},
	} {
		got, err := job.RunContext(t.Context(), run.eng, input)
		if err != nil {
			t.Fatalf("%s (%s): %v", label, run.name, err)
		}
		clearSpillCounters(got.MapMetrics)
		clearSpillCounters(got.ReduceMetrics)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %s Result diverges from the reference dataflow\ngot:       %+v\nreference: %+v",
				label, run.name, got, want)
		}
	}
}

func TestEngineAgainstReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(127))
	for trial := 0; trial < 40; trial++ {
		m := rng.Intn(5) + 1
		r := rng.Intn(6) + 1
		input := randomInput(rng, m, 30, 100)
		checkAgainstReference(t, fmt.Sprintf("trial %d (m=%d r=%d)", trial, m, r), randomJob(r), input)
	}
}

// TestShuffleModesAgreeOnCombinerJobs covers the combiner path against
// the reference as well.
func TestShuffleModesAgreeOnCombinerJobs(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		m := rng.Intn(4) + 1
		r := rng.Intn(5) + 1
		input := randomInput(rng, m, 40, 60)
		job := randomJob(r)
		job.NewCombiner = func() mapreduce.Combiner[int, ckey, int] { return passThroughCombiner{} }
		checkAgainstReference(t, fmt.Sprintf("trial %d (m=%d r=%d, combiner)", trial, m, r), job, input)
	}
}
