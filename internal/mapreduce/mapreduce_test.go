package mapreduce_test

// Unit tests of the execution model of Section II (part, comp, group,
// the combiner, side output, metrics and counters, error handling),
// each run on the typed, external and reference dataflows.

import (
	"cmp"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/mapreduce"
	"repro/internal/runio"
)

// ckey is a composite key for the grouping tests: partition on A, sort
// on (A, B, C), group on a prefix of it.
type ckey struct{ A, B, C int }

func compareCKeys(x, y ckey) int {
	if c := cmp.Compare(x.A, y.A); c != 0 {
		return c
	}
	if c := cmp.Compare(x.B, y.B); c != 0 {
		return c
	}
	return cmp.Compare(x.C, y.C)
}

// ckeyCodec lets the external dataflow spill ckeys.
type ckeyCodec struct{}

func (ckeyCodec) Append(dst []byte, k ckey) []byte {
	for _, x := range [...]int{k.A, k.B, k.C} {
		dst = runio.AppendVarint(dst, int64(x))
	}
	return dst
}

func (ckeyCodec) Decode(src []byte) (ckey, int, error) {
	var xs [3]int
	n := 0
	for i := range xs {
		x, w, err := runio.Varint(src[n:])
		if err != nil {
			return ckey{}, 0, err
		}
		xs[i], n = int(x), n+w
	}
	return ckey{xs[0], xs[1], xs[2]}, n, nil
}

func init() {
	runio.Register[ckey](ckeyCodec{})
	mapreduce.RegisterPairCodec[string, string]()
}

// eachDataflow runs fn as one subtest per dataflow. External engines
// spill with a tiny budget into a fresh temp dir.
func eachDataflow(t *testing.T, fn func(t *testing.T, e *mapreduce.Engine)) {
	for _, d := range []struct {
		name string
		mode mapreduce.DataflowMode
	}{
		{"typed", mapreduce.DataflowTyped},
		{"external", mapreduce.DataflowExternal},
		{"reference", mapreduce.DataflowReference},
	} {
		t.Run(d.name, func(t *testing.T) {
			e := &mapreduce.Engine{Dataflow: d.mode}
			if d.mode == mapreduce.DataflowExternal {
				e.SpillBudget = 64
				e.TmpDir = t.TempDir()
			}
			fn(t, e)
		})
	}
}

type wordResult = mapreduce.Result[string, mapreduce.Pair[string, int]]

func countsOf(res *wordResult) map[string]int {
	out := make(map[string]int)
	for _, p := range res.Output {
		out[p.Key] = p.Value
	}
	return out
}

func TestWordCount(t *testing.T) {
	eachDataflow(t, func(t *testing.T, e *mapreduce.Engine) {
		for _, combiner := range []bool{false, true} {
			for _, r := range []int{1, 2, 7} {
				res, err := wordJob(r, combiner).RunContext(t.Context(), e, [][]string{
					{"a b a", "c"},
					{"b a", "c c c"},
				})
				if err != nil {
					t.Fatalf("r=%d combiner=%v: %v", r, combiner, err)
				}
				want := map[string]int{"a": 3, "b": 2, "c": 4}
				if got := countsOf(res); !reflect.DeepEqual(got, want) {
					t.Errorf("r=%d combiner=%v: counts = %v, want %v", r, combiner, got, want)
				}
			}
		}
	})
}

func TestCombinerReducesMapOutput(t *testing.T) {
	input := [][]string{{"a a a a b", "a b"}, {"b b"}}
	eachDataflow(t, func(t *testing.T, e *mapreduce.Engine) {
		plain, err := wordJob(3, false).RunContext(t.Context(), e, input)
		if err != nil {
			t.Fatal(err)
		}
		combined, err := wordJob(3, true).RunContext(t.Context(), e, input)
		if err != nil {
			t.Fatal(err)
		}
		if plain.MapOutputRecords != 9 {
			t.Errorf("plain map output = %d, want 9", plain.MapOutputRecords)
		}
		// Map task 0 emits {a,b}, map task 1 emits {b}: 3 combined records.
		if combined.MapOutputRecords != 3 {
			t.Errorf("combined map output = %d, want 3", combined.MapOutputRecords)
		}
		if !reflect.DeepEqual(countsOf(plain), countsOf(combined)) {
			t.Error("combiner changed the result")
		}
	})
}

// TestStableMergeOrder verifies the Hadoop-like property BlockSplit
// depends on: within one key group, values arrive in map-task order.
func TestStableMergeOrder(t *testing.T) {
	job := &mapreduce.Job[string, string, string, string]{
		Name:           "order",
		NumReduceTasks: 1,
		NewMapper: func() mapreduce.Mapper[string, string, string] {
			return &mapreduce.MapperFunc[string, string, string]{
				OnMap: func(ctx *mapreduce.MapContext[string, string, string], rec string) { ctx.Emit("k", rec) },
			}
		},
		NewReducer: func() mapreduce.Reducer[string, string, string] {
			return &mapreduce.ReducerFunc[string, string, string]{
				OnReduce: func(ctx *mapreduce.ReduceContext[string], _ string, values []mapreduce.Rec[string, string]) {
					for _, v := range values {
						ctx.Emit(v.Value)
					}
				},
			}
		},
		Partition: func(string, int) int { return 0 },
		Compare:   strings.Compare,
	}
	eachDataflow(t, func(t *testing.T, e *mapreduce.Engine) {
		// Run several times: with parallel map tasks the merge order
		// must still be deterministic (map task 0's values first).
		e.Parallelism = 4
		for trial := 0; trial < 10; trial++ {
			res, err := job.RunContext(t.Context(), e, [][]string{
				{"m0-a", "m0-b"},
				{"m1-a"},
				{"m2-a", "m2-b"},
			})
			if err != nil {
				t.Fatal(err)
			}
			want := []string{"m0-a", "m0-b", "m1-a", "m2-a", "m2-b"}
			if !reflect.DeepEqual(res.Output, want) {
				t.Fatalf("trial %d: value order = %v, want %v", trial, res.Output, want)
			}
		}
	})
}

// TestCompositeKeyGrouping mirrors the Figure 1 example: partition on
// part of the key, group on the entire key.
func TestCompositeKeyGrouping(t *testing.T) {
	type colorShape = mapreduce.Pair[string, string]
	job := &mapreduce.Job[colorShape, colorShape, int, int]{
		Name:           "figure1",
		NumReduceTasks: 3,
		NewMapper: func() mapreduce.Mapper[colorShape, colorShape, int] {
			return &mapreduce.MapperFunc[colorShape, colorShape, int]{
				OnMap: func(ctx *mapreduce.MapContext[colorShape, colorShape, int], rec colorShape) { ctx.Emit(rec, 1) },
			}
		},
		NewReducer: func() mapreduce.Reducer[colorShape, int, int] {
			return &mapreduce.ReducerFunc[colorShape, int, int]{
				OnReduce: func(ctx *mapreduce.ReduceContext[int], _ colorShape, values []mapreduce.Rec[colorShape, int]) {
					ctx.Emit(len(values))
				},
			}
		},
		Partition: func(key colorShape, r int) int { return mapreduce.HashPartition(key.Key, r) },
		Compare: func(a, b colorShape) int {
			if c := strings.Compare(a.Key, b.Key); c != 0 {
				return c
			}
			return strings.Compare(a.Value, b.Value)
		},
	}
	input := [][]colorShape{{
		{Key: "gray", Value: "circle"}, {Key: "gray", Value: "triangle"},
		{Key: "black", Value: "circle"}, {Key: "gray", Value: "circle"},
	}, {
		{Key: "black", Value: "circle"}, {Key: "light", Value: "triangle"},
	}}
	eachDataflow(t, func(t *testing.T, e *mapreduce.Engine) {
		res, err := job.RunContext(t.Context(), e, input)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, n := range res.Output {
			total += n
		}
		if len(res.Output) != 4 {
			t.Errorf("distinct (color,shape) groups = %d, want 4", len(res.Output))
		}
		if total != 6 {
			t.Errorf("total grouped records = %d, want 6", total)
		}
	})
}

func TestGroupCoarserThanSort(t *testing.T) {
	// Sort by (A,B), group by A only: reduce sees values sorted by B.
	job := &mapreduce.Job[ckey, ckey, int, mapreduce.Pair[int, []int]]{
		Name:           "secondary-sort",
		NumReduceTasks: 2,
		NewMapper: func() mapreduce.Mapper[ckey, ckey, int] {
			return &mapreduce.MapperFunc[ckey, ckey, int]{
				OnMap: func(ctx *mapreduce.MapContext[ckey, ckey, int], rec ckey) { ctx.Emit(rec, 0) },
			}
		},
		NewReducer: func() mapreduce.Reducer[ckey, int, mapreduce.Pair[int, []int]] {
			return &mapreduce.ReducerFunc[ckey, int, mapreduce.Pair[int, []int]]{
				OnReduce: func(ctx *mapreduce.ReduceContext[mapreduce.Pair[int, []int]], key ckey, values []mapreduce.Rec[ckey, int]) {
					var bs []int
					for _, v := range values {
						bs = append(bs, v.Key.B)
					}
					ctx.Emit(mapreduce.Pair[int, []int]{Key: key.A, Value: bs})
				},
			}
		},
		Partition: func(key ckey, r int) int { return key.A % r },
		Compare:   compareCKeys,
		Group:     func(x, y ckey) int { return cmp.Compare(x.A, y.A) },
	}
	eachDataflow(t, func(t *testing.T, e *mapreduce.Engine) {
		res, err := job.RunContext(t.Context(), e, [][]ckey{{
			{A: 0, B: 5}, {A: 0, B: 1}, {A: 1, B: 9}, {A: 0, B: 3}, {A: 1, B: 2},
		}})
		if err != nil {
			t.Fatal(err)
		}
		want := map[int][]int{0: {1, 3, 5}, 1: {2, 9}}
		if len(res.Output) != len(want) {
			t.Fatalf("groups = %v, want %v", res.Output, want)
		}
		for _, p := range res.Output {
			if !reflect.DeepEqual(p.Value, want[p.Key]) {
				t.Errorf("group a=%d: values %v, want %v (secondary sort broken)", p.Key, p.Value, want[p.Key])
			}
		}
	})
}

func TestSideOutputPerTask(t *testing.T) {
	job := wordJob(2, false)
	job.NewMapper = func() mapreduce.Mapper[string, string, int] {
		return &mapreduce.MapperFunc[string, string, int]{
			OnMap: func(ctx *mapreduce.MapContext[string, string, int], rec string) {
				ctx.SideEmit(rec)
				ctx.Emit(rec, 1)
			},
		}
	}
	eachDataflow(t, func(t *testing.T, e *mapreduce.Engine) {
		res, err := job.RunContext(t.Context(), e, [][]string{{"a", "b"}, {"c"}})
		if err != nil {
			t.Fatal(err)
		}
		if want := [][]string{{"a", "b"}, {"c"}}; !reflect.DeepEqual(res.SideOutput, want) {
			t.Errorf("side output = %v, want %v", res.SideOutput, want)
		}
		if res.MapMetrics[0].SideOutputRecords != 2 {
			t.Errorf("map 0 side records = %d, want 2", res.MapMetrics[0].SideOutputRecords)
		}
	})
}

func TestValidation(t *testing.T) {
	eachDataflow(t, func(t *testing.T, e *mapreduce.Engine) {
		in := [][]string{{"a"}}
		if _, err := wordJob(2, false).RunContext(t.Context(), e, nil); err == nil {
			t.Error("no input partitions: want error")
		}
		if _, err := wordJob(0, false).RunContext(t.Context(), e, in); err == nil {
			t.Error("r=0: want error")
		}
		noMap := wordJob(1, false)
		noMap.NewMapper = nil
		if _, err := noMap.RunContext(t.Context(), e, in); err == nil {
			t.Error("nil NewMapper: want error")
		}
		noCmp := wordJob(1, false)
		noCmp.Compare = nil
		if _, err := noCmp.RunContext(t.Context(), e, in); err == nil {
			t.Error("nil Compare: want error")
		}
	})
}

func TestBadPartitionFunctionIsAnError(t *testing.T) {
	job := wordJob(2, false)
	job.Partition = func(string, int) int { return 99 }
	eachDataflow(t, func(t *testing.T, e *mapreduce.Engine) {
		_, err := job.RunContext(t.Context(), e, [][]string{{"a"}})
		if err == nil || !strings.Contains(err.Error(), "partition function returned") {
			t.Errorf("out-of-range partition: err = %v", err)
		}
	})
}

func TestPanicsInUserCodeBecomeErrors(t *testing.T) {
	mapPanic := wordJob(1, false)
	mapPanic.NewMapper = func() mapreduce.Mapper[string, string, int] {
		return &mapreduce.MapperFunc[string, string, int]{
			OnMap: func(*mapreduce.MapContext[string, string, int], string) { panic("boom in map") },
		}
	}
	reducePanic := wordJob(1, false)
	reducePanic.NewReducer = func() mapreduce.Reducer[string, int, mapreduce.Pair[string, int]] {
		return &mapreduce.ReducerFunc[string, int, mapreduce.Pair[string, int]]{
			OnReduce: func(*mapreduce.ReduceContext[mapreduce.Pair[string, int]], string, []mapreduce.Rec[string, int]) {
				panic("boom in reduce")
			},
		}
	}
	eachDataflow(t, func(t *testing.T, e *mapreduce.Engine) {
		e.Retry.BaseBackoff = 1
		if _, err := mapPanic.RunContext(t.Context(), e, [][]string{{"a"}}); err == nil || !strings.Contains(err.Error(), "boom in map") {
			t.Errorf("map panic: err = %v", err)
		}
		if _, err := reducePanic.RunContext(t.Context(), e, [][]string{{"a"}}); err == nil || !strings.Contains(err.Error(), "boom in reduce") {
			t.Errorf("reduce panic: err = %v", err)
		}
	})
}

func TestMetricsAccounting(t *testing.T) {
	eachDataflow(t, func(t *testing.T, e *mapreduce.Engine) {
		res, err := wordJob(2, false).RunContext(t.Context(), e, [][]string{{"a b", "c d e"}, {"f"}})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.MapMetrics[0].InputRecords; got != 2 {
			t.Errorf("map 0 input = %d, want 2", got)
		}
		if got := res.MapMetrics[0].OutputRecords; got != 5 {
			t.Errorf("map 0 output = %d, want 5", got)
		}
		if res.MapOutputRecords != 6 {
			t.Errorf("total map output = %d, want 6", res.MapOutputRecords)
		}
		var reduceIn, groups int64
		for _, m := range res.ReduceMetrics {
			reduceIn += m.InputRecords
			groups += m.InputGroups
		}
		if reduceIn != 6 {
			t.Errorf("reduce input = %d, want 6", reduceIn)
		}
		if groups != 6 {
			t.Errorf("reduce groups = %d, want 6 distinct words", groups)
		}
		if res.Attempts != 2+2 {
			t.Errorf("attempts = %d, want one per task (4)", res.Attempts)
		}
	})
}

func TestUserCounters(t *testing.T) {
	job := wordJob(2, false)
	job.NewReducer = func() mapreduce.Reducer[string, int, mapreduce.Pair[string, int]] {
		return &mapreduce.ReducerFunc[string, int, mapreduce.Pair[string, int]]{
			OnReduce: func(ctx *mapreduce.ReduceContext[mapreduce.Pair[string, int]], _ string, values []mapreduce.Rec[string, int]) {
				ctx.Inc("groups", 1)
				ctx.Inc("values", int64(len(values)))
			},
		}
	}
	eachDataflow(t, func(t *testing.T, e *mapreduce.Engine) {
		res, err := job.RunContext(t.Context(), e, [][]string{{"a b a"}})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Counter("groups"); got != 2 {
			t.Errorf("groups counter = %d, want 2", got)
		}
		if got := res.Counter("values"); got != 3 {
			t.Errorf("values counter = %d, want 3", got)
		}
		if got := res.Counter("missing"); got != 0 {
			t.Errorf("missing counter = %d, want 0", got)
		}
	})
}

// TestDeterminismAcrossParallelism: identical output regardless of
// worker count.
func TestDeterminismAcrossParallelism(t *testing.T) {
	input := [][]string{
		{"x y z x", "w w"},
		{"y y y"},
		{"z"},
		{"q r s t u v w x y z"},
	}
	eachDataflow(t, func(t *testing.T, e *mapreduce.Engine) {
		var baseline []mapreduce.Pair[string, int]
		for _, par := range []int{1, 2, 4, 8} {
			e.Parallelism = par
			res, err := wordJob(5, true).RunContext(t.Context(), e, input)
			if err != nil {
				t.Fatal(err)
			}
			if baseline == nil {
				baseline = res.Output
				continue
			}
			if !reflect.DeepEqual(res.Output, baseline) {
				t.Errorf("parallelism %d changed output", par)
			}
		}
	})
}

func TestTaskKindString(t *testing.T) {
	if mapreduce.MapTask.String() != "map" || mapreduce.ReduceTask.String() != "reduce" {
		t.Error("TaskKind strings wrong")
	}
}

func TestHashPartitionStableAndInRange(t *testing.T) {
	for r := 1; r <= 17; r++ {
		for i := 0; i < 100; i++ {
			key := fmt.Sprintf("key-%d", i)
			p := mapreduce.HashPartition(key, r)
			if p < 0 || p >= r {
				t.Fatalf("HashPartition(%q, %d) = %d out of range", key, r, p)
			}
			if p != mapreduce.HashPartition(key, r) {
				t.Fatalf("HashPartition not deterministic for %q", key)
			}
		}
	}
}

func TestCompareHelpers(t *testing.T) {
	if mapreduce.CompareInts(1, 2) >= 0 || mapreduce.CompareInts(2, 1) <= 0 || mapreduce.CompareInts(3, 3) != 0 {
		t.Error("CompareInts wrong")
	}
	if mapreduce.CompareInt64s(1, 2) >= 0 || mapreduce.CompareInt64s(2, 1) <= 0 || mapreduce.CompareInt64s(3, 3) != 0 {
		t.Error("CompareInt64s wrong")
	}
}

// TestReduceOutputOrderedByTask: outputs concatenate in reduce-task
// index order.
func TestReduceOutputOrderedByTask(t *testing.T) {
	job := &mapreduce.Job[int, int, int, int]{
		Name:           "task-order",
		NumReduceTasks: 4,
		NewMapper: func() mapreduce.Mapper[int, int, int] {
			return &mapreduce.MapperFunc[int, int, int]{
				OnMap: func(ctx *mapreduce.MapContext[int, int, int], rec int) { ctx.Emit(rec, 0) },
			}
		},
		NewReducer: func() mapreduce.Reducer[int, int, int] {
			return &mapreduce.ReducerFunc[int, int, int]{
				OnReduce: func(ctx *mapreduce.ReduceContext[int], key int, _ []mapreduce.Rec[int, int]) { ctx.Emit(key) },
			}
		},
		Partition: func(key, r int) int { return key % r },
		Compare:   cmp.Compare[int],
	}
	eachDataflow(t, func(t *testing.T, e *mapreduce.Engine) {
		e.Parallelism = 4
		res, err := job.RunContext(t.Context(), e, [][]int{{3, 1, 2, 0, 7, 5}})
		if err != nil {
			t.Fatal(err)
		}
		// Task 0: 0; task 1: 1, 5; task 2: 2; task 3: 3, 7.
		if want := []int{0, 1, 5, 2, 3, 7}; !reflect.DeepEqual(res.Output, want) {
			t.Errorf("output order = %v, want %v", res.Output, want)
		}
	})
}
