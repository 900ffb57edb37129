package mapreduce

import (
	"context"
	"fmt"
	"slices"
)

// runReference is DataflowReference: the model of the package comment
// written out serially and plainly, the one oracle the typed, external
// and remote paths are tested against. Map tasks run in task order;
// each reduce task concatenates its buckets in map-task order,
// stable-sorts them on Compare and reduces each Group run, which is
// the Hadoop merge order BlockSplit relies on, stated directly. There
// are no key codes, pools, heap, spill files, attempts or hooks:
// Parallelism, SpillBudget, Retry, FaultHook and Obs are ignored, a
// panic or bad partition fails the run, and ctx is checked between
// tasks. Every TaskMetrics field is filled; Attempts is m + r.
func (j *Job[I, K, V, O]) runReference(ctx context.Context, input [][]I, sink *outputSink[O]) (*Result[I, O], error) {
	m, r := len(input), j.NumReduceTasks
	res := &Result[I, O]{
		Metrics: Metrics{
			JobName:       j.Name,
			MapMetrics:    make([]TaskMetrics, m),
			ReduceMetrics: make([]TaskMetrics, r),
			Attempts:      int64(m + r),
		},
		Output:     []O{}, // non-nil when empty, as on the typed path
		SideOutput: make([][]I, m),
	}
	fail := func(err error) (*Result[I, O], error) {
		return nil, fmt.Errorf("mapreduce: job %q: %w", j.Name, err)
	}
	// buckets[p][t] is map task t's output for reduce task p.
	buckets := make([][][]Rec[K, V], r)
	for p := range buckets {
		buckets[p] = make([][]Rec[K, V], m)
	}
	// run checked ctx before the first task; check it after each one.
	for t := range m {
		if err := j.refMap(t, m, input[t], res, buckets); err != nil {
			return fail(fmt.Errorf("map task %d: %w", t, err))
		}
		if err := ctx.Err(); err != nil {
			return fail(err)
		}
		res.MapOutputRecords += res.MapMetrics[t].OutputRecords
	}
	for t := range r {
		out, err := j.refReduce(t, m, slices.Concat(buckets[t]...), &res.ReduceMetrics[t])
		if err != nil {
			return fail(fmt.Errorf("reduce task %d: %w", t, err))
		}
		if err := ctx.Err(); err != nil {
			return fail(err)
		}
		if sink != nil {
			sink.writeAll(out)
		} else {
			res.Output = append(res.Output, out...)
		}
	}
	if sink != nil && sink.Err() != nil {
		return fail(fmt.Errorf("output sink: %w", sink.Err()))
	}
	return res, nil
}

// refMap runs map task t, combines its output if the job has a
// combiner, and appends each record to buckets[Partition(key)][t].
func (j *Job[I, K, V, O]) refMap(t, m int, input []I, res *Result[I, O], buckets [][][]Rec[K, V]) (err error) {
	defer recoverAttempt(&err)
	r := j.NumReduceTasks
	met := &res.MapMetrics[t]
	*met = TaskMetrics{Kind: MapTask, Index: t}
	// A spiller without a budget only appends.
	buf := spiller[K, V]{}
	ctx := &MapContext[I, K, V]{metrics: met, out: buf}
	mapper := j.NewMapper()
	mapper.Configure(m, r, t)
	for _, rec := range input {
		met.InputRecords++
		mapper.Map(ctx, rec)
	}
	out := ctx.out.recs
	if j.NewCombiner != nil {
		combiner := j.NewCombiner()
		combiner.Configure(m, r, t)
		cctx := &MapContext[I, K, V]{metrics: met, out: buf}
		j.refGroups(out, func(g []Rec[K, V]) { combiner.Combine(cctx, g[0].Key, g) })
		out = cctx.out.recs
		met.OutputRecords = int64(len(out))
	}
	res.SideOutput[t] = ctx.side
	for _, rec := range out {
		p := j.Partition(rec.Key, r)
		if p < 0 || p >= r {
			return fmt.Errorf("partition function returned %d for %d reduce tasks", p, r)
		}
		buckets[p][t] = append(buckets[p][t], rec)
	}
	return nil
}

// refReduce runs reduce task t over its concatenated input.
func (j *Job[I, K, V, O]) refReduce(t, m int, input []Rec[K, V], met *TaskMetrics) (out []O, err error) {
	defer recoverAttempt(&err)
	*met = TaskMetrics{Kind: ReduceTask, Index: t, InputRecords: int64(len(input))}
	ctx := &ReduceContext[O]{metrics: met}
	reducer := j.NewReducer()
	reducer.Configure(m, j.NumReduceTasks, t)
	j.refGroups(input, func(g []Rec[K, V]) {
		met.InputGroups++
		met.MaxGroupRecords = max(met.MaxGroupRecords, int64(len(g)))
		reducer.Reduce(ctx, g[0].Key, g)
	})
	return ctx.out, nil
}

// refGroups stable-sorts recs on Compare and calls fn once per run of
// Group-equal keys.
func (j *Job[I, K, V, O]) refGroups(recs []Rec[K, V], fn func([]Rec[K, V])) {
	slices.SortStableFunc(recs, func(a, b Rec[K, V]) int { return j.Compare(a.Key, b.Key) })
	group := j.Group
	if group == nil {
		group = j.Compare
	}
	for lo := 0; lo < len(recs); {
		hi := lo + 1
		for hi < len(recs) && group(recs[lo].Key, recs[hi].Key) == 0 {
			hi++
		}
		fn(recs[lo:hi])
		lo = hi
	}
}
