package dist

// Loopback tests of the task wire against real workers: damaged frames
// on either side of /task surface as typed, retryable errors and never
// as a wrong Result, and a map dispatch's allocation stays within a
// small multiple of its input blob.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/mapreduce"
	"repro/internal/obs"
	"repro/internal/runio"
)

const (
	wordJobName = "dist/test-wordcount"
	dropJobName = "dist/test-drop"
)

type wordResult = mapreduce.Result[string, mapreduce.Pair[string, int]]

func init() {
	mapreduce.RegisterPairCodec[string, int]()
	RegisterJob(wordJobName, func([]byte) (mapreduce.RemoteRunnable, error) {
		return mapreduce.NewRemoteRunnable(testJob(true))
	})
	RegisterJob(dropJobName, func([]byte) (mapreduce.RemoteRunnable, error) {
		return mapreduce.NewRemoteRunnable(testJob(false))
	})
}

// testJob is a word count that side-emits every line of even length;
// with count false its map discards the input, so a dispatch costs
// little beyond the wire and decoding the input.
func testJob(count bool) *mapreduce.Job[string, string, int, mapreduce.Pair[string, int]] {
	return &mapreduce.Job[string, string, int, mapreduce.Pair[string, int]]{
		Name:           "dist-test",
		NumReduceTasks: 4,
		NewMapper: func() mapreduce.Mapper[string, string, int] {
			return &mapreduce.MapperFunc[string, string, int]{
				OnMap: func(ctx *mapreduce.MapContext[string, string, int], line string) {
					if !count {
						return
					}
					if len(line)%2 == 0 {
						ctx.SideEmit(line)
					}
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
				},
			}
		},
		Partition: mapreduce.HashPartition,
		Compare:   strings.Compare,
	}
}

func testInput() [][]string {
	words := []string{"kolb", "thor", "rahm", "block", "split", "pair", "range", "ß", "日本"}
	input := make([][]string, 3)
	for i := range input {
		for l := 0; l < 40; l++ {
			var b strings.Builder
			for w := 0; w <= (i+l)%7; w++ {
				b.WriteString(words[(i*l+w*w)%len(words)])
				b.WriteByte(' ')
			}
			input[i] = append(input[i], b.String())
		}
	}
	return input
}

// normalizeWord strips the execution-history counters that sit
// outside the differential contract.
func normalizeWord(res *wordResult) {
	res.Attempts, res.Retries, res.SpeculativeLaunched, res.SpeculativeWon = 0, 0, 0, 0
	for _, ms := range [][]mapreduce.TaskMetrics{res.MapMetrics, res.ReduceMetrics} {
		for i := range ms {
			ms[i].SpillRuns, ms[i].SpillBytesWritten, ms[i].SpillBytesRead = 0, 0, 0
		}
	}
}

// testCluster starts a master (whose leases outlive the test, so only
// dispatch failures can kill a worker) and n one-slot workers. The
// master closes first, dropping its idle connections, so the workers'
// graceful stops need not wait them out.
func testCluster(t *testing.T, n int) (*Master, []*Worker) {
	t.Helper()
	logger := obs.LogfLogger(slog.LevelWarn, t.Logf)
	m := NewMaster(MasterOptions{HeartbeatInterval: time.Hour, Log: logger})
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	var ws []*Worker
	for i := 0; i < n; i++ {
		w, err := StartWorker(WorkerOptions{MasterURL: m.URL(), Dir: t.TempDir(), Log: logger})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Stop)
		ws = append(ws, w)
	}
	t.Cleanup(m.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.AwaitWorkers(ctx, n); err != nil {
		t.Fatal(err)
	}
	return m, ws
}

// tamperTransport damages the bodies of the first n successful /task
// responses the master receives.
type tamperTransport struct {
	base   http.RoundTripper
	damage func([]byte) []byte
	mu     sync.Mutex
	n      int
}

func (tt *tamperTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := tt.base.RoundTrip(req)
	if err != nil || req.URL.Path != pathTask || resp.StatusCode != http.StatusOK {
		return resp, err
	}
	tt.mu.Lock()
	hit := tt.n > 0
	tt.n--
	tt.mu.Unlock()
	if !hit {
		return resp, nil
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(tt.damage(body)))
	return resp, nil
}

func (tt *tamperTransport) CloseIdleConnections() {
	tt.base.(*http.Transport).CloseIdleConnections()
}

// miscount re-encodes a response frame (valid checksums) claiming one
// record more than its blob holds.
func miscount(body []byte) []byte {
	var resp TaskResponse
	if err := readFrame(bytes.NewReader(body), &resp); err != nil {
		panic(err)
	}
	if len(resp.Output) > 0 {
		resp.OutputCount++
	} else {
		resp.SideCount++
	}
	f, err := encodeFrame(&resp)
	if err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	f.writeTo(&buf)
	return buf.Bytes()
}

// TestMasterRetriesCorruptResponse is the master half of the
// corruption table: a damaged response frame fails the attempt as
// runio.ErrCorrupt — retryable, and no judgement on the worker — and a
// job whose responses are damaged completes byte-identical to a local
// run after retrying exactly the damaged attempts.
func TestMasterRetriesCorruptResponse(t *testing.T) {
	input := testInput()
	want, err := testJob(true).RunContext(t.Context(), &mapreduce.Engine{}, input)
	if err != nil {
		t.Fatal(err)
	}
	normalizeWord(want)

	cases := append([]frameMutation{{"record count mismatch", miscount}}, frameMutations...)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m, _ := testCluster(t, 2)
			const damaged = 2
			tt := &tamperTransport{base: m.client.Transport, damage: c.mut, n: damaged}
			m.client.Transport = tt
			s := m.Session(wordJobName, nil)
			defer s.Close()

			var mu sync.Mutex
			var attemptErrs []error
			e := &mapreduce.Engine{Parallelism: 2, TmpDir: t.TempDir(), Remote: s}
			e.Retry.BaseBackoff = time.Microsecond
			e.Retry.Retryable = func(err error) bool {
				mu.Lock()
				attemptErrs = append(attemptErrs, err)
				mu.Unlock()
				return !mapreduce.IsFatal(err)
			}
			got, err := testJob(true).RunContext(t.Context(), e, input)
			if err != nil {
				t.Fatal(err)
			}
			if got.Retries != damaged {
				t.Errorf("Retries = %d, want %d (one per damaged response)", got.Retries, damaged)
			}
			for _, err := range attemptErrs {
				if !mapreduce.IsCorrupt(err) || mapreduce.IsFatal(err) {
					t.Errorf("attempt error %v: want retryable runio.ErrCorrupt", err)
				}
			}
			normalizeWord(got)
			if !reflect.DeepEqual(got, want) {
				t.Fatal("job over damaged responses diverges from the local run")
			}
			if n := m.Workers(); n != 2 {
				t.Errorf("%d live workers after corrupt responses, want 2 (corruption is not worker death)", n)
			}
		})
	}
}

// TestWorkerRejectsCorruptRequest is the worker half: a damaged
// request frame is answered 400 with a Corrupt ErrorResponse, and a
// sound frame whose record count disagrees with its input blob fails
// the attempt (500) as Corrupt too — retryable on the master side.
func TestWorkerRejectsCorruptRequest(t *testing.T) {
	_, ws := testCluster(t, 1)
	input := testInput()[0]
	request := func(countDelta int) []byte {
		blob := mapreduce.EncodeRecords(runio.StringCodec{}, input)
		return encodeBytes(t, &TaskRequest{
			Job: NewJobRef(wordJobName, []byte("spec")), Phase: "map",
			M: 1, Task: 0, Attempt: 1,
			Input: blob, InputCount: len(input) + countDelta,
		})
	}
	post := func(t *testing.T, body []byte, wantStatus int) {
		t.Helper()
		resp, err := http.Post(ws[0].URL()+pathTask, frameContentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("status %s, want %d", resp.Status, wantStatus)
		}
		var er ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			t.Fatalf("decode ErrorResponse: %v", err)
		}
		if err := er.toError(); !mapreduce.IsCorrupt(err) || mapreduce.IsFatal(err) {
			t.Fatalf("worker error %v: want retryable runio.ErrCorrupt", err)
		}
	}
	for _, c := range frameMutations {
		t.Run(c.name, func(t *testing.T) { post(t, c.mut(request(0)), http.StatusBadRequest) })
	}
	for _, delta := range []int{-1, +1} {
		t.Run(fmt.Sprintf("record count %+d", delta), func(t *testing.T) {
			post(t, request(delta), http.StatusInternalServerError)
		})
	}
	// The sound frame still works after all that.
	resp, err := http.Post(ws[0].URL()+pathTask, frameContentType, bytes.NewReader(request(0)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tr TaskResponse
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sound request: status %s", resp.Status)
	}
	if err := readFrame(resp.Body, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.RunURL == "" || tr.Metrics.InputRecords != int64(len(input)) {
		t.Fatalf("sound request: response %+v", tr)
	}
}

// TestMapDispatchAllocBytesPinned pins the wire's allocation: one
// loopback map dispatch of an N-byte input blob — encode, frame, POST,
// worker read and decode, response, replica download — allocates at
// most allocFactor·N bytes across the whole process. The job's map
// discards its input, so what is left is the wire plus the worker's
// decode, which copies every record out of the blob (≈N). Measured on
// linux/amd64 (go1.24): ≈1.03–1.15·N with the task frame and pooled blobs,
// ≈13·N with the base64-in-JSON bodies it replaced.
func TestMapDispatchAllocBytesPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode drops sync.Pool items at will; the pin would flake")
	}
	const allocFactor = 2
	m, _ := testCluster(t, 1)
	s := m.Session(dropJobName, nil)
	defer s.Close()
	input := make([]string, 1024)
	for i := range input {
		input[i] = strings.Repeat(string(rune('a'+i%26)), 4<<10)
	}
	n := len(mapreduce.EncodeRecords(runio.StringCodec{}, input))
	dir := t.TempDir()
	trip := func(attempt int) {
		blob := mapreduce.EncodeRecords(runio.StringCodec{}, input)
		res, err := s.RunMapAttempt(context.Background(), 1, 0, attempt, blob, len(input),
			filepath.Join(dir, fmt.Sprintf("m0-a%d.run", attempt)))
		if err != nil {
			t.Fatal(err)
		}
		mapreduce.PutBlob(res.Side)
	}
	for a := 1; a <= 3; a++ {
		trip(a) // warm the pools, connections and the worker's job cache
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const trips = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for a := 4; a < 4+trips; a++ {
		trip(a)
	}
	runtime.ReadMemStats(&after)
	perTrip := float64(after.TotalAlloc-before.TotalAlloc) / trips
	t.Logf("N = %d B input blob; %.0f B allocated per round trip = %.2f·N", n, perTrip, perTrip/float64(n))
	if perTrip > allocFactor*float64(n) {
		t.Fatalf("map dispatch allocates %.2f·N bytes per round trip, pinned at %d·N", perTrip/float64(n), allocFactor)
	}
}
