// Package dist is the distributed master/worker control plane: an
// HTTP protocol that dispatches the engine's task attempts to worker
// processes and ships map output between them as ERN1 runs.
//
// Layering: internal/mapreduce defines the process-agnostic seam
// (RemoteDispatcher on the master side, RemoteRunnable on the worker
// side); this package supplies the network between the two — worker
// registration, heartbeats with lease renewal, task dispatch,
// replica-backed run serving, and dead-worker detection. The executable
// entry points are Master (embedded by driver processes; see
// er.RunDistributedPipeline) and Worker (cmd/erworker).
//
// Wire conventions: the control messages (register, heartbeat,
// release, ErrorResponse) are small JSON bodies. The /task request and
// response are task frames (frame.go): a fixed prefix, a JSON header
// holding only scalars and small structs, then every []byte field — the
// job spec and the mapreduce record blobs (EncodeRecords) — as a raw
// section whose length and CRC32C the header declares. Records are an
// exact byte round-trip, so float64 values travel as codec bytes, never
// as JSON numbers, and no payload byte is base64-encoded. A frame that
// is truncated, padded, or fails a checksum is runio.ErrCorrupt: the
// worker answers 400 with a Corrupt ErrorResponse, the master fails the
// attempt retryably, and the supervisor runs it again.
//
// Record blobs live in mapreduce's bounded blob pool, and each buffer
// goes back (mapreduce.PutBlob) only when nothing can read it any more:
//   - the master's map-input blob, when the transport closes the
//     request body (which may be after Client.Do returns);
//   - a blob read off the wire, once decoded — the worker's input and
//     spec after the attempt and the job build, the master's side and
//     reduce output in the engine's driver after decoding;
//   - a worker's side or reduce-output blob, once the handler has
//     written the response.
//
// Errors cross the wire as ErrorResponse with the engine's two
// orthogonal classifications preserved: Fatal (don't retry) and Corrupt
// (structural ERN1, blob or frame damage, runio.ErrCorrupt).
package dist

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"

	"repro/internal/mapreduce"
	"repro/internal/runio"
)

// Protocol endpoints. Master serves /register, /heartbeat, /replica/;
// workers serve /task, /run/, /release.
const (
	pathRegister  = "/register"
	pathHeartbeat = "/heartbeat"
	pathReplica   = "/replica/"
	pathTask      = "/task"
	pathRun       = "/run/"
	pathRelease   = "/release"
	// Introspection endpoints (master and workers both serve them;
	// obs.Attach mounts /debug/vars and the opt-in pprof handlers).
	pathStatus = "/status"
)

// RegisterRequest announces a worker to the master.
type RegisterRequest struct {
	// URL is the worker's base URL (scheme://host:port), reachable from
	// the master and from other workers.
	URL string `json:"url"`
	// Slots is the worker's concurrent task capacity (≥1).
	Slots int `json:"slots"`
}

// RegisterResponse assigns the worker its identity and lease terms.
type RegisterResponse struct {
	WorkerID int64 `json:"worker_id"`
	// HeartbeatMillis is how often the worker must renew its lease.
	HeartbeatMillis int64 `json:"heartbeat_millis"`
	// LeaseTTLMillis is how long the lease survives without renewal
	// before the master declares the worker dead and reassigns its
	// uncommitted tasks.
	LeaseTTLMillis int64 `json:"lease_ttl_millis"`
}

// HeartbeatRequest renews a worker's lease.
type HeartbeatRequest struct {
	WorkerID int64 `json:"worker_id"`
}

// HeartbeatResponse acknowledges a renewal. Unknown workers (e.g. a
// worker expired and forgotten during a master restart or long pause)
// get OK=false and must re-register.
type HeartbeatResponse struct {
	OK bool `json:"ok"`
}

// JobRef identifies and fully describes a job to a worker: the
// registered builder name plus the opaque spec blob the builder turns
// into a RemoteRunnable. ID keys the worker's runnable cache.
type JobRef struct {
	Name string `json:"name"`
	Spec []byte `json:"-"` // a frame section
	ID   string `json:"id"`
}

// NewJobRef builds a JobRef with its content-derived ID.
func NewJobRef(name string, spec []byte) JobRef {
	h := sha256.New()
	h.Write([]byte(name))
	h.Write([]byte{0})
	h.Write(spec)
	return JobRef{Name: name, Spec: spec, ID: hex.EncodeToString(h.Sum(nil)[:16])}
}

// SegmentRef locates one map task's partition segment for a reduce
// attempt: byte range within the run plus the URLs it can be fetched
// from, in preference order (origin worker first, master replica last —
// the fallback when the origin is dead).
type SegmentRef struct {
	MapTask   int      `json:"map_task"`
	URLs      []string `json:"urls"`
	Off       int64    `json:"off"`
	Len       int64    `json:"len"`
	Records   int64    `json:"records"`
	CodeWidth int      `json:"code_width"`
}

// TaskRequest dispatches one task attempt to a worker.
type TaskRequest struct {
	Job   JobRef `json:"job"`
	Phase string `json:"phase"` // "map" or "reduce"
	// M is the job's input partition count (= number of map tasks).
	M       int `json:"m"`
	Task    int `json:"task"`
	Attempt int `json:"attempt"`
	// Map phase: the task's input partition as a record blob.
	Input      []byte `json:"-"` // a frame section
	InputCount int    `json:"input_count"`
	// Reduce phase: one segment per map task with records for this
	// partition, in map-task order.
	Sources []SegmentRef `json:"sources,omitempty"`
}

// TaskResponse reports a completed attempt.
type TaskResponse struct {
	Metrics mapreduce.TaskMetrics `json:"metrics"`
	// Map phase: the attempt's side output and the URL its ERN1 run is
	// served at. The run's segment index travels inside the run file
	// itself (the ERN1 trailer) — the master re-reads and re-validates
	// it from its replica rather than trusting a wire copy.
	Side      []byte `json:"-"` // a frame section
	SideCount int    `json:"side_count,omitempty"`
	RunURL    string `json:"run_url,omitempty"`
	// Reduce phase: the attempt's output as a record blob.
	Output      []byte `json:"-"` // a frame section
	OutputCount int    `json:"output_count,omitempty"`
}

// ErrorResponse is a task failure crossing the wire with the engine's
// error classifications intact.
type ErrorResponse struct {
	Error   string `json:"error"`
	Fatal   bool   `json:"fatal,omitempty"`
	Corrupt bool   `json:"corrupt,omitempty"`
}

// toError reconstructs the classified error on the receiving side.
func (e *ErrorResponse) toError() error {
	err := errors.New(e.Error)
	if e.Corrupt {
		err = fmt.Errorf("%w: %w", runio.ErrCorrupt, err)
	}
	if e.Fatal {
		err = mapreduce.Fatal(err)
	}
	return err
}

// newErrorResponse classifies err for the wire.
func newErrorResponse(err error) ErrorResponse {
	return ErrorResponse{
		Error:   err.Error(),
		Fatal:   mapreduce.IsFatal(err),
		Corrupt: mapreduce.IsCorrupt(err),
	}
}
