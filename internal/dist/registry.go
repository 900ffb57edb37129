package dist

import (
	"fmt"
	"sync"

	"repro/internal/mapreduce"
)

// The job registry maps builder names to constructors so a worker
// process can instantiate jobs whose concrete type parameters it does
// not know: the master sends (name, spec), the worker calls the
// registered builder. Packages that define distributable jobs register
// their builders in init (see internal/er/dist.go), so any binary that
// imports them — cmd/erworker above all — can execute their tasks.

var (
	registryMu sync.RWMutex
	registry   = map[string]func(spec []byte) (mapreduce.RemoteRunnable, error){}
)

// RegisterJob registers a named job builder. It panics on a duplicate
// name, like runio.Register: builder sets are process-static. build
// must not retain spec: the worker recycles its buffer once build
// returns.
func RegisterJob(name string, build func(spec []byte) (mapreduce.RemoteRunnable, error)) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, ok := registry[name]; ok {
		panic(fmt.Sprintf("dist: RegisterJob: duplicate job name %q", name))
	}
	registry[name] = build
}

// lookupJob returns the builder for name.
func lookupJob(name string) (func(spec []byte) (mapreduce.RemoteRunnable, error), bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	b, ok := registry[name]
	return b, ok
}
