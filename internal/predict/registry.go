package predict

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// ErrUnknownEngine is wrapped by Get for unregistered names, so callers
// (e.g. the HTTP layer) can classify a routing miss — a client error —
// apart from a prediction failure.
var ErrUnknownEngine = errors.New("unknown engine")

// Registry is a thread-safe name -> Engine map: the set of predictors a
// process can route requests to. Serving picks an engine per request, the
// CLI per flag, and the experiment harness iterates the set — all against
// the same registration.
//
// The registry also carries the routing hints the serving and cluster
// layers consume: a monotonically increasing Version that bumps on every
// registration change (so the serving layer knows when its engine states
// are stale and must rebalance), and the per-engine affinity key the
// cluster's member ring hashes by (see ShardHint / ShardAffinity in
// predict.go).
type Registry struct {
	mu      sync.RWMutex
	engines map[string]Engine
	version atomic.Uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{engines: map[string]Engine{}}
}

// Register adds e under e.Name(). It fails on an empty name or a duplicate
// registration — engine names are routing keys, so silently replacing one
// would redirect live traffic.
func (r *Registry) Register(e Engine) error {
	if e == nil {
		return fmt.Errorf("predict: cannot register a nil engine")
	}
	name := e.Name()
	if name == "" {
		return fmt.Errorf("predict: cannot register an engine with an empty name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.engines[name]; ok {
		return fmt.Errorf("predict: engine %q already registered", name)
	}
	r.engines[name] = e
	r.version.Add(1)
	return nil
}

// Unregister removes the engine registered under name, reporting whether
// one was registered. Traffic already routed to the engine completes; new
// lookups fail with ErrUnknownEngine, and serving layers observing Version
// rebalance and drop the engine's cached forecasts.
func (r *Registry) Unregister(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.engines[name]; !ok {
		return false
	}
	delete(r.engines, name)
	r.version.Add(1)
	return true
}

// Version returns a counter that increases on every Register/Unregister.
// Serving layers cache it alongside derived routing state (per-engine
// states) and rebuild when it drifts — a cheap atomic load
// per request instead of a registry diff.
func (r *Registry) Version() uint64 { return r.version.Load() }

// MustRegister is Register that panics on error — for process start-up
// where a collision is a programming bug.
func (r *Registry) MustRegister(e Engine) {
	if err := r.Register(e); err != nil {
		panic(err)
	}
}

// Get returns the engine registered under name. The error names the
// registered engines, so a typo in an API request or CLI flag is
// self-diagnosing.
func (r *Registry) Get(name string) (Engine, error) {
	r.mu.RLock()
	e, ok := r.engines[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("predict: %w %q (registered: %s)", ErrUnknownEngine, name, strings.Join(r.List(), ", "))
	}
	return e, nil
}

// List returns the registered engine names, sorted.
func (r *Registry) List() []string {
	r.mu.RLock()
	names := make([]string, 0, len(r.engines))
	for n := range r.engines {
		names = append(names, n)
	}
	r.mu.RUnlock()
	sort.Strings(names)
	return names
}

// Len returns the number of registered engines.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.engines)
}
