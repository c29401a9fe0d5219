package predict

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// ErrUnknownEngine is wrapped by Get for unregistered names, so callers
// (e.g. the HTTP layer) can classify a routing miss — a client error —
// apart from a prediction failure.
var ErrUnknownEngine = errors.New("unknown engine")

// Registry is a thread-safe, add-only name -> Engine map: the set of
// predictors a process can route requests to. Engines are registered at
// start-up, before the serving layer reads the set; nothing is ever
// removed. Serving picks an engine per request, the CLI per flag, and the
// experiment harness iterates the set — all against the same registration.
// The cluster's member ring hashes each engine by its affinity key (see
// ShardAffinity in predict.go).
type Registry struct {
	mu      sync.RWMutex
	engines map[string]Engine
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
	return nil
}

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

// Engines returns the registered engines, sorted by name.
func (r *Registry) Engines() []Engine {
	r.mu.RLock()
	out := make([]Engine, 0, len(r.engines))
	for _, e := range r.engines {
		out = append(out, e)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// Len returns the number of registered engines.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.engines)
}
