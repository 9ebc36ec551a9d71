package costmodel

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"mindmappings/internal/arch"
	"mindmappings/internal/loopnest"
)

// DefaultBackend is the backend New resolves an empty name to: the
// reference Timeloop-style analytical model.
const DefaultBackend = "timeloop"

// Constructor builds an evaluator for one (accelerator, problem) pair.
type Constructor func(a arch.Spec, p loopnest.Problem) (Evaluator, error)

var (
	regMu    sync.RWMutex
	registry = map[string]Constructor{}
)

// Register makes a backend constructor selectable by name (the CLI
// -model flag, the service "cost_model" request field, experiments). It
// panics on an empty name or a duplicate registration, like
// database/sql.Register. Backends register from their package init; pull
// one in with a blank import:
//
//	import _ "mindmappings/internal/timeloop" // register the timeloop and roofline backends
func Register(name string, c Constructor) {
	if name == "" || c == nil {
		panic("costmodel: Register with empty name or nil constructor")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("costmodel: backend %q registered twice", name))
	}
	registry[name] = c
}

// New builds the named backend for an (accelerator, problem) pair. An
// empty name selects DefaultBackend. Unknown names report the registered
// alternatives.
func New(name string, a arch.Spec, p loopnest.Problem) (Evaluator, error) {
	if name == "" {
		name = DefaultBackend
	}
	regMu.RLock()
	c, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("costmodel: unknown backend %q (registered: %s)",
			name, strings.Join(Names(), ", "))
	}
	return c(a, p)
}

// Registered reports whether a backend name is registered (empty means
// DefaultBackend and is valid as long as that backend is linked in).
func Registered(name string) bool {
	if name == "" {
		name = DefaultBackend
	}
	regMu.RLock()
	defer regMu.RUnlock()
	_, ok := registry[name]
	return ok
}

// Names returns the registered backend names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
