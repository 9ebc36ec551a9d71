// Package infer holds only the configuration of a removed cross-request
// surrogate batcher: search jobs now query their surrogate directly.
// Config and the two defaults remain because the benchmark harness still
// passes them to the deprecated JobManager.SetBatching; they go away with
// that call.
package infer

import "time"

// Defaults of the removed batcher.
const (
	DefaultWindow   = 200 * time.Microsecond
	DefaultMaxBatch = 64
)

// Config is the parameter type of JobManager.SetBatching, which ignores it.
type Config = struct {
	Window   time.Duration
	MaxBatch int
}
