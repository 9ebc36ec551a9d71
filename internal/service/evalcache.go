package service

import "mindmappings/internal/costmodel"

// EvalCache holds nothing: the shared eval cache is gone and every job
// pays its own cost-model evaluations (DESIGN.md §5).
//
// Deprecated: kept only for callers that still pass one around.
type EvalCache struct{}

// NewEvalCache returns nil for any capacity.
//
// Deprecated: see EvalCache.
func NewEvalCache(int) *EvalCache { return nil }

// Deprecated: Get always misses; see EvalCache.
func (*EvalCache) Get(string) (costmodel.Cost, bool) { return costmodel.Cost{}, false }

// Deprecated: GetBytes always misses; see EvalCache.
func (*EvalCache) GetBytes([]byte) (costmodel.Cost, bool) { return costmodel.Cost{}, false }

// Deprecated: Put does nothing; see EvalCache.
func (*EvalCache) Put(string, costmodel.Cost) {}
