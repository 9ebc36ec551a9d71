package costmodel

// EvaluatorID and MaxInternedBytes expose the fingerprint intern table to
// the external tests.
var EvaluatorID = evaluatorID

const MaxInternedBytes = maxInternedBytes
