package modelstore

// The built-in workloads must be linked into the test binary so
// loopnest.AlgorithmByName (and the problem constructors built on it)
// resolve the registry-backed algorithms.
import _ "mindmappings/internal/workload"
