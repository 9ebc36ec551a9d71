package service

import (
	"bytes"
	"testing"
)

// FuzzSearchRequest drives POST /v1/search bodies through the decoder the
// server uses (decodeJSON: unknown fields and trailing data rejected) and
// then resolve. It must never panic; a request that resolves has a problem
// with one positive size per algorithm dimension, a non-negative
// trajectory stride and deadline, and resolving it again yields the same
// atlas key and family. The seeds are request bodies the service's tests
// post, plus an evals and a timeout_ms whose conversions once overflowed.
// Run it with
//
//	go test -run '^$' -fuzz FuzzSearchRequest -fuzztime 10s ./internal/service/
func FuzzSearchRequest(f *testing.F) {
	for _, body := range []string{
		`{"algo":"conv1d","shape":[1024,5],"searcher":"random","evals":50,"seed":1}`,
		`{"algo":"conv1d","shape":[1024,5],"searcher":"sa","evals":500,"seed":3}`,
		`{"algo":"conv1d","shape":[1024,5],"searcher":"ga","evals":80,"seed":1}`,
		`{"algo":"conv1d","shape":[768,5],"searcher":"mm","model":"conv1d.surrogate","evals":60,"seed":2}`,
		`{"algo":"conv1d","shape":[1024,5],"searcher":"random","time":"1h","timeout_ms":300,"seed":5}`,
		`{"algo":"conv1d","shape":[1024,5],"searcher":"random","evals":50,"objective":"ed2p"}`,
		`{"algo":"conv1d","shape":[1024,5],"searcher":"ga","evals":30,"cost_model":"roofline","patience":10}`,
		`{"algo":"conv1d","shape":[1024,5],"model":"auto","evals":10}`,
		`{"algo":"conv1d","shape":[1024,5]}`,
		`{"algo":"cnn-layer","problem":"ResNet_Conv_4","searcher":"ga","evals":3000,"seed":5}`,
		`{"algo":"cnn-layer","problem":"ResNet_Conv_4","searcher":"mm","model":"conv1d.surrogate","evals":10}`,
		`{"algo":"cnn-layer","problem":"NoSuchLayer","searcher":"ga","evals":10}`,
		`{"algo":"mttkrp","shape":[64,64,64,64],"searcher":"rl","evals":20}`,
		`{"algo":"gemm","dims":{"M":64,"N":64,"K":64},"searcher":"mm","model":"gemm.surrogate","evals":80,"seed":1}`,
		`{"algo":"gemm","shape":[16,16],"searcher":"ga","evals":10}`,
		`{"algo":"gemm","dims":{"zz":4},"searcher":"ga","evals":10}`,
		`{"einsum":"O[m,n] += A[m,k] * B[k,n]","dims":{"m":64,"n":64,"k":64},"searcher":"sa","evals":80,"seed":1}`,
		`{"einsum":"O[a,b] += P[a,c] * Q[c,b]","dims":{"a":16,"b":16,"c":16},"searcher":"mm","model":"gemm.surrogate","evals":20}`,
		`{"einsum":"O[a,b] += A[a,c] * B[c,b]","dims":{"a":64,"b":64,"c":64},"model":"auto",` +
			`"train_on_miss":{"samples":400,"problems":3,"epochs":3,"hidden_sizes":[16],"seed":5},"evals":50,"seed":3}`,
		`{"algo":"conv1d","shape":[1024,5],"searcher":"random","evals":9223372036854775807}`,
		`{"algo":"conv1d","shape":[1024,5],"searcher":"random","evals":20000,"timeout_ms":18446744073710}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req SearchRequest
		if decodeJSON(bytes.NewReader(body), &req) != nil {
			return
		}
		p, err := req.resolve()
		if err != nil {
			return
		}
		if len(p.prob.Shape) != p.algo.NumDims() {
			t.Fatalf("%s: problem shape %v for %d dims", body, p.prob.Shape, p.algo.NumDims())
		}
		for _, size := range p.prob.Shape {
			if size <= 0 {
				t.Fatalf("%s: non-positive size in %v", body, p.prob.Shape)
			}
		}
		if p.budget.MaxEvals < 0 || p.budget.MaxTime < 0 || p.timeout < 0 {
			t.Fatalf("%s: budget %+v, deadline %v", body, p.budget, p.timeout)
		}
		q, err := req.resolve()
		if err != nil || q.key != p.key || q.family != p.family {
			t.Fatalf("%s: second resolve %v, key %s/%s family %s/%s", body, err, q.key, p.key, q.family, p.family)
		}
	})
}
