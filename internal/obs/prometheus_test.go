package obs

import (
	"strings"
	"testing"
	"time"
)

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("mm_jobs_total", "Jobs ever submitted.")
	c.Add(3)
	g := r.Gauge("mm_queue_depth", "Jobs waiting.")
	g.Add(2)
	r.CounterWith("mm_evals_total", "Paid evals.", []string{"backend"}, []string{"timeloop"}).Add(10)
	r.CounterWith("mm_evals_total", "Paid evals.", []string{"backend"}, []string{"roofline"}).Add(4)
	h := r.Histogram("mm_request_seconds", "Request latency.", []float64{0.001, 0.01, 0.1})
	for _, v := range []float64{0.0005, 0.005, 0.05, 5} {
		h.Observe(v)
	}
	r.GaugeFuncWith("build_info", "Build identity.", []string{"go_version"}, []string{"go1.24"}, func() float64 { return 1 })

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	for _, want := range []string{
		"# TYPE mm_jobs_total counter",
		"mm_jobs_total 3",
		"# TYPE mm_queue_depth gauge",
		"mm_queue_depth 2",
		`mm_evals_total{backend="timeloop"} 10`,
		`mm_evals_total{backend="roofline"} 4`,
		"# TYPE mm_request_seconds histogram",
		`mm_request_seconds_bucket{le="0.001"} 1`,
		`mm_request_seconds_bucket{le="0.01"} 2`,
		`mm_request_seconds_bucket{le="0.1"} 3`,
		`mm_request_seconds_bucket{le="+Inf"} 4`,
		"mm_request_seconds_sum 5.0555",
		"mm_request_seconds_count 4",
		`build_info{go_version="go1.24"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, out)
		}
	}

	// The payload must parse as a valid scrape.
	n, err := ValidateExposition(strings.NewReader(out))
	if err != nil {
		t.Fatalf("exposition does not validate: %v\n%s", err, out)
	}
	if n < 10 {
		t.Fatalf("parsed only %d samples", n)
	}

	// Families must be in lexical order for stable diffs.
	if strings.Index(out, "build_info") > strings.Index(out, "mm_jobs_total") {
		t.Fatal("families not sorted lexically")
	}
}

func TestExpositionWithRuntimeMetricsValidates(t *testing.T) {
	r := NewRegistry()
	RegisterRuntimeMetrics(r, time.Now())
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateExposition(strings.NewReader(sb.String())); err != nil {
		t.Fatalf("runtime metrics exposition invalid: %v\n%s", err, sb.String())
	}
}

func TestValidateExpositionRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"no type":        "mm_x_total 1\n",
		"dup series":     "# TYPE mm_x counter\nmm_x 1\nmm_x 2\n",
		"bad value":      "# TYPE mm_x counter\nmm_x abc\n",
		"non-cumulative": "# TYPE mm_h histogram\nmm_h_bucket{le=\"1\"} 5\nmm_h_bucket{le=\"2\"} 3\n",
		"count mismatch": "# TYPE mm_h histogram\nmm_h_bucket{le=\"+Inf\"} 5\nmm_h_count 4\n",
	}
	for name, payload := range cases {
		if _, err := ValidateExposition(strings.NewReader(payload)); err == nil {
			t.Errorf("%s: expected a validation error for:\n%s", name, payload)
		}
	}
}
