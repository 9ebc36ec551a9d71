package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// toyOptions runs a workload at toy scale through the same code path.
func toyOptions(t *testing.T, trace bool) *options {
	return &options{
		seed:     11,
		seconds:  1,
		requests: 8,
		setups:   1,
		recipe:   recipe{Samples: 200, Problems: 2, Epochs: 2, Hidden: []int{8}, Seed: 1},
		trace:    trace,
		dir:      t.TempDir(),
	}
}

// benchmarkSpec reads the metric names BENCHMARK.json promises.
func benchmarkSpec(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if strings.Join(names, ",") != strings.Join(have, ",") {
		t.Fatalf("BENCHMARK.json lists workloads %v, the benchmark has %v", names, have)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

func metricNames(r result) []string {
	var names []string
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// TestSmokeEveryWorkload runs every workload at toy scale, untraced and
// traced, and requires every promised metric, finite, with every check
// passing.
func TestSmokeEveryWorkload(t *testing.T) {
	endToEnd, perLayer := benchmarkSpec(t)
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	for _, trace := range []bool{false, true} {
		want := endToEnd
		if trace {
			want = perLayer
		}
		for _, w := range workloads {
			o := toyOptions(t, trace)
			res, err := runWorkload(context.Background(), w, o, io.Discard)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.name, trace, err)
			}
			passes := 1
			if trace {
				passes = 2 // the untraced reference pass and the traced pass
			}
			if !res.Correct || res.Failed != 0 || res.Attempted != passes*o.requests {
				t.Errorf("%s (trace %v): correct %v, attempted %d, failed %d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if got := metricNames(res); strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("%s (trace %v): metrics\n%v\nwant\n%v", w.name, trace, got, want)
			}
			for k, m := range res.Metrics {
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit == "" {
					t.Errorf("%s (trace %v): %s = %v %q", w.name, trace, k, m.Value, m.Unit)
				}
			}
			if trace {
				if _, err := os.Stat(filepath.Join(o.dir, "spans-"+w.name+".json")); err != nil {
					t.Errorf("%s: spans not written: %v", w.name, err)
				}
			}
		}
	}
}

func TestRunRejectsUnknownWorkload(t *testing.T) {
	var out, errs bytes.Buffer
	if code := run([]string{"--workload", "nope", "--seed", "1"}, &out, &errs); code == 0 {
		t.Fatal("unknown workload accepted")
	}
	if out.Len() != 0 {
		t.Fatalf("printed a result for an unknown workload: %s", out.String())
	}
}
