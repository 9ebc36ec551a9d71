package service

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"mindmappings/internal/atlas"
	"mindmappings/internal/modelstore"
	"mindmappings/internal/resilience"
	"mindmappings/internal/trainer"
)

// familiesFile pins the /metrics families a fully wired server exposes
// after one search, one atlas hit, one admission rejection and one
// training job: one "name type label,label" line per family.
const familiesFile = "testdata/metrics_families.txt"

// metricFamilies reduces a Prometheus exposition to its families: the
// "# TYPE" name and kind plus the sorted label names its samples carry
// (histogram "le" excluded), one "name kind labels" line each, sorted.
func metricFamilies(text string) []string {
	kinds := map[string]string{}
	labels := map[string]map[string]bool{}
	var names []string
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			kinds[f[2]] = f[3]
			labels[f[2]] = map[string]bool{}
			names = append(names, f[2])
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, rest, _ := strings.Cut(line, "{")
		name, _, _ = strings.Cut(name, " ")
		fam := name
		if _, ok := kinds[fam]; !ok {
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if base, ok := strings.CutSuffix(name, suf); ok && kinds[base] == "histogram" {
					fam = base
				}
			}
		}
		set, ok := labels[fam]
		if !ok || rest == "" {
			continue
		}
		block, _, _ := strings.Cut(rest, "} ")
		for _, pair := range strings.Split(block, `",`) {
			if ln, _, ok := strings.Cut(pair, "="); ok && ln != "le" {
				set[ln] = true
			}
		}
	}
	out := make([]string, 0, len(names))
	for _, n := range names {
		ls := make([]string, 0, len(labels[n]))
		for l := range labels[n] {
			ls = append(ls, l)
		}
		sort.Strings(ls)
		out = append(out, strings.TrimSpace(n+" "+kinds[n]+" "+strings.Join(ls, ",")))
	}
	sort.Strings(out)
	return out
}

// exerciseFullServer builds a server with every subsystem attached (atlas,
// admission, SLO, training) and drives one training job, one mm search
// (written back to the atlas), its exact repeat (an atlas hit) and one
// rate-quota rejection, returning the /metrics scrape afterwards.
func exerciseFullServer(t *testing.T) string {
	t.Helper()
	registry := NewModelRegistry(modelDir(t, "conv1d.surrogate"), 4)
	jm := NewJobManager(registry, nil, 2, 16)
	store, err := modelstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pipeline := trainer.New(store, 1, 8)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		jm.Shutdown(ctx)
		pipeline.Shutdown(ctx)
	})
	at, err := atlas.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	jm.EnableAtlas(at, false)
	jm.EnableAdmission(resilience.AdmissionConfig{Rate: 0.001, Burst: 1})
	srv := NewServer(jm, registry, nil).WithTraining(store, pipeline)
	srv.EnableSLO(DefaultSLOConfig())
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	tresp, body := postJSON(t, ts.URL+"/v1/train", tinyTrainRequest())
	if tresp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/train: %d", tresp.StatusCode)
	}
	var tjob trainer.Job
	if err := json.Unmarshal(body, &tjob); err != nil {
		t.Fatal(err)
	}
	if done := waitTrainJob(t, ts, tjob.ID, 2*time.Minute); done.Status != trainer.StatusDone {
		t.Fatalf("training job finished %s: %s", done.Status, done.Error)
	}

	job, resp := postSearchAs(t, ts, "acme", mmRequest(1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("search submit: %d", resp.StatusCode)
	}
	if done := waitJob(t, ts, job.ID, time.Minute); done.Status != JobDone {
		t.Fatalf("search finished %s: %s", done.Status, done.Error)
	}
	hit, resp := postSearchAs(t, ts, "acme", mmRequest(1))
	if resp.StatusCode != http.StatusAccepted || hit.Result == nil || hit.Result.Source != "atlas" {
		t.Fatalf("repeat search: %d, result %+v, want an atlas hit", resp.StatusCode, hit.Result)
	}
	miss := mmRequest(2)
	miss.Shape = []int{512, 5}
	if _, resp := postSearchAs(t, ts, "acme", miss); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: %d, want 429", resp.StatusCode)
	}
	return scrapeProm(t, ts)
}

// TestMetricsFamiliesPinned fails when a /metrics family or one of its
// label names disappears: dashboards and the benchmark scrape these by
// name. New families are fine; the file is a floor, not an exact list.
func TestMetricsFamiliesPinned(t *testing.T) {
	raw, err := os.ReadFile(filepath.FromSlash(familiesFile))
	if err != nil {
		t.Fatal(err)
	}
	type fam struct {
		kind   string
		labels []string
	}
	parse := func(line string) (string, fam) {
		f := strings.Fields(line)
		var ls []string
		if len(f) > 2 {
			ls = strings.Split(f[2], ",")
		}
		return f[0], fam{kind: f[1], labels: ls}
	}
	got := map[string]fam{}
	for _, line := range metricFamilies(exerciseFullServer(t)) {
		name, f := parse(line)
		got[name] = f
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.TrimSpace(line) == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, want := parse(line)
		have, ok := got[name]
		if !ok {
			t.Errorf("family %s disappeared from /metrics", name)
			continue
		}
		if have.kind != want.kind {
			t.Errorf("family %s is a %s, want %s", name, have.kind, want.kind)
		}
		for _, l := range want.labels {
			if !slices.Contains(have.labels, l) {
				t.Errorf("family %s lost label %q (has %v)", name, l, have.labels)
			}
		}
	}
}
