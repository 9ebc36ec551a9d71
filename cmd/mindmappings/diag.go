package main

import (
	"archive/tar"
	"compress/gzip"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"mindmappings/internal/service"
)

// cmdDiag snapshots a live `mindmappings serve` instance into one
// self-contained tar.gz — the "attach this to the bug report" command. It
// pulls the operational status, the /metrics scrape, the flight-recorder
// event ring, the job list with per-job traces for the most recent jobs,
// and (with -pprof, against a server started with -pprof) goroutine and
// heap profiles. Endpoints that fail are recorded in MANIFEST.json instead
// of aborting the bundle: a half-sick server is exactly when a diagnostics
// snapshot matters most.
func cmdDiag(args []string) error {
	fs := flag.NewFlagSet("diag", flag.ExitOnError)
	addr := fs.String("addr", "http://localhost:8080", `server base URL (":8080" and "host:8080" forms are accepted)`)
	out := fs.String("out", "", "output bundle path (default mindmappings-diag-<timestamp>.tar.gz)")
	jobN := fs.Int("jobs", 10, "include span traces for this many most-recent search jobs (0: none)")
	pprofOn := fs.Bool("pprof", false, "include goroutine and heap profiles (server must run with -pprof)")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	base := normalizeBaseURL(*addr)
	path := *out
	if path == "" {
		path = "mindmappings-diag-" + time.Now().UTC().Format("20060102-150405") + ".tar.gz"
	}

	d := &diagCollector{
		client: &http.Client{Timeout: *timeout},
		base:   base,
	}
	// /v1/status is the one fetch that must succeed: if it fails there is
	// no server to diagnose and an empty bundle would only mislead.
	status, err := d.fetch("/v1/status")
	if err != nil {
		return fmt.Errorf("diag: %s is not answering /v1/status: %w", base, err)
	}
	d.add("status.json", status)
	d.collect("metrics.prom", "/metrics")
	d.collect("flightrecorder.json", "/debug/flightrecorder")
	d.collect("models.json", "/v1/models")
	if jobsRaw := d.collect("jobs.json", "/v1/jobs"); jobsRaw != nil && *jobN > 0 {
		for _, id := range recentJobIDs(jobsRaw, *jobN) {
			d.collect("traces/"+sanitizeName(id)+".json", "/v1/jobs/"+id+"/trace")
		}
	}
	if *pprofOn {
		d.collect("pprof/goroutine.txt", "/debug/pprof/goroutine?debug=2")
		d.collect("pprof/heap.pb.gz", "/debug/pprof/heap")
	}

	if err := d.writeBundle(path); err != nil {
		return fmt.Errorf("diag: %w", err)
	}
	fmt.Printf("wrote %s (%d files", path, len(d.files))
	if len(d.errors) > 0 {
		fmt.Printf(", %d endpoint(s) failed — see MANIFEST.json", len(d.errors))
	}
	fmt.Println(")")
	return nil
}

// normalizeBaseURL accepts ":8080", "host:8080", or a full URL.
func normalizeBaseURL(addr string) string {
	switch {
	case strings.HasPrefix(addr, "http://"), strings.HasPrefix(addr, "https://"):
	case strings.HasPrefix(addr, ":"):
		addr = "http://localhost" + addr
	default:
		addr = "http://" + addr
	}
	return strings.TrimRight(addr, "/")
}

// sanitizeName keeps archive member names flat and filesystem-safe.
func sanitizeName(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			return r
		}
		return '_'
	}, s)
}

// recentJobIDs extracts the newest n job IDs from the /v1/jobs body.
func recentJobIDs(raw []byte, n int) []string {
	var body struct {
		Jobs []service.Job `json:"jobs"`
	}
	if err := json.Unmarshal(raw, &body); err != nil {
		return nil
	}
	sort.Slice(body.Jobs, func(i, j int) bool {
		return body.Jobs[i].Created.After(body.Jobs[j].Created)
	})
	if len(body.Jobs) > n {
		body.Jobs = body.Jobs[:n]
	}
	ids := make([]string, 0, len(body.Jobs))
	for _, j := range body.Jobs {
		ids = append(ids, j.ID)
	}
	return ids
}

type diagFile struct {
	name string
	data []byte
}

type diagCollector struct {
	client *http.Client
	base   string
	files  []diagFile
	errors map[string]string // endpoint path -> error
}

func (d *diagCollector) fetch(path string) ([]byte, error) {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(raw)))
	}
	return raw, nil
}

func (d *diagCollector) add(name string, data []byte) {
	d.files = append(d.files, diagFile{name: name, data: data})
}

// collect fetches one endpoint into the bundle, recording a failure in the
// manifest instead of propagating it. Returns the body (nil on failure).
func (d *diagCollector) collect(name, path string) []byte {
	raw, err := d.fetch(path)
	if err != nil {
		if d.errors == nil {
			d.errors = make(map[string]string)
		}
		d.errors[path] = err.Error()
		return nil
	}
	d.add(name, raw)
	return raw
}

// writeBundle renders the collected files plus MANIFEST.json as a tar.gz.
func (d *diagCollector) writeBundle(path string) error {
	manifest := struct {
		Tool     string            `json:"tool"`
		Captured time.Time         `json:"captured"`
		Server   string            `json:"server"`
		Files    []string          `json:"files"`
		Errors   map[string]string `json:"errors,omitempty"`
	}{
		Tool:     "mindmappings diag",
		Captured: time.Now().UTC(),
		Server:   d.base,
		Errors:   d.errors,
	}
	for _, f := range d.files {
		manifest.Files = append(manifest.Files, f.name)
	}
	mf, err := json.MarshalIndent(manifest, "", "  ")
	if err != nil {
		return err
	}
	members := append([]diagFile{{name: "MANIFEST.json", data: mf}}, d.files...)

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	gz := gzip.NewWriter(f)
	tw := tar.NewWriter(gz)
	now := time.Now()
	for _, m := range members {
		hdr := &tar.Header{
			Name:    m.name,
			Mode:    0o644,
			Size:    int64(len(m.data)),
			ModTime: now,
		}
		if err := tw.WriteHeader(hdr); err == nil {
			_, err = tw.Write(m.data)
		}
		if err != nil {
			f.Close()
			os.Remove(path)
			return err
		}
	}
	for _, closer := range []func() error{tw.Close, gz.Close, f.Close} {
		if err := closer(); err != nil {
			os.Remove(path)
			return err
		}
	}
	return nil
}
