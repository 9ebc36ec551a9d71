package experiments

import (
	"bytes"
	"testing"
)

func TestSearchComponents(t *testing.T) {
	h := fastHarness(t)
	var buf bytes.Buffer
	rows, err := h.SearchComponents(&buf, "cnn-layer")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d ablation rows, want 5", len(rows))
	}
	byName := map[string]float64{}
	for _, r := range rows {
		if r.EDP < 1 {
			t.Fatalf("%s EDP %v below lower bound", r.Variant, r.EDP)
		}
		byName[r.Variant] = r.EDP
	}
	if _, ok := byName["MM (full)"]; !ok {
		t.Fatalf("missing full MM row: %v", byName)
	}
	if _, ok := byName["SA+f* (no gradients)"]; !ok {
		t.Fatalf("missing gradient-free control: %v", byName)
	}
	var parts []any
	for _, r := range rows {
		parts = append(parts, r.Variant, r.EDP)
	}
	checkPin(t, pinDigest(parts...), "0b7e06d191becece")
}

func TestSearchComponentsUnknownAlgo(t *testing.T) {
	h := fastHarness(t)
	if _, err := h.SearchComponents(&bytes.Buffer{}, "nope"); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestTailBiasAblation(t *testing.T) {
	h := fastHarness(t)
	var buf bytes.Buffer
	rows, err := h.TailBiasAblation(&buf, "mttkrp")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rows))
	}
	if rows[0].TailBias != 0 {
		t.Fatal("first row must be pure uniform sampling")
	}
	var parts []any
	for _, r := range rows {
		if r.SearchEDP < 1 {
			t.Fatalf("search EDP %v below bound", r.SearchEDP)
		}
		parts = append(parts, r.TailBias, r.SearchEDP)
	}
	checkPin(t, pinDigest(parts...), "00e8c92d44016ee9")
}

func TestArchGenerality(t *testing.T) {
	h := fastHarness(t)
	var buf bytes.Buffer
	res, err := h.ArchGenerality(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if res.ArchName != "edge-64pe" {
		t.Fatalf("arch %q", res.ArchName)
	}
	if res.MMEDP < 1 || res.SAEDP < 1 {
		t.Fatalf("EDPs below bound: %+v", res)
	}
	// The method must remain competitive on the unseen architecture.
	if res.MMEDP > 2*res.SAEDP {
		t.Fatalf("MM (%v) collapsed vs SA (%v) on the edge accelerator", res.MMEDP, res.SAEDP)
	}
	checkPin(t, pinDigest(res.MMEDP, res.SAEDP), "67b7daacdf2f899f")
}
