package obs

import (
	"fmt"
	"strings"
	"testing"
)

func TestRegistryCardinalityCapCollapsesToOverflow(t *testing.T) {
	r := NewRegistry()
	r.SetMaxCardinality(4)
	var last *Counter
	for i := 0; i < 10; i++ {
		last = r.CounterWith("mm_card_total", "help", []string{"tenant"}, []string{fmt.Sprintf("t%d", i)})
		last.Inc()
	}
	if got := r.DroppedLabels(); got != 6 {
		t.Fatalf("DroppedLabels = %d, want 6 (10 series, cap 4)", got)
	}
	// Series beyond the cap share one overflow child: their totals survive.
	ov := r.CounterWith("mm_card_total", "help", []string{"tenant"}, []string{overflowLabel})
	if ov != last {
		t.Fatal("capped series should resolve to the shared overflow child")
	}
	if got := ov.Value(); got != 6 {
		t.Fatalf("overflow child value = %d, want 6", got)
	}
	// Already-registered series keep resolving to their own child.
	if c := r.CounterWith("mm_card_total", "help", []string{"tenant"}, []string{"t0"}); c == ov {
		t.Fatal("pre-cap series must not collapse into overflow")
	}
	// The exposition must stay valid with the overflow child present.
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateExposition(strings.NewReader(sb.String())); err != nil {
		t.Fatalf("exposition with overflow child invalid: %v", err)
	}
	if !strings.Contains(sb.String(), `mm_card_total{tenant="_overflow"} 6`) {
		t.Fatalf("overflow series missing from exposition:\n%s", sb.String())
	}
}

func TestRegistryCardinalityCapUnlimitedWhenDisabled(t *testing.T) {
	r := NewRegistry()
	r.SetMaxCardinality(0)
	for i := 0; i < 2*DefaultMaxCardinality; i++ {
		r.CounterWith("mm_nocap_total", "help", []string{"k"}, []string{fmt.Sprintf("v%d", i)}).Inc()
	}
	if got := r.DroppedLabels(); got != 0 {
		t.Fatalf("DroppedLabels = %d with cap disabled, want 0", got)
	}
}

func TestRegistryCapIgnoresUnlabeledFamilies(t *testing.T) {
	r := NewRegistry()
	r.SetMaxCardinality(1)
	r.Counter("mm_a_total", "h").Inc()
	r.Gauge("mm_b", "h").Add(1)
	if got := r.DroppedLabels(); got != 0 {
		t.Fatalf("unlabeled families counted against the cap: DroppedLabels = %d", got)
	}
}

func TestDroppedSpansCounterAggregatesCapOverflow(t *testing.T) {
	before := DroppedSpans()
	tr := NewTrace("t", "root")
	root := tr.Root()
	for i := 0; i < MaxChildren+7; i++ {
		root.StartChild("c")
	}
	if got := DroppedSpans() - before; got < 7 {
		t.Fatalf("DroppedSpans grew by %d, want >= 7", got)
	}
}
