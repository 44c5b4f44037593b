package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		// Two overlapping children cover [10,50) once; the third sticks
		// out of its parent and counts only up to the parent's end.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		{ID: 5, Parent: 3, Name: "leaf", Start: 25, End: 35},
		{ID: 6, Name: "other root", Start: 0, End: 7},
	}
	want := map[int]time.Duration{1: 50, 2: 20, 3: 20, 4: 30, 5: 10, 6: 7}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, got[id], w)
		}
	}
}

func TestTracer(t *testing.T) {
	var off *tracer
	if id := off.start("x", 0); id != 0 || off.end(id) != 0 {
		t.Fatal("a nil tracer must record nothing")
	}
	tr := newTracer()
	root := tr.start("root", 0)
	child := tr.start("child", root)
	tr.end(child)
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[0].End < tr.spans[1].End {
		t.Fatalf("unexpected spans %+v", tr.spans)
	}
}

// The per-layer metrics the traced run prints are the ones BENCHMARK.json
// declares, in its order and with its units.
func TestLayerMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the benchmark reports %d", len(spec.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		if spec.PerLayer[i].Name != m.name || spec.PerLayer[i].Unit != m.unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %s (%s), the benchmark %s (%s)",
				i, spec.PerLayer[i].Name, spec.PerLayer[i].Unit, m.name, m.unit)
		}
	}
}
