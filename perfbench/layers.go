package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"hics/internal/stats"
)

// Share bases of the layer table: a layer figure is shown as a share of
// the workload's traced fit time or of its paced per-row server CPU.
const (
	noShare = iota
	ofFit
	ofRowCPU
)

// layerMetrics lists every per-layer metric in BENCHMARK.json order. Every
// traced run reports all of them; a layer the workload does not touch
// reads 0.
var layerMetrics = []struct {
	name, unit string
	base       int
}{
	{"dataset.read_s", "s", ofFit},
	{"dataset.bytes", "bytes", noShare},
	{"core.search_s", "s", ofFit},
	{"core.candidates", "count", noShare},
	{"core.mc_iterations", "count", noShare},
	{"core.levels", "count", noShare},
	{"core.us_per_mc_iteration", "us", noShare},
	{"core.retained_share", "ratio", noShare},
	{"neighbors.build_s", "s", ofFit},
	{"neighbors.knn_all_s", "s", ofFit},
	{"neighbors.queries", "count", noShare},
	{"neighbors.kdtree_indexes", "count", noShare},
	{"neighbors.brute_indexes", "count", noShare},
	{"lof.fit_s", "s", ofFit},
	{"lof.self_s", "s", ofFit},
	{"hics.fit_other_s", "s", ofFit},
	{"hics.subspaces", "count", noShare},
	{"stream.push_us_per_row", "us", ofRowCPU},
	{"stream.score_us_p50", "us", ofRowCPU},
	{"stream.refits", "count", noShare},
	{"stream.refit_ms_p50", "ms", noShare},
	{"stream.refit_share", "ratio", noShare},
	{"serve.overhead_us_per_row", "us", ofRowCPU},
	{"serve.bulk_cpu_us_per_row", "us", noShare},
	{"serve.reads_per_krow", "count", noShare},
	{"serve.bytes_in_per_row", "bytes", noShare},
	{"serve.bytes_out_per_row", "bytes", noShare},
	{"serve.row_p90_ms", "ms", noShare},
	{"serve.row_p99_ms", "ms", noShare},
	{"serve.row_max_ms", "ms", noShare},
	{"gen.lateness_ms_p50", "ms", noShare},
	{"gen.lateness_ms_p99", "ms", noShare},
	{"gen.rows_sent", "count", noShare},
}

// layerTable is the outcome of a traced run: the per-layer figures, the
// end-to-end figures their shares refer to, and the raw spans of each
// process that recorded some.
type layerTable struct {
	workload string
	fitS     float64 // traced hics.Fit wall time, seconds
	rowCPUUS float64 // paced hicsd CPU per row, µs
	values   map[string]float64
	spans    map[string][]span // by process: "bench", "worker"
}

func newLayerTable(workload string) *layerTable {
	return &layerTable{workload: workload, values: map[string]float64{}, spans: map[string][]span{}}
}

// addFitLayers derives the core, neighbors, lof and hics figures of each
// traced fit trial and keeps, per figure, the median over the trials. The
// differences are taken within a trial, whose timed fit and layer replay
// ran back to back.
func (t *layerTable) addFitLayers(trials []map[string]float64) {
	per := map[string][]float64{}
	for _, v := range trials {
		v["lof.self_s"] = v["lof.fit_s"] - v["neighbors.build_s"] - v["neighbors.knn_all_s"]
		v["hics.fit_other_s"] = v["fit_s"] - v["core.search_s"] - v["lof.fit_s"]
		if v["core.mc_iterations"] > 0 {
			v["core.us_per_mc_iteration"] = v["core.search_s"] * 1e6 / v["core.mc_iterations"]
		}
		for k, x := range v {
			per[k] = append(per[k], x)
		}
	}
	for k, xs := range per {
		t.values[k] = stats.Median(xs)
	}
	t.fitS = t.values["fit_s"]
	delete(t.values, "fit_s")
}

// perLayer returns every per-layer metric for the result line.
func (t *layerTable) perLayer() map[string]metric {
	out := make(map[string]metric, len(layerMetrics))
	for _, m := range layerMetrics {
		out[m.name] = metric{Value: t.values[m.name], Unit: m.unit}
	}
	return out
}

// print writes the layer table: each per-layer metric with its unit and,
// for times, its share of the workload's fit time or paced row CPU.
func (t *layerTable) print(w io.Writer) {
	fmt.Fprintf(w, "layer table: %s\n", t.workload)
	if t.fitS > 0 {
		fmt.Fprintf(w, "  %-28s %14.6f %-6s (share base of the s rows)\n", "fit_s (traced)", t.fitS, "s")
	}
	if t.rowCPUUS > 0 {
		fmt.Fprintf(w, "  %-28s %14.6f %-6s (share base of the us rows)\n", "cpu_us_per_row (traced)", t.rowCPUUS, "us")
	}
	for _, m := range layerMetrics {
		v := t.values[m.name]
		share := ""
		switch {
		case m.base == ofFit && t.fitS > 0:
			share = fmt.Sprintf("%6.1f%%", 100*v/t.fitS)
		case m.base == ofRowCPU && t.rowCPUUS > 0:
			share = fmt.Sprintf("%6.1f%%", 100*v/t.rowCPUUS)
		}
		fmt.Fprintf(w, "  %-28s %14.6f %-6s %s\n", m.name, v, m.unit, strings.TrimSpace(share))
	}
	fmt.Fprintln(w, "  self time by span, summed over the run:")
	for _, proc := range []string{"bench", "worker"} {
		self := selfTimes(t.spans[proc])
		byName := map[string]time.Duration{}
		count := map[string]int{}
		for _, s := range t.spans[proc] {
			byName[s.Name] += self[s.ID]
			count[s.Name]++
		}
		names := make([]string, 0, len(byName))
		for n := range byName {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "    %-7s %-24s %8d spans %14.6f s\n", proc, n, count[n], byName[n].Seconds())
		}
	}
}
