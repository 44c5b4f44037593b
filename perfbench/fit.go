package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"hics"
	"hics/internal/core"
	"hics/internal/dataset"
	"hics/internal/eval"
	"hics/internal/lof"
	"hics/internal/neighbors"
	"hics/internal/stats"
	"hics/internal/subspace"
	"hics/internal/synth"
)

// fitWorkload is one batch-fit workload: a synth configuration whose
// first train rows are fitted and whose remaining rows are scored as new
// points, and the options of the fit.
type fitWorkload struct {
	synth   synth.Config // Seed comes from --seed
	train   int
	opts    hics.Options // Seed comes from --seed
	planted bool         // every retained subspace must lie in a planted group
}

// layouts is the number of datasets a fit run generates, each from its own
// seed. A fit's work follows the planted layout: fit-wide's search
// evaluated 4,600 to 6,000 candidates from one seed to the next, and
// fit-tall's kNN queries cost more where clusters overlap. The mean over
// three layouts is what repeats from seed to seed.
const layouts = 3

// clusters fixes the clusters per planted group in every workload. The
// cluster count sets how crowded a neighbourhood is, and so what a kNN
// query costs; drawn per seed, it made per-row costs depend on the seed.
const clusters = 4

var fitWorkloads = map[string]fitWorkload{
	// Production-size N: the batch kNN pass over 100k rows dominates the
	// fit, with the contrast search bounded by subsampling. The planted
	// groups all have three attributes (with groups of two or three their
	// count varies by seed around TopK), and each holds 50 outliers, so the
	// AUC rests on 500 of them rather than on 50.
	"fit-tall": {
		synth: synth.Config{
			N: 108_000, D: 30, MinSubspaceDim: 3, MaxSubspaceDim: 3,
			MinClusters: clusters, MaxClusters: clusters, OutliersPerSubspace: 50,
		},
		train:   100_000,
		opts:    hics.Options{M: 100, CandidateCutoff: 100, MaxDim: 3, TopK: 10, MinPts: 10, MaxSampleRows: 2000},
		planted: true,
	},
	// The paper's own regime and defaults: the Monte Carlo contrast search
	// over 60 attributes dominates the fit. Ten outliers per planted group
	// rather than the paper's five keep the AUC steady across seeds.
	"fit-wide": {
		synth: synth.Config{
			N: 4_000, D: 60, MinSubspaceDim: 2, MaxSubspaceDim: 5,
			MinClusters: clusters, MaxClusters: clusters, OutliersPerSubspace: 10,
		},
		train: 3_000,
	},
}

// A timed sample covers at least minSample of work. A ScoreBatch sample
// covers minBatchSample, about three calls: with one call of about 0.5 s
// the batch rate spread half as much again across seeds as the fit time.
const (
	minSample      = 500 * time.Millisecond
	minBatchSample = 1500 * time.Millisecond
	workerTimeout  = 160 * time.Second
)

// fitTrial is one timed hics.Fit and what it produced.
type fitTrial struct {
	Layout    int                `json:"layout"`
	WallS     float64            `json:"wall_s"`
	CPUS      float64            `json:"cpu_s"`
	Subspaces [][]int            `json:"subspaces"`
	ScoreHash uint64             `json:"score_hash"`
	AUC       float64            `json:"auc"`
	Err       string             `json:"err,omitempty"`
	Layers    map[string]float64 `json:"layers,omitempty"`

	// Scoring the layout's held-out rows with the trial's model.
	HoldoutRows   int     `json:"holdout_rows"`
	HoldoutFailed int     `json:"holdout_failed"`
	ScoreP50Ms    float64 `json:"score_p50_ms"`
	BatchRowsPerS float64 `json:"batch_rows_per_s"`
}

// fitReport is what the fit worker prints for the benchmark process.
type fitReport struct {
	Trials     []fitTrial `json:"trials"`
	SetupS     []float64  `json:"setup_s"` // per-ingest time of each set-up sample
	CSVBytes   int        `json:"csv_bytes"`
	PeakRSSMiB float64    `json:"peak_rss_mib"`
	Spans      []span     `json:"spans,omitempty"`
}

// layoutSeed is the synth seed of a run's k-th layout; the first is the
// run's seed itself.
func layoutSeed(seed uint64, k int) uint64 { return seed + uint64(k)<<32 }

// runFit generates the workload's data, runs the set-up samples, fits and
// held-out scoring in a fresh worker process (so its peak RSS is the
// workload's alone) and checks the outputs.
func runFit(e *env, w fitWorkload) (*result, *layerTable, error) {
	dir, err := e.runDir()
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	var planted [][]subspace.Subspace
	for k := 0; k < layouts; k++ {
		cfg := w.synth
		cfg.Seed = layoutSeed(e.seed, k)
		gen, err := synth.Generate(cfg)
		if err != nil {
			return nil, nil, err
		}
		planted = append(planted, gen.Subspaces)
		trainCSV, holdCSV, err := fitCSVs(gen, w.train)
		if err != nil {
			return nil, nil, err
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("train-%d.csv", k)), trainCSV, 0o644); err != nil {
			return nil, nil, err
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("holdout-%d.csv", k)), holdCSV, 0o644); err != nil {
			return nil, nil, err
		}
	}

	rep, err := startFitWorker(e, dir)
	if err != nil {
		return nil, nil, err
	}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	first := map[int]fitTrial{}
	// Each layout's samples of every figure, by figure.
	samples := make([]map[string][]float64, layouts)
	for k := range samples {
		samples[k] = map[string][]float64{}
	}
	for i, t := range rep.Trials {
		res.Attempted += 1 + t.HoldoutRows
		res.Failed += t.HoldoutFailed
		if _, ok := first[t.Layout]; !ok {
			first[t.Layout] = t
		}
		if msg := checkTrial(t, first[t.Layout], planted[t.Layout], w.planted); msg != "" {
			fmt.Fprintf(os.Stderr, "perfbench: fit %d: %s\n", i, msg)
			res.Failed++
			continue
		}
		m := samples[t.Layout]
		for name, v := range map[string]float64{"wall": t.WallS, "cpu": t.CPUS, "p50": t.ScoreP50Ms, "rate": t.BatchRowsPerS, "auc": t.AUC} {
			m[name] = append(m[name], v)
		}
	}
	res.Correct = res.Failed == 0 && len(first) == layouts && len(rep.SetupS) > 0
	if !res.Correct {
		return res, newLayerTable(e.workload), nil
	}
	// A figure is the median of each layout's samples, averaged over the
	// layouts.
	mean := func(name string) float64 {
		sum := 0.0
		for _, m := range samples {
			sum += stats.Median(m[name])
		}
		return sum / float64(len(samples))
	}
	res.Metrics = map[string]metric{
		"setup_s":         {stats.Median(rep.SetupS), "s"},
		"fit_s":           {mean("wall"), "s"},
		"auc":             {mean("auc"), "auc"},
		"row_p50_ms":      {mean("p50"), "ms"},
		"cpu_us_per_row":  {mean("cpu") * 1e6 / float64(w.train), "us"},
		"bulk_rows_per_s": {mean("rate"), "rows/s"},
		"peak_rss_mb":     {rep.PeakRSSMiB, "MiB"},
	}
	tab := newLayerTable(e.workload)
	if e.trace {
		var layers []map[string]float64
		for _, t := range rep.Trials {
			layers = append(layers, t.Layers)
		}
		tab.addFitLayers(layers)
		tab.values["dataset.read_s"] = res.Metrics["setup_s"].Value
		tab.values["dataset.bytes"] = float64(rep.CSVBytes)
		tab.spans["bench"] = e.tr.spans
		tab.spans["worker"] = rep.Spans
	}
	return res, tab, nil
}

// checkTrial returns why a fit trial's output is wrong, or "".
func checkTrial(t, first fitTrial, planted []subspace.Subspace, checkPlanted bool) string {
	if t.Err != "" {
		return t.Err
	}
	if t.ScoreHash != first.ScoreHash {
		return "training scores differ from the first fit with the same seed"
	}
	if !checkPlanted {
		return ""
	}
	for _, dims := range t.Subspaces {
		if !withinPlanted(dims, planted) {
			return fmt.Sprintf("retained subspace %v lies in no planted group %v", dims, planted)
		}
	}
	return ""
}

func withinPlanted(dims []int, planted []subspace.Subspace) bool {
	for _, g := range planted {
		if g.SupersetOf(subspace.New(dims...)) {
			return true
		}
	}
	return false
}

// fitCSVs renders the first train generated rows, with their labels, and
// the remaining rows, without, as CSV.
func fitCSVs(gen *synth.Benchmark, train int) (trainCSV, holdCSV []byte, err error) {
	ds := gen.Data.Data
	part := func(lo, hi int) (*dataset.Dataset, error) {
		cols := make([][]float64, ds.D())
		for j := range cols {
			cols[j] = ds.Col(j)[lo:hi]
		}
		return dataset.New(nil, cols)
	}
	head, err := part(0, train)
	if err != nil {
		return nil, nil, err
	}
	tail, err := part(train, ds.N())
	if err != nil {
		return nil, nil, err
	}
	var a, b bytes.Buffer
	if err := dataset.WriteCSV(&a, head, gen.Data.Outlier[:train]); err != nil {
		return nil, nil, err
	}
	if err := dataset.WriteCSV(&b, tail, nil); err != nil {
		return nil, nil, err
	}
	return a.Bytes(), b.Bytes(), nil
}

// ingestSample times dataset.ReadLabeledCSV on the in-memory CSV, one
// set-up sample: back-to-back ingests covering at least minSample of work.
// It returns the mean time of one ingest.
func ingestSample(csv []byte, tr *tracer) (time.Duration, error) {
	runtime.GC()
	var n int
	t0 := time.Now()
	for n == 0 || time.Since(t0) < minSample {
		id := tr.start("dataset.ReadLabeledCSV", 0)
		_, err := dataset.ReadLabeledCSV(bytes.NewReader(csv), dataset.CSVOptions{Header: true})
		tr.end(id)
		if err != nil {
			return 0, fmt.Errorf("ingest: %w", err)
		}
		n++
	}
	return time.Since(t0) / time.Duration(n), nil
}

// startFitWorker runs this binary as the fit worker on dir and decodes
// its report.
func startFitWorker(e *env, dir string) (*fitReport, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if e.trace {
		trace = "1"
	}
	cmd := exec.Command(self, "-worker", dir, "-workload", e.workload,
		"-seed", strconv.FormatUint(e.seed, 10), "-seconds", strconv.Itoa(int(e.seconds/time.Second)), "-trace", trace)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := startChild(cmd); err != nil {
		return nil, err
	}
	timer := time.AfterFunc(workerTimeout, func() { _ = cmd.Process.Kill() })
	err = waitChild(cmd)
	timer.Stop()
	if err != nil {
		return nil, fmt.Errorf("fit worker: %w", err)
	}
	var rep fitReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		return nil, fmt.Errorf("fit worker report: %w", err)
	}
	return &rep, nil
}

// runFitWorker is the worker process: it ingests the training CSVs, then
// fits a layout and scores its held-out rows, layout after layout, until
// every layout has had a trial and the measured time has passed, and
// prints a fitReport. A set-up sample, ingesting the first layout's
// training CSV, goes before every trial and after the last, so the
// samples spread over the whole run as the trials do.
func runFitWorker(e *env, dir string) int {
	w, ok := fitWorkloads[e.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench worker: unknown fit workload %q\n", e.workload)
		return 2
	}
	rows := make([][][]float64, layouts)
	holdRows := make([][][]float64, layouts)
	labels := make([][]bool, layouts)
	var rep fitReport
	var setupCSV []byte
	for k := range rows {
		csv, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("train-%d.csv", k)))
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench worker:", err)
			return 1
		}
		if k == 0 {
			setupCSV, rep.CSVBytes = csv, len(csv)
		}
		train, err := parseCSV(csv)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench worker:", err)
			return 1
		}
		csv, err = os.ReadFile(filepath.Join(dir, fmt.Sprintf("holdout-%d.csv", k)))
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench worker:", err)
			return 1
		}
		hold, err := parseCSV(csv)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench worker:", err)
			return 1
		}
		// The fits take rows; the parsed datasets go.
		rows[k], holdRows[k], labels[k] = rowsOf(train.Data), rowsOf(hold.Data), train.Outlier
	}

	setup := func() bool {
		d, err := ingestSample(setupCSV, e.tr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench worker:", err)
			return false
		}
		rep.SetupS = append(rep.SetupS, d.Seconds())
		return true
	}
	start := time.Now()
	for n := 0; n < layouts || time.Since(start) < e.seconds; n++ {
		if !setup() {
			return 1
		}
		k := n % layouts
		opts := w.opts
		opts.Seed = layoutSeed(e.seed, k)
		runtime.GC()
		t, model := runFitTrial(rows[k], labels[k], opts, e.tr)
		t.Layout = k
		if model != nil {
			// Held-out scoring follows every fit, so its samples spread
			// over the whole run like the fits' do.
			t.ScoreP50Ms, t.BatchRowsPerS, t.HoldoutFailed = scoreHoldout(model, holdRows[k])
			t.HoldoutRows = len(holdRows[k])
		}
		rep.Trials = append(rep.Trials, t)
		if model == nil {
			break
		}
	}
	if !setup() {
		return 1
	}
	var err error
	rep.PeakRSSMiB, err = peakRSSMiB(0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench worker:", err)
		return 1
	}
	if e.tr != nil {
		rep.Spans = e.tr.spans
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench worker:", err)
		return 1
	}
	return 0
}

func parseCSV(csv []byte) (*dataset.Labeled, error) {
	return dataset.ReadLabeledCSV(bytes.NewReader(csv), dataset.CSVOptions{Header: true})
}

func rowsOf(ds *dataset.Dataset) [][]float64 {
	rows := make([][]float64, ds.N())
	for i := range rows {
		rows[i] = ds.Row(i, nil)
	}
	return rows
}

// runFitTrial times one hics.Fit, wall and CPU, and records what it
// produced. When traced it then replays the fit layer by layer.
func runFitTrial(rows [][]float64, labels []bool, opts hics.Options, tr *tracer) (fitTrial, *hics.Model) {
	root := tr.start("trial", 0)
	defer tr.end(root)
	cpu0 := selfCPU()
	id := tr.start("hics.Fit", root)
	t0 := time.Now()
	m, err := hics.Fit(rows, opts)
	wall := time.Since(t0)
	tr.end(id)
	t := fitTrial{WallS: wall.Seconds(), CPUS: (selfCPU() - cpu0).Seconds()}
	if err != nil {
		t.Err = err.Error()
		return t, nil
	}
	h := fnv.New64a()
	for _, s := range m.TrainingScores() {
		var b [8]byte
		bits := math.Float64bits(s)
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
	}
	t.ScoreHash = h.Sum64()
	for _, s := range m.Subspaces() {
		t.Subspaces = append(t.Subspaces, s.Dims)
	}
	if t.AUC, err = eval.AUC(m.TrainingScores(), labels); err != nil {
		t.Err = err.Error()
	}
	if tr != nil {
		t.Layers, err = replayFit(rows, opts, m, tr, root)
		if err != nil {
			t.Err = "layer replay: " + err.Error()
		}
		t.Layers["fit_s"] = wall.Seconds()
		t.Layers["hics.subspaces"] = float64(len(t.Subspaces))
	}
	return t, m
}

// replayFit repeats, one public call at a time, the layer calls hics.Fit
// makes on the same rows — dataset build, contrast search, one LOF fit
// per retained subspace — and then, separately, the neighbour-index build
// and batch kNN pass each LOF fit runs inside. The replayed search must
// select exactly the subspaces m holds, so the figures describe the same
// work the timed fit did.
func replayFit(rows [][]float64, opts hics.Options, m *hics.Model, tr *tracer, parent int) (map[string]float64, error) {
	ctx := context.Background()
	v := map[string]float64{}
	rid := tr.start("replay.fit", parent)
	id := tr.start("dataset.FromRows", rid)
	ds, err := dataset.FromRows(nil, rows)
	tr.end(id)
	if err != nil {
		return v, err
	}
	p := core.Params{
		M: opts.M, Alpha: opts.Alpha, Cutoff: opts.CandidateCutoff, TopK: opts.TopK, Seed: opts.Seed,
		Workers: opts.Workers, MaxDim: opts.MaxDim, AdaptiveM: opts.AdaptiveM, MaxSampleRows: opts.MaxSampleRows,
	}
	id = tr.start("core.SearchContext", rid)
	res, err := core.SearchContext(ctx, ds, p)
	v["core.search_s"] = tr.end(id).Seconds()
	if err != nil {
		return v, err
	}
	want := m.Subspaces()
	if len(res.Subspaces) != len(want) {
		return v, fmt.Errorf("replayed search kept %d subspaces, the fit %d", len(res.Subspaces), len(want))
	}
	for i, sc := range res.Subspaces {
		if !subspace.New(want[i].Dims...).Equal(sc.S) || want[i].Contrast != sc.Score {
			return v, fmt.Errorf("replayed subspace %d is %v (%g), the fit's %v (%g)", i, sc.S, sc.Score, want[i].Dims, want[i].Contrast)
		}
	}
	retained := 0
	for _, lvl := range res.Levels {
		retained += len(lvl)
	}
	v["core.candidates"] = float64(res.Evaluated)
	v["core.mc_iterations"] = float64(res.MCIterations)
	v["core.levels"] = float64(len(res.Levels))
	v["core.retained_share"] = float64(retained) / float64(res.Evaluated)

	minPts := opts.MinPts
	if minPts < 1 {
		minPts = lof.DefaultMinPts
	}
	for _, sc := range res.Subspaces {
		id = tr.start("lof.FitContext", rid)
		_, _, err := lof.FitContext(ctx, ds, sc.S, minPts, neighbors.KindAuto, opts.Workers)
		v["lof.fit_s"] += tr.end(id).Seconds()
		if err != nil {
			return v, err
		}
	}
	tr.end(rid)

	nid := tr.start("replay.neighbors", parent)
	defer tr.end(nid)
	for _, sc := range res.Subspaces {
		id = tr.start("neighbors.New", nid)
		idx, err := neighbors.New(ds, sc.S, neighbors.KindAuto)
		v["neighbors.build_s"] += tr.end(id).Seconds()
		if err != nil {
			return v, err
		}
		id = tr.start("Index.KNNAllContext", nid)
		_, _, err = idx.KNNAllContext(ctx, minPts, opts.Workers)
		v["neighbors.knn_all_s"] += tr.end(id).Seconds()
		if err != nil {
			return v, err
		}
		v["neighbors.queries"] += float64(idx.N())
		switch idx.Kind() {
		case neighbors.KindKDTree:
			v["neighbors.kdtree_indexes"]++
		case neighbors.KindBrute:
			v["neighbors.brute_indexes"]++
		}
	}
	return v, nil
}

// scoreHoldout scores each held-out row with Model.Score, timing every
// call, then times Model.ScoreBatch over all of them, repeated until the
// sample covers minBatchSample. It returns the median Score latency in ms, the
// batch rate in rows/s, and the rows whose first batch score is not the
// single-row score bit for bit, or that failed.
func scoreHoldout(m *hics.Model, rows [][]float64) (p50Ms, rowsPerS float64, failed int) {
	single := make([]float64, len(rows))
	bad := make([]bool, len(rows))
	lat := make([]float64, len(rows))
	runtime.GC()
	for i, r := range rows {
		t0 := time.Now()
		s, err := m.Score(r)
		lat[i] = float64(time.Since(t0)) / 1e6
		single[i], bad[i] = s, err != nil
	}
	runtime.GC()
	t0 := time.Now()
	batch, err := m.ScoreBatch(rows)
	calls := 1
	for err == nil && time.Since(t0) < minBatchSample {
		_, err = m.ScoreBatch(rows)
		calls++
	}
	rowsPerS = float64(calls*len(rows)) / time.Since(t0).Seconds()
	for i := range rows {
		if bad[i] || err != nil || batch[i] != single[i] {
			failed++
		}
	}
	return stats.Median(lat), rowsPerS, failed
}
