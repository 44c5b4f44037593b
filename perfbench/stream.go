package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"hics"
	"hics/internal/eval"
	"hics/internal/stats"
	"hics/internal/synth"
)

// The stream-window workload: hicsd serves a model fitted on streamTrain
// rows; one /stream session with a sliding window and periodic refits is
// fed fresh rows from the same generator, paced (open loop) and in bulk
// (closed loop) by turns.
const (
	streamTrain = 20_000
	streamDims  = 6
	// streamGroupDim fixes the planted groups at two of three attributes:
	// the group layout sets how many subspaces every (re)fit keeps, so a
	// seed-drawn layout would make the per-row cost depend on the seed.
	streamGroupDim = 3
	// The served model keeps ten of the 15 attribute pairs, a fixed amount
	// of work for its fit and for scoring against it; with subspaces of
	// any size its fit time followed which sizes the seed made win.
	streamTopK       = 10
	streamMaxDim     = 2
	streamWindow     = 200
	streamRefitEvery = 400
	// pacedInterval spaces the paced rows: 1,000 rows/s keeps the server
	// about a quarter busy, well below the ~6,000 rows/s one session
	// sustains, so queueing stays out of the latency.
	pacedInterval = time.Millisecond
	// cpuWindowRows is the paced CPU sample: two seconds of rows, holding
	// exactly five refit triggers.
	cpuWindowRows = 2_000
	// bulkBlockRows is one bulk sample: about half a second of rows,
	// holding exactly ten refit triggers. One follows every paced CPU
	// window (see streamPlan).
	bulkBlockRows = 4_000
	// bulkInFlight bounds the rows sent but not yet answered in the bulk
	// blocks: enough that the server never waits for input.
	bulkInFlight = 64
	streamFits   = 6
	hicsdStarts  = 9
	// outlierEvery sets the planted outliers per correlated group to one
	// per this many rows, so every window holds some and the streamed
	// scores' AUC is steady across seeds.
	outlierEvery = 400
)

var streamQuery = fmt.Sprintf("/stream?window=%d&refit_every=%d", streamWindow, streamRefitEvery)

// streamData generates the workload's inputs: the training rows of the
// served model, then feed rows, with their ground truth.
func streamData(seed uint64, feed int) (rows [][]float64, labels []bool, err error) {
	n := streamTrain + feed
	gen, err := synth.Generate(synth.Config{
		N: n, D: streamDims, MinSubspaceDim: streamGroupDim, MaxSubspaceDim: streamGroupDim,
		MinClusters: clusters, MaxClusters: clusters, OutliersPerSubspace: n / outlierEvery, Seed: seed,
	})
	if err != nil {
		return nil, nil, err
	}
	return rowsOf(gen.Data.Data), gen.Data.Outlier, nil
}

func runStream(e *env) (*result, *layerTable, error) {
	warm := cpuWindowRows / 2
	windows := (int(e.seconds/pacedInterval) - warm) / cpuWindowRows
	if windows < 1 {
		return nil, nil, fmt.Errorf("stream-window paces too few rows for one CPU window of %d; raise --seconds", cpuWindowRows)
	}
	plan := streamPlan(warm, cpuWindowRows, bulkBlockRows, windows)
	rows, labels, err := streamData(e.seed, plan[len(plan)-1].hi)
	if err != nil {
		return nil, nil, err
	}
	train, feed := rows[:streamTrain], rows[streamTrain:]
	dir, err := e.runDir()
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	res := &result{Correct: true, Metrics: map[string]metric{}}
	tab := newLayerTable(e.workload)

	// The served model: timed fits, replayed by layer when tracing, all of
	// which must agree. Half of them go before the session and half after,
	// as do the server starts, so that their medians span the whole run.
	opts := hics.Options{TopK: streamTopK, MaxDim: streamMaxDim, Seed: e.seed}
	var (
		model  *hics.Model
		trials []fitTrial
		walls  []float64
	)
	fits := func(n int) {
		for ; n > 0; n-- {
			model = nil
			runtime.GC()
			var t fitTrial
			t, model = runFitTrial(train, labels[:streamTrain], opts, e.tr)
			trials = append(trials, t)
			res.Attempted++
			if msg := checkTrial(t, trials[0], nil, false); msg != "" {
				fmt.Fprintf(os.Stderr, "perfbench: fit %d: %s\n", len(trials)-1, msg)
				res.Failed++
				continue
			}
			walls = append(walls, t.WallS)
		}
	}
	fits(streamFits / 2)
	if model == nil {
		res.Correct = false
		return res, tab, nil
	}
	modelPath := filepath.Join(dir, "model.hics")
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		return nil, nil, err
	}
	if err := os.WriteFile(modelPath, buf.Bytes(), 0o644); err != nil {
		return nil, nil, err
	}

	ref, streamLayers, err := referenceStream(model, feed, plan, e.tr)
	if err != nil {
		return nil, nil, err
	}
	model = nil
	runtime.GC()

	bin := filepath.Join(e.out, "hicsd")
	var (
		starts []float64
		srv    *hicsd
	)
	// restarts starts the server n times, stopping the one before; the
	// last one keeps running.
	restarts := func(n int) error {
		for ; n > 0; n-- {
			if srv != nil {
				if err := srv.stop(); err != nil {
					return err
				}
			}
			next, d, err := startHicsd(bin, modelPath, filepath.Join(dir, "hicsd.log"))
			if err != nil {
				return err
			}
			srv = next
			starts = append(starts, d.Seconds())
		}
		return nil
	}
	if err := restarts(hicsdStarts/2 + 1); err != nil {
		return nil, nil, err
	}
	defer func() { srv.stop() }()

	s, err := runSession(srv.addr, srv.cmd.Process.Pid, feed, plan, e.seconds+60*time.Second)
	if err != nil {
		return nil, nil, err
	}
	peak, err := peakRSSMiB(srv.cmd.Process.Pid)
	if err != nil {
		return nil, nil, err
	}
	if err := restarts(hicsdStarts / 2); err != nil {
		return nil, nil, err
	}
	if err := srv.stop(); err != nil {
		return nil, nil, err
	}
	fits(streamFits - streamFits/2)

	res.Attempted += len(feed)
	bad := s.check(ref)
	res.Failed += bad
	res.Correct = res.Failed == 0
	if !res.Correct {
		return res, tab, nil
	}
	auc, err := eval.AUC(s.score, labels[streamTrain:])
	if err != nil {
		return nil, nil, err
	}
	lat := s.latenciesMs()
	cpuPerRow := stats.Mean(s.cpuPerRowUS())
	res.Metrics = map[string]metric{
		"setup_s":         {stats.Median(starts), "s"},
		"fit_s":           {stats.Median(walls), "s"},
		"auc":             {auc, "auc"},
		"row_p50_ms":      {stats.Median(lat), "ms"},
		"cpu_us_per_row":  {cpuPerRow, "us"},
		"bulk_rows_per_s": {stats.Median(s.bulkRates), "rows/s"},
		"peak_rss_mb":     {peak, "MiB"},
	}
	if e.trace {
		var layers []map[string]float64
		for _, t := range trials {
			layers = append(layers, t.Layers)
		}
		tab.addFitLayers(layers)
		for k, v := range streamLayers {
			tab.values[k] = v
		}
		tab.rowCPUUS = cpuPerRow
		v := tab.values
		v["serve.overhead_us_per_row"] = cpuPerRow - v["stream.push_us_per_row"]
		bulkRows := float64(windows * bulkBlockRows)
		v["serve.bulk_cpu_us_per_row"] = float64(s.bulkCPU.Microseconds()) / bulkRows
		v["serve.reads_per_krow"] = float64(s.bulkReads) * 1000 / bulkRows
		v["serve.bytes_in_per_row"] = float64(s.bytesSent) / float64(len(feed))
		v["serve.bytes_out_per_row"] = float64(s.bytesRead.Load()) / float64(len(feed))
		v["serve.row_p90_ms"] = stats.Quantile(lat, 0.90)
		v["serve.row_p99_ms"] = stats.Quantile(lat, 0.99)
		_, v["serve.row_max_ms"] = stats.MinMax(lat)
		late := s.latenessMs()
		v["gen.lateness_ms_p50"] = stats.Median(late)
		v["gen.lateness_ms_p99"] = stats.Quantile(late, 0.99)
		v["gen.rows_sent"] = float64(len(feed))
		tab.spans["bench"] = e.tr.spans
	}
	return res, tab, nil
}

// referenceStream pushes the feed through an in-process stream over the
// same model and options as the served session. Refits are synchronous,
// so the sequence is deterministic and every served record must equal
// it. When traced, every push is a span, and the stream layer figures
// cover the paced rows of plan; stream.push_us_per_row covers the rows of
// the server's CPU windows.
func referenceStream(m *hics.Model, feed [][]float64, plan []segment, tr *tracer) ([]hics.StreamResult, map[string]float64, error) {
	if n := plan[len(plan)-1].hi; n != len(feed) {
		return nil, nil, fmt.Errorf("the plan lays out %d rows for a feed of %d", n, len(feed))
	}
	st, err := m.NewStream(hics.StreamOptions{Window: streamWindow, RefitEvery: streamRefitEvery})
	if err != nil {
		return nil, nil, err
	}
	defer st.Close()
	ctx := context.Background()
	out := make([]hics.StreamResult, 0, len(feed))
	var scoreUS, refitMS []float64
	var total, refitTotal, windowCPU time.Duration
	windowRows := 0
	root := tr.start("stream.reference", 0)
	for k, seg := range plan {
		cpu0 := selfCPU()
		for i := seg.lo; i < seg.hi; i++ {
			refits := st.Refits()
			id := tr.start("Stream.Push", root)
			rs, err := st.Push(ctx, feed[i])
			d := tr.end(id)
			if err != nil {
				return nil, nil, fmt.Errorf("reference push %d: %w", i, err)
			}
			if len(rs) != 1 || rs[0].Index != i {
				return nil, nil, fmt.Errorf("reference push %d returned %d results", i, len(rs))
			}
			out = append(out, rs[0])
			if !seg.paced {
				continue
			}
			total += d
			if st.Refits() > refits {
				refitTotal += d
				refitMS = append(refitMS, float64(d)/1e6)
			} else {
				scoreUS = append(scoreUS, float64(d)/1e3)
			}
		}
		if seg.cpuWindow(k) {
			windowCPU += selfCPU() - cpu0
			windowRows += seg.hi - seg.lo
		}
	}
	tr.end(root)
	if tr == nil {
		return out, nil, nil
	}
	return out, map[string]float64{
		"stream.push_us_per_row": float64(windowCPU.Microseconds()) / float64(windowRows),
		"stream.score_us_p50":    stats.Median(scoreUS),
		"stream.refits":          float64(len(refitMS)),
		"stream.refit_ms_p50":    stats.Median(refitMS),
		"stream.refit_share":     float64(refitTotal) / float64(total),
	}, nil
}

// hicsd is one running server process.
type hicsd struct {
	cmd     *exec.Cmd
	addr    string
	exited  chan struct{}
	waitErr error
	stopped bool
}

// startHicsd starts the server on a free loopback port with tracing off
// and returns once /healthz answers 200, with the time that took.
func startHicsd(bin, model, logPath string) (*hicsd, time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := ln.Addr().String()
	ln.Close()
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, "-model", model, "-addr", addr, "-trace-sample", "0", "-trace-slow-ms", "0")
	cmd.Stdout, cmd.Stderr = logf, logf
	h := &hicsd{cmd: cmd, addr: addr, exited: make(chan struct{})}
	client := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	defer client.CloseIdleConnections()
	t0 := time.Now()
	if err := startChild(cmd); err != nil {
		return nil, 0, err
	}
	go func() {
		h.waitErr = waitChild(cmd)
		close(h.exited)
	}()
	for {
		resp, err := client.Get("http://" + addr + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return h, time.Since(t0), nil
			}
		}
		select {
		case <-h.exited:
			log, _ := os.ReadFile(logPath)
			return nil, 0, fmt.Errorf("hicsd exited before becoming healthy (%v): %s", h.waitErr, log)
		case <-time.After(time.Millisecond):
		}
		if time.Since(t0) > 30*time.Second {
			h.stop()
			return nil, 0, errors.New("hicsd did not become healthy within 30s")
		}
	}
}

// stop terminates the server gracefully and waits for it to exit.
func (h *hicsd) stop() error {
	if h.stopped {
		return nil
	}
	h.stopped = true
	_ = h.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-h.exited:
	case <-time.After(20 * time.Second):
		_ = h.cmd.Process.Kill()
		<-h.exited
		return errors.New("hicsd ignored SIGTERM for 20s")
	}
	return nil
}
