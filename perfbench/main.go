// Command perfbench is the repository benchmark. It runs one workload end
// to end against the program built from this checkout, checks the
// program's outputs, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload fit-tall --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the run also times each layer's public calls as spans, prints
// the layer table, writes the spans under the output directory and
// reports the per-layer metrics instead. See README.md for the workloads
// and the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"
)

// runDeadline bounds one run, builds excluded; children are killed and
// the run fails without a result once it passes.
const runDeadline = 170 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what every workload needs from the command line.
type env struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	out      string // temporary-file, span and binary directory inside the checkout
	tr       *tracer
}

// runDir returns a fresh temporary directory for this run under env.out.
func (e *env) runDir() (string, error) {
	return os.MkdirTemp(e.out, "run-"+e.workload+"-")
}

// children tracks started processes so the deadline and signal handlers
// can stop them.
var children struct {
	sync.Mutex
	procs map[int]*os.Process
}

// startChild starts cmd, killed with this process if it dies first.
func startChild(cmd *exec.Cmd) error {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return err
	}
	children.Lock()
	if children.procs == nil {
		children.procs = map[int]*os.Process{}
	}
	children.procs[cmd.Process.Pid] = cmd.Process
	children.Unlock()
	return nil
}

// waitChild waits for cmd to exit and forgets it.
func waitChild(cmd *exec.Cmd) error {
	err := cmd.Wait()
	children.Lock()
	delete(children.procs, cmd.Process.Pid)
	children.Unlock()
	return err
}

func killChildren() {
	children.Lock()
	defer children.Unlock()
	for _, p := range children.procs {
		_ = p.Kill()
	}
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: fit-tall, fit-wide or stream-window")
	seed := fs.Uint64("seed", 1, "seed of the generated inputs")
	seconds := fs.Int("seconds", 25, "measured seconds: fit trials repeat until they pass, the paced stream rows last about this long")
	traceFlag := fs.Int("trace", 0, "1 records layer spans and reports the per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for temporary files, span dumps and the hicsd binary")
	worker := fs.String("worker", "", "run as the fit worker on this run directory (started by the benchmark itself)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	e := &env{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *traceFlag == 1, out: *out}
	if e.trace {
		e.tr = newTracer()
	}
	if *worker != "" {
		return runFitWorker(e, *worker)
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		select {
		case s := <-sigs:
			fmt.Fprintf(os.Stderr, "perfbench: %v, stopping\n", s)
		case <-time.After(runDeadline):
			fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v, stopping\n", runDeadline)
		}
		killChildren()
		os.Exit(3)
	}()

	if err := os.MkdirAll(e.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	var (
		res *result
		tab *layerTable
		err error
	)
	switch e.workload {
	case "fit-tall", "fit-wide":
		res, tab, err = runFit(e, fitWorkloads[e.workload])
	case "stream-window":
		res, tab, err = runStream(e)
	default:
		err = fmt.Errorf("unknown workload %q (want fit-tall, fit-wide or stream-window)", e.workload)
	}
	killChildren()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if e.trace {
		tab.print(os.Stdout)
		if err := writeSpans(e, tab); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		res.Metrics = tab.perLayer()
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// writeSpans writes the run's spans, per process, as one JSON file.
func writeSpans(e *env, tab *layerTable) error {
	dir := filepath.Join(e.out, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(tab.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", e.workload, e.seed)), b, 0o644)
}
