package main

import (
	"bytes"
	"math"
	"net/http/httptest"
	"os"
	"reflect"
	"testing"
	"time"

	"hics"
	"hics/internal/serve"
	"hics/internal/subspace"
	"hics/internal/synth"
)

// The inputs of every workload are a function of the seed alone.
func TestInputsDeterministicPerSeed(t *testing.T) {
	for name, w := range fitWorkloads {
		cfg := w.synth
		// A smaller N takes the same code path in a fraction of the time.
		cfg.N, w.train = 600, 400
		render := func(seed uint64) []byte {
			cfg.Seed = seed
			gen, err := synth.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			a, b, err := fitCSVs(gen, w.train)
			if err != nil {
				t.Fatal(err)
			}
			return append(a, b...)
		}
		if !bytes.Equal(render(3), render(3)) {
			t.Errorf("%s: two renders of seed 3 differ", name)
		}
		if bytes.Equal(render(3), render(4)) {
			t.Errorf("%s: seeds 3 and 4 render the same inputs", name)
		}
	}
	rows1, labels1, err := streamData(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	rows2, labels2, _ := streamData(3, 5)
	rows3, _, _ := streamData(4, 5)
	if !reflect.DeepEqual(rows1, rows2) || !reflect.DeepEqual(labels1, labels2) {
		t.Error("stream-window: two generations of seed 3 differ")
	}
	if reflect.DeepEqual(rows1, rows3) {
		t.Error("stream-window: seeds 3 and 4 generate the same rows")
	}
}

// smallPlan lays out a small feed: two paced windows and two bulk blocks.
var smallPlan = streamPlan(100, 200, 250, 2)

// smallStream fits a small model and runs the in-process reference
// stream over the rows smallPlan lays out.
func smallStream(t *testing.T) (*hics.Model, [][]float64, []hics.StreamResult) {
	t.Helper()
	gen, err := synth.Generate(synth.Config{N: 1500, D: 6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rows := rowsOf(gen.Data.Data)
	m, err := hics.Fit(rows[:500], hics.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	feed := rows[500 : 500+smallPlan[len(smallPlan)-1].hi]
	ref, _, err := referenceStream(m, feed, smallPlan, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m, feed, ref
}

// servedCopy builds a session holding exactly the reference records.
func servedCopy(ref []hics.StreamResult) *session {
	s := &session{score: make([]float64, len(ref)), refits: make([]int, len(ref)), seen: make([]int, len(ref))}
	for i, r := range ref {
		s.score[i], s.refits[i], s.seen[i] = r.Score, r.Refits, 1
	}
	return s
}

func TestCheckCatchesOneChangedRecord(t *testing.T) {
	_, _, ref := smallStream(t)
	if n := servedCopy(ref).check(ref); n != 0 {
		t.Fatalf("identical records: %d failed, want 0", n)
	}
	for name, spoil := range map[string]func(s *session){
		"score one ulp off": func(s *session) { s.score[321] = math.Nextafter(s.score[321], math.Inf(1)) },
		"refit count":       func(s *session) { s.refits[7]++ },
		"missing record":    func(s *session) { s.seen[999] = 0 },
		"repeated record":   func(s *session) { s.seen[0] = 2 },
		"error record":      func(s *session) { s.errRecs = []string{"boom"} },
	} {
		s := servedCopy(ref)
		spoil(s)
		if n := s.check(ref); n != 1 {
			t.Errorf("%s: %d failed, want 1", name, n)
		}
	}
}

func TestCheckTrial(t *testing.T) {
	planted := []subspace.Subspace{subspace.New(0, 1, 2), subspace.New(3, 4)}
	good := fitTrial{ScoreHash: 1, Subspaces: [][]int{{0, 2}, {3, 4}}}
	if msg := checkTrial(good, good, planted, true); msg != "" {
		t.Fatalf("good trial rejected: %s", msg)
	}
	drift := good
	drift.ScoreHash = 2
	if checkTrial(drift, good, planted, true) == "" {
		t.Error("a fit whose scores differ from the first fit passed")
	}
	stray := good
	stray.Subspaces = [][]int{{2, 3}}
	if checkTrial(stray, stray, planted, true) == "" {
		t.Error("a subspace across two planted groups passed")
	}
	if checkTrial(stray, stray, planted, false) != "" {
		t.Error("the planted-group check ran where it is off")
	}
}

// A real /stream session through the generator agrees with the reference
// score for score.
func TestSessionMatchesReference(t *testing.T) {
	m, feed, ref := smallStream(t)
	srv := httptest.NewServer(serve.NewHandler(m))
	defer srv.Close()
	s, err := runSession(srv.Listener.Addr().String(), os.Getpid(), feed, smallPlan, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if n := s.check(ref); n != 0 {
		t.Fatalf("%d of %d served records differ from the reference", n, len(ref))
	}
	if s.bytesSent == 0 || s.reads.Load() == 0 || len(s.pacedCPU) != 2 || len(s.bulkRates) != 2 {
		t.Errorf("session counters not recorded: sent %d bytes, %d reads, %d CPU windows, %d bulk blocks",
			s.bytesSent, s.reads.Load(), len(s.pacedCPU), len(s.bulkRates))
	}
	for i, l := range s.latenciesMs() {
		if l <= 0 {
			t.Fatalf("row %d latency %v ms, want > 0", i, l)
		}
	}
}

// The plan covers the feed without gaps, alternates paced windows with
// bulk blocks after the warm-up, and gives every CPU window the same
// number of refit triggers, as it does every bulk block, none of them
// next to an edge.
func TestPlanSegmentsHoldEqualRefits(t *testing.T) {
	plan := streamPlan(cpuWindowRows/2, cpuWindowRows, bulkBlockRows, 12) // --seconds 25
	if len(plan) != 25 {
		t.Fatalf("plan holds %d segments, want 25", len(plan))
	}
	next := 0
	for k, seg := range plan {
		if seg.lo != next || seg.hi <= seg.lo {
			t.Fatalf("segment %d is [%d,%d), want it to start at %d", k, seg.lo, seg.hi, next)
		}
		next = seg.hi
		if seg.paced != (k == 0 || k%2 == 1) || seg.cpuWindow(k) != (k%2 == 1) {
			t.Errorf("segment %d: paced %v, CPU window %v", k, seg.paced, seg.cpuWindow(k))
		}
		if k == 0 {
			continue
		}
		triggers := 0
		for r := seg.lo; r < seg.hi; r++ {
			if (r+1)%streamRefitEvery == 0 {
				triggers++
				if r-seg.lo < streamRefitEvery/4 || seg.hi-1-r < streamRefitEvery/4 {
					t.Errorf("refit trigger at row %d lies next to an edge of segment [%d,%d)", r, seg.lo, seg.hi)
				}
			}
		}
		if want := (seg.hi - seg.lo) / streamRefitEvery; triggers != want {
			t.Errorf("segment [%d,%d) holds %d refit triggers, want %d", seg.lo, seg.hi, triggers, want)
		}
	}
}
