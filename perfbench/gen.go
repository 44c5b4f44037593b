package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"hics"
)

// segment is a run [lo, hi) of feed rows sent one way: paced rows open
// loop, one every pacedInterval; bulk rows closed loop, at most
// bulkInFlight unanswered.
type segment struct {
	lo, hi int
	paced  bool
}

// cpuWindow reports whether seg, the k-th segment of its plan, is a paced
// CPU window: every paced segment but the warm-up.
func (seg segment) cpuWindow(k int) bool { return seg.paced && k > 0 }

// streamPlan lays out a feed: warm paced rows, then windows pairs of a
// paced window of window rows and a bulk block of block rows. The host's
// speed drifts in episodes of seconds, so the bulk samples alternate with
// the paced ones across the whole run rather than sharing one stretch of
// it; each segment starts once the one before is fully answered.
func streamPlan(warm, window, block, windows int) []segment {
	plan := []segment{{0, warm, true}}
	for n := warm; len(plan) < 1+2*windows; n += window + block {
		plan = append(plan, segment{n, n + window, true}, segment{n + window, n + window + block, false})
	}
	return plan
}

// session drives one /stream session over a raw HTTP/1.1 connection with
// a chunked request body, so the client is exactly two goroutines: the
// caller sends rows segment by segment, one reader decodes records. Each
// paced row is timed from its due time.
type session struct {
	conn net.Conn
	t0   time.Time
	plan []segment

	// Written by the sender only.
	due       []time.Duration // per paced row: when it was due, since t0
	sentAt    []time.Duration // per paced row: when it went out, since t0
	bytesSent int64
	pacedCPU  []time.Duration // hicsd CPU of each paced CPU window
	bulkCPU   time.Duration   // hicsd CPU over the bulk blocks
	bulkReads int64           // response reads during the bulk blocks
	bulkRates []float64       // rows/s of each bulk block

	// Written by the reader; read by the sender only through the atomics,
	// and by everyone else after the reader has finished.
	recvAt    []time.Duration // per row: when its record arrived, since t0
	score     []float64
	refits    []int
	seen      []int
	bogus     int      // records naming no row of the feed
	errRecs   []string // terminal error records
	readErr   error
	received  atomic.Int64
	reads     atomic.Int64
	bytesRead atomic.Int64
	progress  chan struct{} // poked after each record
	done      chan struct{} // closed when the reader returns
}

// streamRecord is one /stream response line: a scored row or an error.
type streamRecord struct {
	Index  *int    `json:"index"`
	Score  float64 `json:"score"`
	Refits int     `json:"refits"`
	Error  string  `json:"error"`
}

// runSession feeds rows in one /stream session to the server at addr,
// whose process is pid, as plan lays them out, and waits until every
// record has arrived and the response has ended.
func runSession(addr string, pid int, rows [][]float64, plan []segment, timeout time.Duration) (*session, error) {
	if n := plan[len(plan)-1].hi; n != len(rows) {
		return nil, fmt.Errorf("the plan lays out %d rows for a feed of %d", n, len(rows))
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	n := len(rows)
	s := &session{
		conn: conn, t0: time.Now(), plan: plan,
		due: make([]time.Duration, n), sentAt: make([]time.Duration, n),
		recvAt: make([]time.Duration, n), score: make([]float64, n), refits: make([]int, n), seen: make([]int, n),
		progress: make(chan struct{}, 1), done: make(chan struct{}),
	}
	if err := conn.SetDeadline(s.t0.Add(timeout)); err != nil {
		return nil, err
	}
	go s.read()
	sendErr := s.send(pid, rows)
	if sendErr != nil {
		conn.Close()
	}
	<-s.done
	if sendErr != nil {
		return nil, sendErr
	}
	if s.readErr != nil {
		return nil, fmt.Errorf("reading /stream records: %w", s.readErr)
	}
	return s, nil
}

func (s *session) send(pid int, rows [][]float64) error {
	head := "POST " + streamQuery + " HTTP/1.1\r\nHost: " + s.conn.RemoteAddr().String() +
		"\r\nContent-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\n\r\n"
	if err := s.write([]byte(head)); err != nil {
		return err
	}
	var buf []byte
	for k, seg := range s.plan {
		// The server is idle: the segment before is fully answered.
		cpu0, err := procCPU(pid)
		if err != nil {
			return err
		}
		reads0 := s.reads.Load()
		start := time.Since(s.t0)
		if seg.paced {
			// The first row is due shortly after the segment before, once
			// the server has had a moment to start the session or settle.
			start += 10 * time.Millisecond
		}
		for i := seg.lo; i < seg.hi; i++ {
			if seg.paced {
				s.due[i] = start + time.Duration(i-seg.lo)*pacedInterval
				sleepUntil(s.t0, s.due[i])
				s.sentAt[i] = time.Since(s.t0)
			} else if err := s.awaitRecords(i - bulkInFlight + 1); err != nil {
				return err
			}
			buf = appendChunk(buf[:0], rows[i])
			if err := s.write(buf); err != nil {
				return err
			}
		}
		if err := s.awaitRecords(seg.hi); err != nil {
			return err
		}
		cpu1, err := procCPU(pid)
		if err != nil {
			return err
		}
		switch {
		case !seg.paced:
			s.bulkCPU += cpu1 - cpu0
			s.bulkReads += s.reads.Load() - reads0
			s.bulkRates = append(s.bulkRates, float64(seg.hi-seg.lo)/(s.recvAt[seg.hi-1]-start).Seconds())
		case seg.cpuWindow(k):
			s.pacedCPU = append(s.pacedCPU, cpu1-cpu0)
		}
	}
	return s.write([]byte("0\r\n\r\n"))
}

func (s *session) write(b []byte) error {
	n, err := s.conn.Write(b)
	s.bytesSent += int64(n)
	return err
}

// awaitRecords blocks until at least n records have arrived.
func (s *session) awaitRecords(n int) error {
	for s.received.Load() < int64(n) {
		select {
		case <-s.progress:
		case <-s.done:
			if s.received.Load() >= int64(n) {
				return nil
			}
			return fmt.Errorf("/stream response ended after %d of %d records (%v, %q)", s.received.Load(), n, s.readErr, s.errRecs)
		}
	}
	return nil
}

// appendChunk appends row as one NDJSON line in one HTTP chunk. Floats
// use the shortest form that round-trips, so the server parses exactly
// the values the reference stream saw.
func appendChunk(buf []byte, row []float64) []byte {
	line := make([]byte, 0, 24*len(row)+4)
	line = append(line, '[')
	for j, v := range row {
		if j > 0 {
			line = append(line, ',')
		}
		line = strconv.AppendFloat(line, v, 'g', -1, 64)
	}
	line = append(line, ']', '\n')
	buf = strconv.AppendInt(buf, int64(len(line)), 16)
	buf = append(buf, '\r', '\n')
	buf = append(buf, line...)
	return append(buf, '\r', '\n')
}

// sleepUntil blocks until due (since t0) in a nanosleep. The Go timer
// wakes sleepers on a millisecond grid, up to a whole interval late;
// nanosleep's slack is tens of microseconds.
func sleepUntil(t0 time.Time, due time.Duration) {
	d := due - time.Since(t0)
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// countingConn counts the reads of the response that returned data.
type countingConn struct{ s *session }

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.s.conn.Read(p)
	if n > 0 {
		c.s.reads.Add(1)
		c.s.bytesRead.Add(int64(n))
	}
	return n, err
}

func (s *session) read() {
	defer close(s.done)
	br := bufio.NewReader(countingConn{s})
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		s.readErr = err
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		s.readErr = fmt.Errorf("status %s: %s", resp.Status, body)
		return
	}
	lines := bufio.NewReader(resp.Body)
	for {
		line, err := lines.ReadBytes('\n')
		if len(line) > 0 {
			now := time.Since(s.t0)
			var rec streamRecord
			switch jerr := json.Unmarshal(line, &rec); {
			case jerr != nil:
				s.bogus++
			case rec.Error != "":
				s.errRecs = append(s.errRecs, rec.Error)
			case rec.Index == nil || *rec.Index < 0 || *rec.Index >= len(s.seen):
				s.bogus++
			default:
				i := *rec.Index
				s.seen[i]++
				s.recvAt[i], s.score[i], s.refits[i] = now, rec.Score, rec.Refits
				s.received.Add(1)
				select {
				case s.progress <- struct{}{}:
				default:
				}
			}
		}
		if errors.Is(err, io.EOF) {
			return
		}
		if err != nil {
			s.readErr = err
			return
		}
	}
}

// check compares every served record with the in-process reference and
// returns the number of failed rows: missing, repeated or different
// records. An error record or a record naming no row fails one more.
func (s *session) check(ref []hics.StreamResult) int {
	failed := s.bogus + len(s.errRecs)
	for i, r := range ref {
		if s.seen[i] != 1 || s.score[i] != r.Score || s.refits[i] != r.Refits {
			if failed < 5 {
				fmt.Fprintf(os.Stderr, "perfbench: row %d: served %d record(s), score %v refits %d; reference score %v refits %d\n",
					i, s.seen[i], s.score[i], s.refits[i], r.Score, r.Refits)
			}
			failed++
		}
	}
	for _, msg := range s.errRecs {
		fmt.Fprintf(os.Stderr, "perfbench: /stream error record: %s\n", msg)
	}
	return failed
}

// pacedRows returns the indices of the paced rows of plan.
func pacedRows(plan []segment) []int {
	var out []int
	for _, seg := range plan {
		for i := seg.lo; seg.paced && i < seg.hi; i++ {
			out = append(out, i)
		}
	}
	return out
}

// latenciesMs returns the latency of each paced row in ms, from its due
// time to the arrival of its record.
func (s *session) latenciesMs() []float64 {
	var out []float64
	for _, i := range pacedRows(s.plan) {
		out = append(out, float64(s.recvAt[i]-s.due[i])/1e6)
	}
	return out
}

// cpuPerRowUS returns the server CPU per paced row, in µs, of each CPU
// window.
func (s *session) cpuPerRowUS() []float64 {
	out := make([]float64, len(s.pacedCPU))
	for i, c := range s.pacedCPU {
		out[i] = float64(c) / 1e3 / cpuWindowRows
	}
	return out
}

// latenessMs returns how late the generator sent each paced row, in ms.
func (s *session) latenessMs() []float64 {
	var out []float64
	for _, i := range pacedRows(s.plan) {
		out = append(out, float64(s.sentAt[i]-s.due[i])/1e6)
	}
	return out
}
