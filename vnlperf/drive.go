package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/pkg/vnlclient"
)

// phaseResult is what one timed phase measured.
type phaseResult struct {
	point, scan, agg samples
	batch, visible   samples
	// late is how long after it was due the generator issued a request
	// whose connection was free: the generator's own lag.
	late samples

	attempted, failed int
	sessions, expired int
	batches, deltas   int
	writeTime         time.Duration // first batch due to last batch done
	errs              []string

	// The phase is cut into windows; a median is reported as the median of
	// the windows' medians, so a disturbance confined to a few seconds of
	// the run moves it little.
	start time.Time
	width time.Duration
}

// windows is how many equal windows a timed phase is cut into.
const windows = 6

// window is the index of the window t falls in.
func (r *phaseResult) window(t time.Time) int {
	if r.width <= 0 {
		return 0
	}
	return min(int(t.Sub(r.start)/r.width), windows-1)
}

func (r *phaseResult) failf(format string, args ...any) {
	r.failed++
	if len(r.errs) < 10 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// sleepUntil waits for t; it returns at once when t has passed.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// runPhase drives the reader and writer concurrently for length, timing
// every request from when it was due. Reads are recorded in chk for the
// checks after the phase; batches are replayed into o as they are
// acknowledged.
func runPhase(st *stack, plan []sessionPlan, gen *batchGen, o *oracle, chk *checker, length time.Duration, timed bool) *phaseResult {
	start := time.Now()
	res := &phaseResult{start: start, width: length / windows}
	rd := &phaseResult{start: start, width: length / windows}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		runWriter(st, gen, o, res, start, length)
	}()
	runReader(st, plan, chk, rd, start, length)
	wg.Wait()
	if !timed {
		// Warm-up: keep only what the checks need.
		rd.errs = append(rd.errs, res.errs...)
		return &phaseResult{errs: rd.errs, failed: rd.failed + res.failed}
	}
	res.point, res.scan, res.agg = rd.point, rd.scan, rd.agg
	res.late.d = append(res.late.d, rd.late.d...)
	res.attempted += rd.attempted
	res.failed += rd.failed
	res.sessions, res.expired = rd.sessions, rd.expired
	res.errs = append(res.errs, rd.errs...)
	return res
}

// runReader plays the session schedule on the reader connection. Sessions
// arrive open-loop: each is due at its scheduled time whether or not the
// previous one has finished, and the generator's own lag (how late it
// issued a session whose connection was free) is recorded. Inside a
// session the user waits for each answer and issues the next request; a
// workload with think time pauses once, halfway through, so the session
// stays open across commits while its requests run back to back.
func runReader(st *stack, plan []sessionPlan, chk *checker, res *phaseResult, start time.Time, length time.Duration) {
	tr := st.tr
	free := start // when the connection last became free
	end := start.Add(length)
	for _, sp := range plan {
		due := start.Add(sp.at)
		if sp.at >= length || time.Now().After(end) {
			// A backlog past the phase's end is dropped, not drained, so a
			// slow system cannot stretch the run.
			break
		}
		sleepUntil(due)
		issue := time.Now()
		res.late.add(issue.Sub(maxTime(due, free)))

		res.attempted++
		sess, err := beginSession(st, tr, res)
		if err != nil {
			res.failf("begin: %v", err)
			free = time.Now()
			continue
		}
		for i, op := range sp.ops {
			if i == len(sp.ops)/2 {
				time.Sleep(st.sp.think)
			}
			// The user issues the next request after the previous answer
			// (and the pause), so it is due when it is issued.
			opDue := time.Now()
			res.attempted++
			rows, err := runOp(st, tr, &sess, op, res)
			done := time.Now()
			if err != nil {
				res.failf("%s: %v", opName(op.kind), err)
				if sess == nil {
					break
				}
				continue
			}
			lat := done.Sub(opDue)
			vn := int64(sess.VN())
			switch op.kind {
			case opPoint:
				res.point.addAt(res.window(opDue), lat)
				chk.points = append(chk.points, pointObs{vn: vn, k: op.k, rows: rows})
			case opScan:
				res.scan.addAt(res.window(opDue), lat)
				chk.scans = append(chk.scans, scanObs{vn: vn, lo: op.lo, hi: op.hi, rows: rows})
			case opAgg:
				res.agg.addAt(res.window(opDue), lat)
				chk.aggs = append(chk.aggs, aggObs{vn: vn, rows: rows})
			}
		}
		if sess != nil {
			i := tr.open(laneReader, "vnlclient.close")
			if err := sess.Close(); err != nil {
				res.failf("close: %v", err)
			}
			tr.close(laneReader, i)
		}
		free = time.Now()
	}
}

func beginSession(st *stack, tr *tracer, res *phaseResult) (*vnlclient.Session, error) {
	i := tr.open(laneReader, "vnlclient.begin")
	sess, err := st.reader.Begin()
	tr.close(laneReader, i)
	if err == nil {
		res.sessions++
	}
	return sess, err
}

func opName(k opKind) string {
	switch k {
	case opPoint:
		return "point"
	case opScan:
		return "scan"
	default:
		return "agg"
	}
}

// runOp issues one request in *sess. An expired session is the paper's
// availability cost, not a failure: it is counted, a fresh session is
// begun, and the request is retried there, so its latency includes the
// retry. *sess is replaced (or set to nil when no new session could be
// begun).
func runOp(st *stack, tr *tracer, sess **vnlclient.Session, op readOp, res *phaseResult) ([]catalog.Tuple, error) {
	text, params := pointSQL, vnlclient.Params{"k": catalog.NewInt(op.k)}
	switch op.kind {
	case opScan:
		text, params = scanSQL, vnlclient.Params{"lo": catalog.NewInt(op.lo), "hi": catalog.NewInt(op.hi)}
	case opAgg:
		text, params = aggSQL, nil
	}
	for attempt := 0; ; attempt++ {
		i := tr.open(laneReader, "vnlclient."+opName(op.kind))
		rows, err := (*sess).Query(text, params)
		tr.close(laneReader, i)
		if err == nil {
			return rows.Tuples, nil
		}
		code, ok := vnlclient.ErrorCode(err)
		if !ok || code != vnlclient.CodeSessionExpired || attempt >= 3 {
			if !ok {
				// The connection is gone with the session on it.
				*sess = nil
			}
			return nil, err
		}
		res.expired++
		_ = (*sess).Close()
		if *sess, err = beginSession(st, tr, res); err != nil {
			*sess = nil
			return nil, err
		}
	}
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// runWriter submits the batch stream on the writer connection: paced (a
// batch due every batchEvery, open loop) or closed loop (the next batch
// after the previous one is acknowledged — and, with a replica, served —
// plus batchEvery of think time).
func runWriter(st *stack, gen *batchGen, o *oracle, res *phaseResult, start time.Time, length time.Duration) {
	sp := st.sp
	tr := st.tr
	end := start.Add(length)
	var last time.Time
	for i := 0; ; i++ {
		var due time.Time
		if sp.paced {
			due = start.Add(time.Duration(i) * sp.batchEvery)
			if !due.Before(end) {
				break
			}
			sleepUntil(due)
			res.late.add(time.Since(maxTime(due, last)))
		} else {
			due = time.Now()
			if !due.Before(end) {
				break
			}
		}
		deltas := gen.batch()
		res.attempted++
		j := tr.open(laneWriter, "vnlclient.batch")
		ack, err := st.writer.ApplyBatch(deltas)
		tr.close(laneWriter, j)
		if err != nil {
			// The oracle cannot know whether a failed batch committed, so
			// the run stops writing rather than guess.
			res.failf("batch: %v", err)
			return
		}
		done := time.Now()
		res.batch.addAt(res.window(due), done.Sub(due))
		if miss := o.apply(int64(ack.VN), deltas); int(ack.Missing) != miss {
			res.failf("batch at VN %d: server skipped %d deltas, oracle %d", ack.VN, ack.Missing, miss)
		}
		res.batches++
		res.deltas += len(deltas)
		last = done
		if sp.replica {
			if err := st.awaitReplica(ack.VN, 30*time.Second); err != nil {
				res.failf("%v", err)
				return
			}
			last = time.Now()
			res.visible.addAt(res.window(due), last.Sub(due))
		}
		st.gc.due()
		if !sp.paced && sp.batchEvery > 0 {
			time.Sleep(sp.batchEvery)
		}
	}
	res.writeTime = last.Sub(start)
}
