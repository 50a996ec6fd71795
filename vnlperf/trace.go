package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/vfs"
)

// Lanes are the sequential request streams of a run. Each lane has at most
// one request in flight, so a span opened on a lane while another is open
// there is that span's child: the containing wire span is the parent of
// the backend span, the backend span the parent of the journal span, and
// so on. Spans of one request share the id of the lane's root span.
const (
	laneReader = iota // the reader connection: sessions and queries
	laneWriter        // the writer connection: delta batches
	laneGC            // the periodic garbage collector
	laneRepl          // the replica's tail loop: polls and ingests
	numLanes
)

var laneNames = [numLanes]string{"reader", "writer", "gc", "repl"}

// span is one timed call into a layer. Times are nanoseconds since the
// tracer started.
type span struct {
	ID     uint64 `json:"id"`
	Parent int    `json:"parent"` // index of the parent span, -1 for a root
	Name   string `json:"name"`
	Lane   string `json:"lane"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer, or one
// not active, records nothing, so the untraced run pays one nil check per
// seam.
type tracer struct {
	t0     time.Time
	active atomic.Bool

	mu     sync.Mutex
	spans  []span
	stack  [numLanes][]int
	nextID uint64

	// Counts made at the vfs seam while active.
	fsyncs     atomic.Int64
	writeBytes atomic.Int64
	// walLane is the lane whose LogCommit is in flight on the single-store
	// journal, so the fsync it causes is filed under that request.
	walLane atomic.Int32

	// The router's publish phase in flight, timed from its hooks.
	phaseMu   sync.Mutex
	phaseIdx  int
	phaseName string
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now(), phaseIdx: -1}
	t.walLane.Store(laneWriter)
	return t
}

func (t *tracer) on() bool { return t != nil && t.active.Load() }

func (t *tracer) setActive(on bool) {
	if t != nil {
		t.active.Store(on)
	}
}

// open starts a span on lane and pushes it, so later spans on the lane nest
// under it until close. It returns -1 when nothing is recorded.
func (t *tracer) open(lane int, name string) int { return t.start(lane, name, true) }

// leaf starts a span that never parents another: concurrent siblings (the
// per-shard commit fsyncs) must not nest under each other.
func (t *tracer) leaf(lane int, name string) int { return t.start(lane, name, false) }

func (t *tracer) start(lane int, name string, push bool) int {
	if !t.on() {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	var id uint64
	if st := t.stack[lane]; len(st) > 0 {
		parent = st[len(st)-1]
		id = t.spans[parent].ID
	} else {
		t.nextID++
		id = t.nextID
	}
	idx := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Lane: laneNames[lane], Start: now, End: -1})
	if push {
		t.stack[lane] = append(t.stack[lane], idx)
	}
	return idx
}

// close ends span idx and pops it from its lane.
func (t *tracer) close(lane, idx int) {
	if t == nil || idx < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[idx].End = now
	st := t.stack[lane]
	for i := len(st) - 1; i >= 0; i-- {
		if st[i] == idx {
			t.stack[lane] = append(st[:i], st[i+1:]...)
			break
		}
	}
}

// merge adds spans another process recorded against the same t0 (the
// replica's), with their parent indices and ids moved past this tracer's,
// and that process's vfs counts.
func (t *tracer) merge(spans []span, fsyncs, writeBytes int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	base, idBase := len(t.spans), t.nextID
	for _, s := range spans {
		if s.Parent >= 0 {
			s.Parent += base
		}
		s.ID += idBase
		t.nextID = max(t.nextID, s.ID)
		t.spans = append(t.spans, s)
	}
	t.fsyncs.Add(fsyncs)
	t.writeBytes.Add(writeBytes)
}

// laneOpen reports whether lane has a span open.
func (t *tracer) laneOpen(lane int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.stack[lane]) > 0
}

// snapshot returns the finished spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// spanStats summarises spans by name: durations and self times (duration
// minus the part of the interval its children cover).
type spanStats struct {
	dur  map[string][]float64 // ns
	self map[string][]float64 // ns
}

// all returns every span, open ones too, so parent indices stay valid.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func summarize(t *tracer) spanStats {
	all := t.all()
	children := make(map[int][]int)
	for i, s := range all {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	st := spanStats{dur: map[string][]float64{}, self: map[string][]float64{}}
	for i, s := range all {
		if s.End < 0 {
			continue
		}
		d := float64(s.End - s.Start)
		st.dur[s.Name] = append(st.dur[s.Name], d)
		st.self[s.Name] = append(st.self[s.Name], d-float64(covered(all, children[i], s)))
	}
	return st
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(all []span, kids []int, p span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		c := all[k]
		if c.End < 0 {
			continue
		}
		a, b := max(c.Start, p.Start), min(c.End, p.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = -1
	for _, v := range ivs {
		if v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// writeSpans writes every span as one JSON object per line.
func writeSpans(t *tracer, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---- seams: wrappers around each layer's public interface ----

// traceBackend wraps the server.Backend the wire server fronts. Sessions
// and queries come only from the reader connection and batches only from
// the writer connection, so the lane names the parent wire span.
type traceBackend struct {
	server.Backend
	tr *tracer
}

// sqlClasses names the backend span of each of the workload's statements.
var sqlClasses = map[string]string{pointSQL: "core.point", scanSQL: "core.scan", aggSQL: "core.agg"}

func (b traceBackend) BeginSession() (server.BackendSession, error) {
	i := b.tr.open(laneReader, "core.begin")
	s, err := b.Backend.BeginSession()
	b.tr.close(laneReader, i)
	if err != nil {
		return nil, err
	}
	return traceSession{BackendSession: s, b: b}, nil
}

func (b traceBackend) ApplyBatch(deltas []core.Delta) (core.VN, core.BatchStats, error) {
	i := b.tr.open(laneWriter, "core.apply")
	vn, stats, err := b.Backend.ApplyBatch(deltas)
	b.tr.closePhase()
	b.tr.close(laneWriter, i)
	return vn, stats, err
}

type traceSession struct {
	server.BackendSession
	b traceBackend
}

func (s traceSession) Query(text string, params exec.Params) (*exec.Rows, error) {
	name := sqlClasses[text]
	if name == "" {
		name = "core.query"
	}
	i := s.b.tr.open(laneReader, name)
	rows, err := s.BackendSession.Query(text, params)
	s.b.tr.close(laneReader, i)
	return rows, err
}

// traceJournal wraps the single-store journal and times LogCommit. GC
// commits its pseudo-transaction as VN 0; every other commit is the
// writer's batch.
type traceJournal struct {
	core.Journal
	tr *tracer
}

func (j traceJournal) LogCommit(vn core.VN) error {
	lane := laneWriter
	if vn == 0 {
		lane = laneGC
	}
	j.tr.walLane.Store(int32(lane))
	i := j.tr.open(lane, "wal.commit")
	err := j.Journal.LogCommit(vn)
	j.tr.close(lane, i)
	j.tr.walLane.Store(laneWriter)
	return err
}

// traceFS wraps the filesystem handed to the WAL, the replication feed,
// the replica and the shard directory. It counts written bytes and times
// every fsync, filing it under the lane whose request caused it.
type traceFS struct {
	vfs.FS
	tr *tracer
}

func (fs traceFS) wrap(path string, f vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	return &traceFile{File: f, tr: fs.tr, path: filepath.Base(path)}, nil
}

func (fs traceFS) Create(path string) (vfs.File, error) {
	f, err := fs.FS.Create(path)
	return fs.wrap(path, f, err)
}

func (fs traceFS) OpenAppend(path string) (vfs.File, error) {
	f, err := fs.FS.OpenAppend(path)
	return fs.wrap(path, f, err)
}

type traceFile struct {
	vfs.File
	tr   *tracer
	path string
}

func (f *traceFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	if f.tr.on() {
		f.tr.writeBytes.Add(int64(n))
	}
	return n, err
}

func (f *traceFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(p, off)
	if f.tr.on() {
		f.tr.writeBytes.Add(int64(n))
	}
	return n, err
}

// lane attributes a file's fsync to a request stream: the replica's files
// to its tail loop, the single-store WAL to whichever lane is committing,
// and the shard WALs and epoch log to the writer unless only GC is running.
func (f *traceFile) lane() int {
	switch {
	case strings.HasPrefix(f.path, "replica"):
		return laneRepl
	case strings.HasPrefix(f.path, "primary"):
		return int(f.tr.walLane.Load())
	case f.tr.laneOpen(laneGC) && !f.tr.laneOpen(laneWriter):
		return laneGC
	default:
		return laneWriter
	}
}

func (f *traceFile) Sync() error {
	if !f.tr.on() {
		return f.File.Sync()
	}
	lane := f.lane()
	i := f.tr.leaf(lane, "vfs.fsync")
	err := f.File.Sync()
	f.tr.close(lane, i)
	f.tr.fsyncs.Add(1)
	return err
}

// traceSource wraps the replica's segment source. A poll is one span; the
// time from a poll that brought bytes to the next poll is the ingest
// (append, replay, fsync, publish), which the tail loop runs in between.
type traceSource struct {
	repl.SegmentSource
	tr     *tracer
	ingest int
}

func (s *traceSource) Poll(epoch, fromLSN, pinned uint64, maxBytes uint32, wait time.Duration) (server.ReplSegment, error) {
	s.tr.close(laneRepl, s.ingest)
	s.ingest = -1
	i := s.tr.open(laneRepl, "repl.poll")
	seg, err := s.SegmentSource.Poll(epoch, fromLSN, pinned, maxBytes, wait)
	s.tr.close(laneRepl, i)
	if err == nil && len(seg.Payload) > 0 {
		s.ingest = s.tr.open(laneRepl, "repl.ingest")
	}
	return seg, err
}

// shardHooks times the router's two-phase publish from its hook
// timestamps: prepare runs from the prepare record to the first shard
// commit, commit until the flip, and flip until ApplyBatch returns.
func (t *tracer) shardHooks() shard.Hooks {
	return shard.Hooks{
		BeforePrepare:     func(core.VN) { t.phase("", "shard.prepare") },
		BeforeShardCommit: func(int, core.VN) { t.phase("shard.prepare", "shard.commit") },
		BeforeFlip:        func(core.VN) { t.phase("", "shard.flip") },
	}
}

// phase moves the publish to phase to, closing the open one; with from
// set, only when the open phase is from (the per-shard commit hooks run
// concurrently and only the first moves the phase on).
func (t *tracer) phase(from, to string) {
	t.phaseMu.Lock()
	defer t.phaseMu.Unlock()
	if from != "" && t.phaseName != from {
		return
	}
	t.close(laneWriter, t.phaseIdx)
	t.phaseIdx, t.phaseName = t.open(laneWriter, to), to
}

// closePhase ends the publish's last phase when ApplyBatch returns.
func (t *tracer) closePhase() {
	if t == nil {
		return
	}
	t.phaseMu.Lock()
	defer t.phaseMu.Unlock()
	t.close(laneWriter, t.phaseIdx)
	t.phaseIdx, t.phaseName = -1, ""
}
