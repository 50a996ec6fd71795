package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/obs"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/vfs"
	"repro/internal/wal"
	"repro/pkg/vnlclient"
)

// stack is the system under test: the serving stack wired the way
// cmd/vnlserver's run() and runShards() wire it, on loopback TCP, with
// its durable files in a fresh directory, plus the two client connections
// that drive it.
type stack struct {
	sp  spec
	dir string
	tr  *tracer

	// Single-store primary (analyst, etl).
	store   *core.Store
	journal *wal.Log
	feed    *repl.Feed
	primary *server.Server

	// WAL-shipping replica (etl), in a process of its own.
	rep *replicaProc

	// Hash-sharded router (sharded) and its shard_* registry.
	router    *shard.Router
	routerReg *obs.Registry

	// readBackend is the backend the primary's server fronts, without the
	// tracing wrapper; readStore is the store behind it (shard 0 for the
	// router). The layer ladder descends through both.
	readBackend server.Backend
	readStore   *core.Store

	reader, writer *vnlclient.Client

	gc *gcRunner
}

// serverConfig mirrors cmd/vnlserver's defaults; each server gets a
// private registry, as it would in its own process.
func serverConfig() server.Config {
	return server.Config{
		Addr:           "127.0.0.1:0",
		MaxConns:       256,
		IdleTimeout:    5 * time.Minute,
		RequestTimeout: 30 * time.Second,
		WriteTimeout:   30 * time.Second,
		DrainTimeout:   10 * time.Second,
		Metrics:        obs.NewRegistry(),
	}
}

// front wraps a backend in the tracing seam when the run is traced.
func (st *stack) front(b server.Backend) server.Backend {
	if st.tr == nil {
		return b
	}
	return traceBackend{Backend: b, tr: st.tr}
}

func (st *stack) fs() vfs.FS { return stackFS(st.tr) }

// stackFS is the disk, wrapped in the tracing seam when tr is set.
func stackFS(tr *tracer) vfs.FS {
	if tr == nil {
		return vfs.Disk()
	}
	return traceFS{FS: vfs.Disk(), tr: tr}
}

// build opens the stack in dir. The caller loads it and must close it.
func build(sp spec, dir string, tr *tracer) (_ *stack, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st := &stack{sp: sp, dir: dir, tr: tr}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	if sp.shards > 0 {
		err = st.buildShards()
	} else {
		err = st.buildSingle()
	}
	if err != nil {
		return nil, err
	}
	// One reader and one writer connection: each client pools at most one
	// idle connection and is used by one goroutine at a time.
	if st.reader, err = vnlclient.Dial(st.primary.Addr().String(), vnlclient.Options{ClientName: "vnlperf-reader", MaxIdle: 1}); err != nil {
		return nil, fmt.Errorf("dialing reader: %w", err)
	}
	if st.writer, err = vnlclient.Dial(st.primary.Addr().String(), vnlclient.Options{ClientName: "vnlperf-writer", MaxIdle: 1}); err != nil {
		return nil, fmt.Errorf("dialing writer: %w", err)
	}
	st.gc = newGC(st, sp.gcEvery)
	return st, nil
}

// buildSingle is vnlserver run() with -wal -group-commit (and, for etl, a
// follower started as runReplica starts it, in its own process).
func (st *stack) buildSingle() error {
	sp := st.sp
	store, err := core.Open(db.Open(db.Options{}), core.Options{N: sp.n, Metrics: obs.NewRegistry()})
	if err != nil {
		return err
	}
	st.store = store
	walPath := filepath.Join(st.dir, "primary.wal")
	if st.journal, err = wal.CreateFS(st.fs(), walPath, wal.PolicyRedoOnly); err != nil {
		return err
	}
	st.journal.SetGroupCommit(wal.GroupCommit{Enabled: true})
	if st.tr != nil {
		store.SetJournal(traceJournal{Journal: st.journal, tr: st.tr})
	} else {
		store.SetJournal(st.journal)
	}
	st.feed = repl.NewFeed(st.fs(), walPath, st.journal, uint64(time.Now().UnixNano()))
	feed := st.feed
	store.SetGCFloorClamp(func() (core.VN, bool) {
		vn, ok := feed.SlowestPinned()
		return core.VN(vn), ok
	})
	if _, err := store.CreateTableSQL(createSQL(sp.noteLen)); err != nil {
		return err
	}
	cfg := serverConfig()
	cfg.Backend = st.front(server.NewCoreBackend(store))
	cfg.ReplFeed = feed
	st.primary = server.New(cfg)
	if err := st.primary.Start(); err != nil {
		return err
	}
	st.readBackend, st.readStore = server.NewCoreBackend(store), store
	if !sp.replica {
		return nil
	}
	st.rep, err = startReplica(st.primary.Addr().String(), st.dir, sp.n, st.tr)
	return err
}

// buildShards is vnlserver runShards() with -shards N -wal dir.
func (st *stack) buildShards() error {
	sp := st.sp
	st.routerReg = obs.NewRegistry()
	r, err := shard.Open(shard.Options{Shards: sp.shards, N: sp.n, FS: st.fs(), Dir: st.dir, Metrics: st.routerReg})
	if err != nil {
		return err
	}
	st.router = r
	if st.tr != nil {
		r.SetHooks(st.tr.shardHooks())
	}
	if err := r.CreateTableSQL(createSQL(sp.noteLen)); err != nil {
		return err
	}
	cfg := serverConfig()
	cfg.Backend = st.front(server.NewShardBackend(r))
	st.primary = server.New(cfg)
	if err := st.primary.Start(); err != nil {
		return err
	}
	st.readBackend, st.readStore = server.NewShardBackend(r), r.Shard(0)
	return nil
}

// load inserts the initial rows through the writer connection and, with a
// replica, waits until it serves them.
func (st *stack) load(gen *batchGen, o *oracle) error {
	for _, b := range gen.initial(4000) {
		res, err := st.writer.ApplyBatch(b)
		if err != nil {
			return fmt.Errorf("loading: %w", err)
		}
		if miss := o.apply(int64(res.VN), b); int(res.Missing) != miss {
			return fmt.Errorf("loading: server skipped %d deltas, oracle %d", res.Missing, miss)
		}
	}
	return st.awaitReplica(uint64(o.lastVN), 30*time.Second)
}

// awaitReplica waits until the replica has replayed and published vn.
func (st *stack) awaitReplica(vn uint64, limit time.Duration) error {
	if st.rep == nil {
		return nil
	}
	return st.rep.await(vn, limit)
}

// setTrace starts or stops recording spans, here and in the replica.
func (st *stack) setTrace(on bool) {
	if st.tr == nil {
		return
	}
	st.tr.setActive(on)
	if st.rep != nil {
		st.rep.setTrace(on)
	}
}

// stores are the maintained stores: the primary, or every shard.
func (st *stack) stores() []*core.Store {
	if st.router == nil {
		return []*core.Store{st.store}
	}
	out := make([]*core.Store, st.router.Shards())
	for i := range out {
		out[i] = st.router.Shard(i)
	}
	return out
}

// walBytes is the size of the primary's durable log files: the WAL, or the
// shard WALs plus the epoch log.
func (st *stack) walBytes() int64 {
	var total int64
	names := []string{"primary.wal"}
	if st.router != nil {
		names = []string{"epoch.log"}
		for i := 0; i < st.router.Shards(); i++ {
			names = append(names, fmt.Sprintf("shard-%d.wal", i))
		}
	}
	for _, n := range names {
		if fi, err := os.Stat(filepath.Join(st.dir, n)); err == nil {
			total += fi.Size()
		}
	}
	return total
}

// heapStats sums the maintained stores' heaps: allocated bytes and
// physical tuples (live and logically deleted).
func (st *stack) heapStats() (bytes, tuples int64) {
	for _, s := range st.stores() {
		for _, vt := range s.Tables() {
			h := vt.Storage().Heap()
			bytes += int64(h.Bytes())
			tuples += int64(h.Len())
		}
	}
	return bytes, tuples
}

// close tears the stack down and removes its directory.
func (st *stack) close() error {
	var errs []error
	for _, c := range []*vnlclient.Client{st.reader, st.writer} {
		if c != nil {
			_ = c.Close()
		}
	}
	// The replica goes first: stopping it closes its tail connection, so
	// its loop ends at once. The primary's Close then waits out the hold of
	// the long-poll that connection left behind (two seconds).
	if st.rep != nil {
		errs = append(errs, st.rep.stop(st.tr))
	}
	if st.primary != nil {
		errs = append(errs, st.primary.Close())
	}
	if st.feed != nil {
		errs = append(errs, st.feed.Close())
	}
	if st.journal != nil {
		errs = append(errs, st.journal.Close())
	}
	if st.router != nil {
		errs = append(errs, st.router.Close())
	}
	errs = append(errs, os.RemoveAll(st.dir))
	return errors.Join(errs...)
}

// gcRunner runs Store.GC (or Router.GC) on a fixed period, as vnlserver's
// -gc-interval does, but from the writer, between two batches, and counts
// passes, reclaimed tuples and journal errors. (A pass on its own ticker,
// concurrent with maintenance, can interleave its journal records with a
// batch's, which the replica refuses; see CATALOGUE.md, "Known defects".)
type gcRunner struct {
	st    *stack
	every time.Duration
	last  time.Time // when the last pass ran

	passes  int
	removed int
	errs    []error
}

func newGC(st *stack, every time.Duration) *gcRunner {
	if every <= 0 {
		return nil
	}
	return &gcRunner{st: st, every: every, last: time.Now()}
}

// due runs a pass once the period has elapsed since the last one.
func (g *gcRunner) due() {
	if g == nil || time.Since(g.last) < g.every {
		return
	}
	g.pass()
	g.last = time.Now()
}

func (g *gcRunner) pass() {
	st := g.st
	i := st.tr.open(laneGC, "core.gc")
	var stats []core.GCStats
	if st.router != nil {
		stats = st.router.GC()
	} else {
		stats = []core.GCStats{st.store.GC()}
	}
	st.tr.close(laneGC, i)
	g.passes++
	for _, s := range stats {
		g.removed += s.Removed
		if s.Err != nil {
			g.errs = append(g.errs, s.Err)
		}
	}
}

func (g *gcRunner) counts() (passes, removed int) {
	if g == nil {
		return 0, 0
	}
	return g.passes, g.removed
}

// err joins the GC journal errors, if any.
func (g *gcRunner) err() error {
	if g == nil {
		return nil
	}
	return errors.Join(g.errs...)
}

// baseSchema is the table's declared schema, for routing keys to shards.
func baseSchema(sp spec) (*catalog.Schema, error) {
	return core.ParseCreateTable(createSQL(sp.noteLen))
}
