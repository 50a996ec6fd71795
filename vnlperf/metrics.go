package main

import (
	"fmt"
	"time"
)

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (m *measured) batches() float64 { return float64(m.res.batches) }

// value is the named metric, gated or extra.
func (r *report) value(name string) float64 {
	if m, ok := r.Metrics[name]; ok {
		return m.Value
	}
	return r.extra[name].Value
}

// endToEnd computes what a user of the system sees. The metrics
// BENCHMARK.json gates (every workload reports them, and they are steady
// enough run to run) go to rep.Metrics, apart from setup_s, which the
// caller adds; the rest to rep.extra.
func (m *measured) endToEnd(sp spec) *report {
	r := m.res
	rep := &report{
		Correct:   len(m.checks) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
		extra:     map[string]metric{},
	}
	put := func(name string, v float64, unit string) { rep.Metrics[name] = metric{v, unit} }
	extra := func(name string, v float64, unit string) { rep.extra[name] = metric{v, unit} }

	put("point_p50_us", us(r.point.windowMedian()), "us")
	extra("point_p99_us", us(r.point.pct(99)), "us")
	extra("batch_p50_ms", ms(r.batch.windowMedian()), "ms")
	extra("batch_p90_ms", ms(r.batch.pct(90)), "ms")
	put("deltas_per_s", ratio(float64(r.deltas), r.writeTime.Seconds()), "1/s")
	put("stored_bytes_per_row", ratio(float64(m.heapBytes), float64(m.liveRows)), "B/row")
	put("wal_bytes_per_delta", ratio(float64(m.after.walBytes-m.before.walBytes), float64(r.deltas)), "B/delta")
	put("heap_mb", float64(m.heapInuse)/(1<<20), "MiB")

	if sp.scans > 0 {
		extra("scan_p50_ms", ms(r.scan.windowMedian()), "ms")
		extra("scan_p90_ms", ms(r.scan.pct(90)), "ms")
	}
	if sp.aggs > 0 {
		extra("agg_p50_ms", ms(r.agg.windowMedian()), "ms")
		extra("agg_p90_ms", ms(r.agg.pct(90)), "ms")
	}
	if sp.replica {
		extra("replica_visible_p50_ms", ms(r.visible.windowMedian()), "ms")
		extra("replica_visible_p90_ms", ms(r.visible.pct(90)), "ms")
	}
	extra("session_expired_pct", 100*ratio(float64(r.expired), float64(r.sessions)), "%")

	// Each named percentile needs ten samples past it to be estimated.
	type tail struct {
		name string
		s    *samples
		q    float64
	}
	tails := []tail{{"point p99", &r.point, 99}, {"batch p90", &r.batch, 90}}
	if sp.scans > 0 {
		tails = append(tails, tail{"scan p90", &r.scan, 90})
	}
	if sp.aggs > 0 {
		tails = append(tails, tail{"agg p90", &r.agg, 90})
	}
	if sp.replica {
		tails = append(tails, tail{"replica visible p90", &r.visible, 90})
	}
	var counts string
	for _, t := range tails {
		counts += fmt.Sprintf(" %s: %d samples, %d beyond;", t.name, t.s.n(), t.s.beyond(t.q))
		if t.s.beyond(t.q) < 10 {
			rep.notes = append(rep.notes, fmt.Sprintf("warning: %s has only %d samples beyond it; run longer", t.name, t.s.beyond(t.q)))
		}
	}
	rep.notes = append(rep.notes,
		fmt.Sprintf("%s:%s sessions %d, expired %d, batches %d, deltas %d", sp.name, counts, r.sessions, r.expired, r.batches, r.deltas),
		fmt.Sprintf("working set %.1f MiB = %.2f× the %d MiB pool", float64(m.heapBytes)/(1<<20),
			float64(m.heapBytes)/float64(pageBytes*poolPages), pageBytes*poolPages>>20))
	for _, e := range r.errs {
		rep.notes = append(rep.notes, "failed: "+e)
	}
	for _, c := range m.checks {
		rep.notes = append(rep.notes, "CHECK FAILED: "+c)
	}
	return rep
}

// perLayer computes the traced run's metrics: per-layer times from the
// spans (medians), counts from the layers' own counters, the layer ladder,
// and the tracing overhead against the untraced phase base.
func (m *measured) perLayer(sp spec, tr *tracer, base *measured) *report {
	e2e := m.endToEnd(sp)
	plain := base.endToEnd(sp)
	rep := &report{
		Correct:   e2e.Correct && plain.Correct,
		Attempted: e2e.Attempted + plain.Attempted,
		Failed:    e2e.Failed + plain.Failed,
		Metrics:   map[string]metric{},
		extra:     map[string]metric{},
		notes:     append(plain.notes, e2e.notes...),
	}
	put := func(name string, v float64, unit string) { rep.Metrics[name] = metric{v, unit} }
	extra := func(name string, v float64, unit string) { rep.extra[name] = metric{v, unit} }
	ss := summarize(tr)
	med := func(kind map[string][]float64, name string, unit time.Duration) float64 {
		return median(kind[name]) / float64(unit)
	}
	b, a := m.before, m.after
	batches := m.batches()

	// vnlclient/server: the wire span minus the backend span inside it.
	put("server.query_self_us", med(ss.self, "vnlclient.point", time.Microsecond), "us")
	put("server.batch_self_ms", med(ss.self, "vnlclient.batch", time.Millisecond), "ms")

	// core: backend spans and the stores' own counters.
	put("core.begin_us", med(ss.dur, "core.begin", time.Microsecond), "us")
	put("core.point_us", med(ss.dur, "core.point", time.Microsecond), "us")
	if sp.shards > 0 {
		// The router's parallel apply runs inside the prepare phase;
		// its self time excludes the epoch-log force.
		put("core.apply_ms", med(ss.self, "shard.prepare", time.Millisecond), "ms")
	} else {
		put("core.apply_ms", med(ss.self, "core.apply", time.Millisecond), "ms")
	}
	hits := float64(sumCounter(b.stores, a.stores, "core_plan_cache_hits_total"))
	misses := float64(sumCounter(b.stores, a.stores, "core_plan_cache_misses_total"))
	put("core.plan_cache_hit_ratio", ratio(hits, hits+misses), "ratio")
	folds := float64(sumCounter(b.stores, a.stores, "core_maint_net_effect_folds_total"))
	logical := float64(sumCounter(b.stores, a.stores, "core_maint_logical_inserts_total") +
		sumCounter(b.stores, a.stores, "core_maint_logical_updates_total") +
		sumCounter(b.stores, a.stores, "core_maint_logical_deletes_total"))
	put("core.net_effect_fold_ratio", ratio(folds, logical), "ratio")

	// storage: the buffer pools of every store in the stack.
	pool := a.pool.Sub(b.pool)
	put("storage.pool_hit_ratio", ratio(float64(pool.Hits), float64(pool.Hits+pool.Misses)), "ratio")
	put("storage.writebacks_per_batch", ratio(float64(pool.WriteBacks), batches), "count")
	put("storage.bytes_per_row", ratio(float64(m.heapBytes), float64(m.heapTuples)), "B/row")

	// wal: process-wide counters (every wal.Log in the stack).
	put("wal.records_per_delta", ratio(float64(a.def.Counters["wal_appends_total"]-b.def.Counters["wal_appends_total"]),
		float64(m.res.deltas)), "ratio")

	// vfs: every file the stack writes, counted at the wrapper.
	put("vfs.fsync_ms", med(ss.dur, "vfs.fsync", time.Millisecond), "ms")
	put("vfs.fsyncs_per_batch", ratio(float64(tr.fsyncs.Load()), batches), "count")
	put("vfs.write_bytes_per_batch", ratio(float64(tr.writeBytes.Load()), batches), "B")

	// loadgen: how late the generator issued requests on a free
	// connection, in the untraced phase whose latencies are reported.
	put("loadgen.late_p99_ms", ms(base.res.late.pct(99)), "ms")

	for _, r := range m.rungs {
		put(r.metric+"_ns_per_row", r.nsPerRow, "ns/row")
		put(r.metric+"_allocs_per_row", r.allocsPerRow, "allocs/row")
	}

	// Tracing overhead: traced minus untraced end-to-end numbers.
	over := func(name string) float64 { return e2e.value(name) - plain.value(name) }
	put("trace.overhead_point_p50_us", over("point_p50_us"), "us")
	put("trace.overhead_batch_p50_ms", over("batch_p50_ms"), "ms")

	// Layers only some workloads have.
	if sp.scans > 0 {
		extra("core.scan_ms", med(ss.dur, "core.scan", time.Millisecond), "ms")
		extra("trace.overhead_scan_p50_ms", over("scan_p50_ms"), "ms")
	}
	if sp.aggs > 0 {
		extra("core.agg_ms", med(ss.dur, "core.agg", time.Millisecond), "ms")
	}
	if sp.gcEvery > 0 {
		passes := float64(a.gcPasses - b.gcPasses)
		extra("core.gc_pass_ms", med(ss.dur, "core.gc", time.Millisecond), "ms")
		extra("core.gc_removed_per_pass", ratio(float64(a.gcRemoved-b.gcRemoved), passes), "count")
	}
	if sp.shards == 0 {
		extra("wal.commit_ms", med(ss.dur, "wal.commit", time.Millisecond), "ms")
		g := a.def.Histograms["wal_group_commit_size"]
		g0 := b.def.Histograms["wal_group_commit_size"]
		extra("wal.group_size_mean", ratio(float64(g.Sum-g0.Sum), float64(g.Count-g0.Count)), "count")
	}
	if sp.replica {
		extra("repl.poll_ms", med(ss.dur, "repl.poll", time.Millisecond), "ms")
		extra("repl.replay_ms", med(ss.self, "repl.ingest", time.Millisecond), "ms")
		extra("repl.fsync_ms", medLane(tr, "vfs.fsync", "repl", time.Millisecond), "ms")
	}
	if sp.shards > 0 {
		extra("shard.prepare_ms", med(ss.dur, "shard.prepare", time.Millisecond), "ms")
		extra("shard.commit_ms", med(ss.dur, "shard.commit", time.Millisecond), "ms")
		extra("shard.flip_ms", med(ss.dur, "shard.flip", time.Millisecond), "ms")
		extra("shard.routed_query_us", med(ss.dur, "core.point", time.Microsecond), "us")
		extra("shard.fanout_query_ms", med(ss.dur, "core.scan", time.Millisecond), "ms")
		retries := float64(a.router.Counters["shard_begin_retries"] - b.router.Counters["shard_begin_retries"])
		begun := float64(a.router.Counters["shard_sessions_begun"] - b.router.Counters["shard_sessions_begun"])
		extra("shard.begin_retries_per_session", ratio(retries, begun), "ratio")
	}
	return rep
}

// medLane is the median duration of the named spans on one lane.
func medLane(tr *tracer, name, lane string, unit time.Duration) float64 {
	var v []float64
	for _, s := range tr.snapshot() {
		if s.Name == name && s.Lane == lane {
			v = append(v, float64(s.End-s.Start))
		}
	}
	return median(v) / float64(unit)
}
