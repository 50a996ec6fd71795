package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/catalog"
	"repro/internal/storage"
	"repro/pkg/vnlclient"
)

// rung is one step of the layer ladder: the same range predicate run
// through one more layer than the rung below it. The gap between adjacent
// rungs is that layer's cost per row examined.
type rung struct {
	metric       string // metric prefix, e.g. "core.query"
	nsPerRow     float64
	allocsPerRow float64
	rows         int // rows the rung returned
}

// ladder runs the range predicate k in [rows/4, 3·rows/4) through
// db.Table.Scan → core.Session.Scan (Table 1) → core.Session.Query
// (cached plan) → server.Backend session Query → vnlclient Session.Query.
// The first three rungs read the reader's store (shard 0 of a router); the
// last two read through the reader's backend (every shard). Each rung is
// normalised by the physical tuples it examines. No writes run meanwhile,
// so every versioned rung must return the same rows.
func ladder(st *stack) ([]rung, error) {
	lo, hi := int64(st.sp.rows/4), int64(3*st.sp.rows/4)
	params := vnlclient.Params{"lo": catalog.NewInt(lo), "hi": catalog.NewInt(hi)}
	inRange := func(k int64) bool { return k >= lo && k < hi }

	vt, err := st.readStore.Table(tableName)
	if err != nil {
		return nil, err
	}
	tbl := vt.Storage()
	kExt := vt.Extended().ColIndex("k")
	local := float64(tbl.Len())
	all := local
	if st.router != nil {
		all = 0
		for i := 0; i < st.router.Shards(); i++ {
			t, err := st.router.Shard(i).Table(tableName)
			if err != nil {
				return nil, err
			}
			all += float64(t.Len())
		}
	}

	cs := st.readStore.BeginSession()
	defer cs.Close()
	be, err := st.readBackend.BeginSession()
	if err != nil {
		return nil, err
	}
	defer be.Close()
	cl, err := st.reader.Begin()
	if err != nil {
		return nil, err
	}
	defer func() { _ = cl.Close() }()

	steps := []struct {
		metric string
		rows   float64
		run    func() (int, error)
	}{
		{"storage.scan", local, func() (int, error) {
			n := 0
			tbl.Scan(func(_ storage.RID, t catalog.Tuple) bool {
				if inRange(t[kExt].Int()) {
					n++
				}
				return true
			})
			return n, nil
		}},
		{"core.versioned_scan", local, func() (int, error) {
			n := 0
			err := cs.Scan(tableName, func(t catalog.Tuple) bool {
				if inRange(t[0].Int()) {
					n++
				}
				return true
			})
			return n, err
		}},
		{"core.query", local, func() (int, error) {
			r, err := cs.Query(scanSQL, params)
			if err != nil {
				return 0, err
			}
			return r.Len(), nil
		}},
		{"server.query", all, func() (int, error) {
			r, err := be.Query(scanSQL, params)
			if err != nil {
				return 0, err
			}
			return r.Len(), nil
		}},
		{"vnlclient.query", all, func() (int, error) {
			r, err := cl.Query(scanSQL, params)
			if err != nil {
				return 0, err
			}
			return len(r.Tuples), nil
		}},
	}
	var out []rung
	for _, s := range steps {
		if _, err := s.run(); err != nil { // warm the pool and the plan cache
			return nil, fmt.Errorf("%s: %w", s.metric, err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		reps, n := 0, 0
		for reps < 3 || (time.Since(t0) < 300*time.Millisecond && reps < 200) {
			if n, err = s.run(); err != nil {
				return nil, fmt.Errorf("%s: %w", s.metric, err)
			}
			reps++
		}
		el := time.Since(t0)
		runtime.ReadMemStats(&after)
		rows := s.rows * float64(reps)
		out = append(out, rung{
			metric:       s.metric,
			nsPerRow:     float64(el.Nanoseconds()) / rows,
			allocsPerRow: float64(after.Mallocs-before.Mallocs) / rows,
			rows:         n,
		})
	}
	// Every versioned rung over the same stores must agree.
	if out[1].rows != out[2].rows || out[3].rows != out[4].rows || (st.router == nil && out[2].rows != out[3].rows) {
		return out, fmt.Errorf("ladder rungs disagree: %d/%d/%d/%d versioned rows",
			out[1].rows, out[2].rows, out[3].rows, out[4].rows)
	}
	return out, nil
}
