package repro

import (
	"fmt"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/exec"
	"repro/internal/obs"
)

// BenchmarkQueryLatency measures single-thread query latency through the
// three ways a query meets the store's plan cache:
//
//	adhoc_cached  Session.Query of one text — the steady state skips parse,
//	              rewrite, and compilation, and runs the vectorized batch
//	              executor
//	adhoc_miss    Session.Query of a distinct but equivalent text each call
//	              (a never-matching extra conjunct, same 182 rows): every
//	              call parses, rewrites, and compiles — the cold cost
//	prepared      Store.Prepare + Session.QueryPrepared, the statement
//	              handle that pins its plan-cache entry
//
// scripts/bench_snapshot.sh snapshots this benchmark into
// BENCH_query_latency.json.
func BenchmarkQueryLatency(b *testing.B) {
	const query = `SELECT k, v FROM kv WHERE v >= 100 AND k < 192`

	open := func(b *testing.B, opts core.Options) *core.Store {
		b.Helper()
		opts.Metrics = obs.NewRegistry()
		s, err := core.Open(db.Open(db.Options{}), opts)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.CreateTableSQL(`CREATE TABLE kv (k INT(8), v INT(8) UPDATABLE, UNIQUE KEY(k))`); err != nil {
			b.Fatal(err)
		}
		m, err := s.BeginMaintenance()
		if err != nil {
			b.Fatal(err)
		}
		for k := int64(0); k < 256; k++ {
			if err := m.Insert("kv", catalog.Tuple{catalog.NewInt(k), catalog.NewInt(k * 10)}); err != nil {
				b.Fatal(err)
			}
		}
		if err := m.Commit(); err != nil {
			b.Fatal(err)
		}
		return s
	}

	runQueries := func(b *testing.B, sess *core.Session, each func() (*exec.Rows, error)) {
		b.Helper()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rows, err := each()
			if err != nil {
				b.Fatal(err)
			}
			if rows.Len() != 182 {
				b.Fatalf("rows = %d, want 182", rows.Len())
			}
		}
	}

	b.Run("adhoc_cached", func(b *testing.B) {
		s := open(b, core.Options{N: 2})
		sess := s.BeginSession()
		defer sess.Close()
		runQueries(b, sess, func() (*exec.Rows, error) { return sess.Query(query, nil) })
	})

	b.Run("adhoc_miss", func(b *testing.B) {
		s := open(b, core.Options{N: 2})
		sess := s.BeginSession()
		defer sess.Close()
		i := 0
		runQueries(b, sess, func() (*exec.Rows, error) {
			i++
			// Keys run 0..255, so k <> 256+i excludes nothing.
			return sess.Query(fmt.Sprintf("%s AND k <> %d", query, 256+i), nil)
		})
	})

	b.Run("prepared", func(b *testing.B) {
		s := open(b, core.Options{N: 2})
		p, err := s.Prepare(query)
		if err != nil {
			b.Fatal(err)
		}
		sess := s.BeginSession()
		defer sess.Close()
		runQueries(b, sess, func() (*exec.Rows, error) { return sess.QueryPrepared(p, nil) })
	})
}
