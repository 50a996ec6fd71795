package core

import (
	"fmt"
	"testing"

	"repro/internal/catalog"
	"repro/internal/db"
	"repro/internal/vfs"
)

// faultStore opens a store over a FaultFS with a one-page buffer pool —
// touching a second page must evict, and write back, the first — with kv
// keys 0..rows-1 committed at VN 2 and every page clean afterwards.
func faultStore(t *testing.T, rows int64, workers int) (*Store, *db.Database, *vfs.FaultFS, *vfs.Script) {
	t.Helper()
	script := vfs.NewScript()
	fs := vfs.NewFaultFS(script)
	d := db.Open(db.Options{DataFS: fs, DataDir: "data", PoolPages: 1, PageSize: 256})
	s, err := Open(d, Options{ApplyWorkers: workers})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateTable(kvSchema()); err != nil {
		t.Fatal(err)
	}
	m := mustMaint(t, s)
	for k := int64(0); k < rows; k++ {
		if err := m.Insert("kv", kvTuple(k, k)); err != nil {
			t.Fatal(err)
		}
	}
	commit(t, m)
	if err := d.Pool().Flush(); err != nil {
		t.Fatal(err)
	}
	return s, d, fs, script
}

// pageOf returns the heap page holding key k of kv.
func pageOf(t *testing.T, s *Store, k int64) int {
	t.Helper()
	vt, err := s.Table("kv")
	if err != nil {
		t.Fatal(err)
	}
	rid, ok := vt.tbl.SearchKey(catalog.Tuple{catalog.NewInt(k)})
	if !ok {
		t.Fatalf("key %d not found", k)
	}
	return rid.Page
}

// A write-back fault raised by the eviction inside a batch update's Get
// must fail the batch. Treating it as "key missing" dropped the update:
// it was never journaled, yet the commit was acknowledged.
func TestApplyBatchGetFaultFailsBatch(t *testing.T) {
	const rows = 40
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			s, _, fs, script := faultStore(t, rows, workers)
			last := pageOf(t, s, rows-1)
			if pageOf(t, s, 0) == last {
				t.Fatal("fixture too small: keys 0 and rows-1 share a page")
			}
			// Two updates of keys on the last page, routed to different
			// partitions when there are two workers.
			base := kvSchema()
			var deltas []Delta
			seen := map[int]bool{}
			for k := int64(rows - 1); k >= 0 && len(deltas) < workers && pageOf(t, s, k) == last; k-- {
				d := Delta{Op: DeltaUpdate, Table: "kv", Key: catalog.Tuple{catalog.NewInt(k)}, Row: kvTuple(k, 77)}
				p, err := PartitionDelta(base, d, len(deltas), workers)
				if err != nil {
					t.Fatal(err)
				}
				if !seen[p] {
					seen[p] = true
					deltas = append(deltas, d)
				}
			}
			if len(deltas) != workers {
				t.Fatalf("found %d deltas for %d partitions on the last page", len(deltas), workers)
			}

			m := mustMaint(t, s)
			// Dirty key 0's page: it is now the pool's one resident page,
			// so the batch's first Get must evict and write it back.
			if _, err := m.UpdateKey("kv", catalog.Tuple{catalog.NewInt(0)},
				func(catalog.Tuple) catalog.Tuple { return kvTuple(0, 5) }); err != nil {
				t.Fatal(err)
			}
			script.AddFault(fs.PersistOps()+1, vfs.FaultErr, 0)
			stats, err := m.ApplyBatch(deltas)
			if err == nil {
				t.Fatalf("batch succeeded despite the write-back fault (stats %+v)", stats)
			}
			if stats.Missing != 0 {
				t.Fatalf("faulted update counted as missing: %+v", stats)
			}
			if err := m.Rollback(); err != nil {
				t.Fatal(err)
			}

			// Healthy hardware again: the same batch applies in full.
			fs.SetScript(nil)
			m = mustMaint(t, s)
			stats, err = m.ApplyBatch(deltas)
			if err != nil || stats.Applied != len(deltas) || stats.Missing != 0 {
				t.Fatalf("retry: %+v, %v", stats, err)
			}
			commit(t, m)
			sess := s.BeginSession()
			defer sess.Close()
			for _, d := range deltas {
				got, ok, err := sess.Get("kv", d.Key)
				if err != nil || !ok || got[1].Int() != 77 {
					t.Fatalf("key %v after retry: %v %v %v", d.Key, got, ok, err)
				}
			}
		})
	}
}

// A write-back fault raised by the eviction inside GC's victim Get must
// surface in GCStats.Err, not silently skip the victim, and must leave the
// table's oldest-slot watermark exact; a clean pass afterwards reclaims
// what the faulted one left.
func TestGCGetFaultReported(t *testing.T) {
	const rows = 40
	s, d, fs, script := faultStore(t, rows, 1)
	if pageOf(t, s, 0) == pageOf(t, s, rows-1) {
		t.Fatal("fixture too small: keys 0 and rows-1 share a page")
	}
	// Two committed deletes on different pages, key 0 in the latest batch,
	// so the scan meets the mark-carrying victim first. Reclaiming it
	// dirties its page, so the second victim's Get must write it back; the
	// fault stops the pass with key rows-1 still present, and the mark must
	// then be key rows-1's delete, neither the removed key 0's nor the
	// survivors' alone.
	batch(t, s, func(m *Maintenance) { deleteKeys(t, m, rows-1) })
	batch(t, s, func(m *Maintenance) { deleteKeys(t, m, 0) })
	if err := d.Pool().Flush(); err != nil {
		t.Fatal(err)
	}

	script.AddFault(fs.PersistOps()+1, vfs.FaultErr, 0)
	st := s.GC()
	if st.Err == nil {
		t.Fatalf("GC pass succeeded despite the write-back fault: %+v", st)
	}
	if st.Removed != 1 {
		t.Fatalf("faulted pass removed %d tuples, want 1 before the fault", st.Removed)
	}
	fs.SetScript(nil)
	checkWatermark(t, s, "after a fault-stopped pass")

	if st := s.GC(); st.Err != nil || st.Removed != 1 {
		t.Fatalf("clean GC pass = %+v", st)
	}
	checkWatermark(t, s, "after the clean pass")
	if dead := s.DeadTuples()["kv"]; dead != 0 {
		t.Fatalf("%d dead tuples remain after a clean pass", dead)
	}
}
