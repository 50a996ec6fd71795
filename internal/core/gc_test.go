package core

import (
	"fmt"
	"testing"

	"repro/internal/catalog"
	"repro/internal/db"
)

// checkWatermark asserts the store's invariants, and the oldest-slot
// watermark and expiry probe against their scan oracles (assertWatermark).
func checkWatermark(t *testing.T, s *Store, when string) {
	t.Helper()
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
	vt, err := s.Table("kv")
	if err != nil {
		t.Fatal(err)
	}
	if assertWatermark(t, s, vt); t.Failed() {
		t.Fatalf("watermark diverged %s", when)
	}
}

// batch commits one maintenance transaction running fn.
func batch(t *testing.T, s *Store, fn func(m *Maintenance)) {
	t.Helper()
	m := mustMaint(t, s)
	fn(m)
	commit(t, m)
}

func deleteKeys(t *testing.T, m *Maintenance, keys ...int64) {
	t.Helper()
	for _, k := range keys {
		if _, err := m.DeleteKey("kv", catalog.Tuple{catalog.NewInt(k)}); err != nil {
			t.Fatal(err)
		}
	}
}

func updateKeys(t *testing.T, m *Maintenance, v int64, keys ...int64) {
	t.Helper()
	for _, k := range keys {
		if _, err := m.UpdateKey("kv", catalog.Tuple{catalog.NewInt(k)},
			func(catalog.Tuple) catalog.Tuple { return kvTuple(k, v) }); err != nil {
			t.Fatal(err)
		}
	}
}

func keyRange(lo, hi int64) []int64 {
	var ks []int64
	for k := lo; k < hi; k++ {
		ks = append(ks, k)
	}
	return ks
}

// A GC pass finds its victims and the table's new oldest-slot watermark in
// one scan. Whether the reclaimed tuples carried the mark or not, the mark
// left behind must equal the scan maximum: a high mark expires sessions
// needlessly, a low one lets a session read a version it cannot
// reconstruct. TestGCGetFaultReported checks the same after a storage
// fault stops a pass part way.
func TestGCKeepsWatermarkExact(t *testing.T) {
	for _, n := range []int{2, 3} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			s := newStore(t, n)
			if _, err := s.CreateTable(kvSchema()); err != nil {
				t.Fatal(err)
			}
			batch(t, s, func(m *Maintenance) {
				for _, k := range keyRange(0, 40) {
					if err := m.Insert("kv", kvTuple(k, k)); err != nil {
						t.Fatal(err)
					}
				}
			})
			// Victims that carry the mark: keys 0..4 are updated and then
			// deleted in the latest batch, so their oldest slot is the
			// table's newest.
			batch(t, s, func(m *Maintenance) { updateKeys(t, m, 1, keyRange(0, 10)...) })
			batch(t, s, func(m *Maintenance) { deleteKeys(t, m, keyRange(0, 5)...) })
			vt, err := s.Table("kv")
			if err != nil {
				t.Fatal(err)
			}
			before := vt.oldestHW.Load()
			if st := s.GC(); st.Removed != 5 || st.Err != nil {
				t.Fatalf("GC = %+v, want 5 removed", st)
			}
			checkWatermark(t, s, "after reclaiming mark-carrying victims")
			if after := vt.oldestHW.Load(); after >= before {
				t.Fatalf("oldestHW %d after reclaiming the tuples that carried it, want below %d", after, before)
			}

			// Victims that do not carry the mark: keys 10..12 are deleted,
			// then keys 20..29 are updated twice, lifting the mark above
			// every victim.
			batch(t, s, func(m *Maintenance) { deleteKeys(t, m, 10, 11, 12) })
			batch(t, s, func(m *Maintenance) { updateKeys(t, m, 2, keyRange(20, 30)...) })
			batch(t, s, func(m *Maintenance) { updateKeys(t, m, 3, keyRange(20, 30)...) })
			before = vt.oldestHW.Load()
			if st := s.GC(); st.Removed != 3 || st.Err != nil {
				t.Fatalf("GC = %+v, want 3 removed", st)
			}
			checkWatermark(t, s, "after reclaiming victims below the mark")
			if after := vt.oldestHW.Load(); after != before {
				t.Fatalf("oldestHW moved %d -> %d, though no victim carried it", before, after)
			}

			// A pass with nothing to reclaim leaves the mark alone.
			if st := s.GC(); st.Removed != 0 {
				t.Fatalf("idle GC = %+v", st)
			}
			checkWatermark(t, s, "after an idle pass")
		})
	}
}

// BenchmarkGCPass times one GC pass over a 4000-row table whose 25 victims
// were all deleted by the latest batch, so every victim carries the
// table's oldest-slot watermark. Each iteration's setup (untimed) deletes
// the next 25 keys and re-inserts the previous victims.
func BenchmarkGCPass(b *testing.B) {
	const rows, victims = 4000, 25
	s, err := Open(db.Open(db.Options{}), Options{N: 2})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.CreateTable(kvSchema()); err != nil {
		b.Fatal(err)
	}
	apply := func(deltas []Delta) {
		m, err := s.BeginMaintenance()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.ApplyBatch(deltas); err != nil {
			b.Fatal(err)
		}
		if err := m.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	var load []Delta
	for k := int64(0); k < rows; k++ {
		load = append(load, Delta{Op: DeltaInsert, Table: "kv", Row: kvTuple(k, k)})
	}
	apply(load)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		lo := int64(i*victims) % rows
		var deltas []Delta
		for k := lo; k < lo+victims; k++ {
			deltas = append(deltas, Delta{Op: DeltaDelete, Table: "kv", Key: catalog.Tuple{catalog.NewInt(k)}})
		}
		if i > 0 {
			prev := int64((i-1)*victims) % rows
			for k := prev; k < prev+victims; k++ {
				deltas = append(deltas, Delta{Op: DeltaInsert, Table: "kv", Row: kvTuple(k, k)})
			}
		}
		apply(deltas)
		b.StartTimer()
		if st := s.GC(); st.Removed != victims || st.Err != nil {
			b.Fatalf("GC = %+v, want %d removed", st, victims)
		}
	}
}
