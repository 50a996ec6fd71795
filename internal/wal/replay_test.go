package wal

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/storage"
)

// TestRecoverCutsTornTailBeforeAppend pins the restart sequence every
// caller uses — Recover, then Append — over a log with a torn tail: the
// commit appended after the restart must survive the next recovery, so
// the garbage must be gone before the first new record lands.
func TestRecoverCutsTornTailBeforeAppend(t *testing.T) {
	store, log, path := journaledStore(t, PolicyRedoOnly)
	runBatch(t, store, func(m *core.Maintenance) { // VN 2
		for k := int64(0); k < 3; k++ {
			if err := m.Insert("kv", kv(k, 1)); err != nil {
				t.Fatal(err)
			}
		}
	})
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	whole, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x40, 0, 0, 0, 0xDE, 0xAD}); err != nil { // a torn frame
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	rec, _, _, err := Recover(path, db.Options{}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != whole.Size() {
		t.Fatalf("log after recovery: %d bytes (err %v), want the %d whole-record bytes", fi.Size(), err, whole.Size())
	}
	log2, err := Append(path, PolicyRedoOnly)
	if err != nil {
		t.Fatal(err)
	}
	rec.SetJournal(log2)
	runBatch(t, rec, func(m *core.Maintenance) { // VN 3, acknowledged
		if err := m.Insert("kv", kv(9, 9)); err != nil {
			t.Fatal(err)
		}
	})
	if err := log2.Close(); err != nil {
		t.Fatal(err)
	}

	again, _, _, err := Recover(path, db.Options{}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := again.CurrentVN(); got != 3 {
		t.Fatalf("second recovery at VN %d, want the acknowledged VN 3", got)
	}
	if st := logicalState(t, again); len(st) != 4 || st[9] != 9 {
		t.Fatalf("second recovery holds %v, want keys 0-2 and 9", st)
	}
}

// interleavedLog journals a batch at VN 2 whose ten inserts straddle a
// whole VN-0 pseudo-transaction — the shape a GC pass racing a batch's
// begin used to leave.
func interleavedLog(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wal.log")
	log, err := Create(path, PolicyRedoOnly)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := core.ExtendSchema(kvSchema(), 2)
	if err != nil {
		t.Fatal(err)
	}
	log.LogCreate(kvSchema())
	log.LogBegin(2)
	for k := int64(0); k < 10; k++ {
		if k == 5 {
			log.LogBegin(0)
			if err := log.LogCommit(0); err != nil {
				t.Fatal(err)
			}
		}
		log.LogInsert("kv", storage.RID{Slot: int(k)}, ext.NewExtTuple(kv(k, k), 2))
	}
	if err := log.LogCommit(2); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRecoverRefusesInterleavedTransactions: replaying either transaction
// of an interleaved log would silently drop the other's records, so
// recovery must fail loudly instead of acknowledging a VN with rows lost.
func TestRecoverRefusesInterleavedTransactions(t *testing.T) {
	path := interleavedLog(t)
	rec, _, stats, err := Recover(path, db.Options{}, core.Options{})
	if err == nil {
		t.Fatalf("recovered VN %d with %d rows (%+v) from an interleaved log; want an error",
			rec.CurrentVN(), len(logicalState(t, rec)), stats)
	}
}

// TestReplayDropsOrphanedTransaction: a crash mid-transaction leaves a
// Begin with no Commit; the restarted writer begins the same VN again. The
// orphan is skipped and the second attempt replays whole.
func TestReplayDropsOrphanedTransaction(t *testing.T) {
	store, log, path := journaledStore(t, PolicyRedoOnly)
	m, err := store.BeginMaintenance()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Insert("kv", kv(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil { // crash: no commit record
		t.Fatal(err)
	}
	rec, _, _, err := Recover(path, db.Options{}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	log2, err := Append(path, PolicyRedoOnly)
	if err != nil {
		t.Fatal(err)
	}
	rec.SetJournal(log2)
	runBatch(t, rec, func(m *core.Maintenance) {
		if err := m.Insert("kv", kv(2, 2)); err != nil {
			t.Fatal(err)
		}
	})
	if err := log2.Close(); err != nil {
		t.Fatal(err)
	}
	again, _, stats, err := Recover(path, db.Options{}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := logicalState(t, again); len(st) != 1 || st[2] != 2 || again.CurrentVN() != 2 {
		t.Fatalf("recovered %v at VN %d, want {2:2} at VN 2", st, again.CurrentVN())
	}
	if stats.CommittedTxns != 1 || stats.SkippedTxns != 1 {
		t.Fatalf("stats %+v, want 1 committed and 1 skipped", stats)
	}
}
