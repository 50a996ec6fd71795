package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/storage"
)

// recordingJournal records the sequence of journal calls and can inject a
// commit failure. It backs the regression tests for the vnlvet latchsafety
// and walerr fixes: LogCreate and LogBegin moved out of the latched
// sections, and GC now surfaces a failed commit force instead of blanking
// it — neither change may reorder the write-ahead record sequence.
type recordingJournal struct {
	mu        sync.Mutex
	calls     []string
	commitErr error
}

func (r *recordingJournal) record(call string) {
	r.mu.Lock()
	r.calls = append(r.calls, call)
	r.mu.Unlock()
}

func (r *recordingJournal) LogCreate(base *catalog.Schema) { r.record("create:" + base.Name) }
func (r *recordingJournal) LogBegin(vn VN)                 { r.record("begin") }
func (r *recordingJournal) LogInsert(table string, rid storage.RID, after catalog.Tuple) {
	r.record("insert:" + table)
}
func (r *recordingJournal) LogUpdate(table string, rid storage.RID, before, after catalog.Tuple) {
	r.record("update:" + table)
}
func (r *recordingJournal) LogDelete(table string, rid storage.RID, before catalog.Tuple) {
	r.record("delete:" + table)
}
func (r *recordingJournal) LogCommit(vn VN) error {
	r.record("commit")
	return r.commitErr
}
func (r *recordingJournal) LogAbort(vn VN) { r.record("abort") }

// TestJournalRecordOrder checks the write-ahead record sequence now that
// LogCreate and LogBegin are emitted outside the latch: the create record
// must still precede the begin record, and the begin record every tuple
// record of its transaction.
func TestJournalRecordOrder(t *testing.T) {
	s := newStore(t, 2)
	j := &recordingJournal{}
	s.SetJournal(j)
	if _, err := s.CreateTable(kvSchema()); err != nil {
		t.Fatal(err)
	}
	m := mustMaint(t, s)
	if err := m.Insert("kv", kvTuple(1, 10)); err != nil {
		t.Fatal(err)
	}
	commit(t, m)
	want := []string{"create:kv", "begin", "insert:kv", "commit"}
	if len(j.calls) != len(want) {
		t.Fatalf("journal calls = %v, want %v", j.calls, want)
	}
	for i := range want {
		if j.calls[i] != want[i] {
			t.Fatalf("journal calls = %v, want %v", j.calls, want)
		}
	}
}

// TestGCReportsJournalCommitError checks that a failed commit force of the
// GC pseudo-transaction is surfaced in GCStats.Err rather than discarded:
// callers that need the reclamation to be recoverable must see the failure.
func TestGCReportsJournalCommitError(t *testing.T) {
	s := newStore(t, 2)
	if _, err := s.CreateTable(kvSchema()); err != nil {
		t.Fatal(err)
	}
	m := mustMaint(t, s)
	if err := m.Insert("kv", kvTuple(1, 10)); err != nil {
		t.Fatal(err)
	}
	commit(t, m)
	m = mustMaint(t, s)
	if _, err := m.DeleteKey("kv", catalog.Tuple{catalog.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	commit(t, m)

	// Install the failing journal only now: the logically-deleted tuple is
	// in place, so the GC pass journals its physical delete and the commit
	// force fails.
	boom := errors.New("boom: force failed")
	s.SetJournal(&recordingJournal{commitErr: boom})
	stats := s.GCWithFloor(s.CurrentVN())
	if stats.Removed == 0 {
		t.Fatalf("GC removed nothing: %+v", stats)
	}
	if !errors.Is(stats.Err, boom) {
		t.Fatalf("GCStats.Err = %v, want %v", stats.Err, boom)
	}

	// A clean pass reports no error.
	if stats := s.GC(); stats.Err != nil {
		t.Fatalf("clean GC pass reported error %v", stats.Err)
	}
}

// TestBatchBeginningDuringGCWaits pins the journal's transaction nesting
// when a batch begins while a GC pass is between its maintenanceActive
// check and its first record. The pass's VN-0 pseudo-transaction must not
// land inside the batch's records — recovery could then replay neither
// whole — so the batch waits for the pass instead of starting or failing.
func TestBatchBeginningDuringGCWaits(t *testing.T) {
	s := newStore(t, 2)
	if _, err := s.CreateTable(kvSchema()); err != nil {
		t.Fatal(err)
	}
	m := mustMaint(t, s)
	if err := m.Insert("kv", kvTuple(100, 1)); err != nil {
		t.Fatal(err)
	}
	commit(t, m)
	m = mustMaint(t, s)
	if _, err := m.DeleteKey("kv", catalog.Tuple{catalog.NewInt(100)}); err != nil {
		t.Fatal(err)
	}
	commit(t, m) // a committed delete: the pass has a victim to journal
	j := &recordingJournal{}
	s.SetJournal(j)

	paused, release, gcDone := make(chan struct{}), make(chan struct{}), make(chan struct{})
	s.gcPassHook = func() {
		close(paused)
		<-release
	}
	var gc GCStats
	go func() {
		defer close(gcDone)
		gc = s.GC()
	}()
	<-paused

	// The batch journals half its rows, then (if it got that far while
	// the pass was paused) holds until the pass is done, so an interleave
	// is certain wherever begin does not wait.
	halfway, batchErr := make(chan struct{}), make(chan error, 1)
	go func() {
		batchErr <- func() error {
			m, err := s.BeginMaintenance()
			if err != nil {
				return err
			}
			for k := int64(0); k < 10; k++ {
				if k == 5 {
					close(halfway)
					<-gcDone
				}
				if err := m.Insert("kv", kvTuple(k, k)); err != nil {
					return err
				}
			}
			return m.Commit()
		}()
	}()
	select {
	case <-halfway:
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	<-gcDone
	if err := <-batchErr; err != nil {
		t.Fatalf("batch begun during a GC pass: %v", err)
	}
	if gc.Removed != 1 {
		t.Fatalf("GC pass removed %d tuples, want 1", gc.Removed)
	}
	open := false
	for i, c := range j.calls {
		switch c {
		case "begin":
			if open {
				t.Fatalf("journal call %d begins inside an open transaction: %v", i, j.calls)
			}
			open = true
		case "commit", "abort":
			open = false
		}
	}
}
