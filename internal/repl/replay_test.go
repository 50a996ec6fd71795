package repl_test

import (
	"errors"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/obs"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// hookFS calls hook on every Sync of a file it opened.
type hookFS struct {
	vfs.FS
	hook func()
}

func (h hookFS) OpenAppend(path string) (vfs.File, error) {
	f, err := h.FS.OpenAppend(path)
	return hookFile{f, h.hook}, err
}

type hookFile struct {
	vfs.File
	hook func()
}

func (f hookFile) Sync() error {
	f.hook()
	return f.File.Sync()
}

// hookTracer calls hook on every store event.
type hookTracer struct{ hook func() }

func (t hookTracer) Emit(string, int64, int64) { t.hook() }

// TestReplicaReadDuringReplay pins §3.2 on a replica: a session pinned at
// VN v keeps reading while one ingested segment carries commits v+1 and
// v+2, both updating the key it reads. At every observable point of the
// ingest — the local fsync and each store event — the read must return
// v's value or ErrSessionExpired, never the v+1 pre-image the v+2 write
// leaves in the tuple (the §4.1 rewrite trusts the global check for that).
func TestReplicaReadDuringReplay(t *testing.T) {
	pfs := vfs.NewFaultFS(nil)
	log, err := wal.CreateFS(pfs, "wal.log", wal.PolicyRedoOnly)
	if err != nil {
		t.Fatal(err)
	}
	primary, err := core.Open(db.Open(db.Options{}), core.Options{Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	primary.SetJournal(log)
	schema := catalog.MustSchema("kv", []catalog.Column{
		{Name: "k", Type: catalog.TypeInt, Length: 8},
		{Name: "v", Type: catalog.TypeInt, Length: 8, Updatable: true},
	}, "k")
	if _, err := primary.CreateTable(schema); err != nil {
		t.Fatal(err)
	}
	key := catalog.Tuple{catalog.NewInt(1)}
	batch := func(apply func(m *core.Maintenance) error) {
		t.Helper()
		m, err := primary.BeginMaintenance()
		if err != nil {
			t.Fatal(err)
		}
		if err := apply(m); err != nil {
			t.Fatal(err)
		}
		if err := m.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	set := func(v int64) func(m *core.Maintenance) error {
		return func(m *core.Maintenance) error {
			_, err := m.UpdateKey("kv", key, func(c catalog.Tuple) catalog.Tuple { c[1] = catalog.NewInt(v); return c })
			return err
		}
	}
	batch(func(m *core.Maintenance) error {
		return m.Insert("kv", catalog.Tuple{catalog.NewInt(1), catalog.NewInt(10)})
	})
	v := primary.CurrentVN()
	segment := func(from, to int64) server.ReplSegment {
		t.Helper()
		raw, err := pfs.ReadFile("wal.log")
		if err != nil {
			t.Fatal(err)
		}
		return server.ReplSegment{Epoch: 1, FromLSN: uint64(from), DurableLSN: uint64(to),
			PrimaryVN: uint64(primary.CurrentVN()), Payload: raw[from:to]}
	}

	var probe func()
	hook := func() {
		if p := probe; p != nil {
			probe = nil // the probe's own session events must not recurse
			p()
			probe = p
		}
	}
	rep, err := repl.Open(repl.Options{
		FS:    hookFS{vfs.NewFaultFS(nil), hook},
		Path:  "replica/wal.log",
		Store: core.Options{Metrics: obs.NewRegistry(), Tracer: hookTracer{hook}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	if err := rep.Ingest(segment(0, log.DurableLSN())); err != nil {
		t.Fatal(err)
	}
	if got := rep.Store().CurrentVN(); got != v {
		t.Fatalf("replica at VN %d, want %d", got, v)
	}
	sess := rep.Store().BeginSession()
	defer sess.Close()

	from := log.DurableLSN()
	batch(set(20)) // v+1
	batch(set(30)) // v+2
	probes, expired := 0, 0
	probe = func() {
		probes++
		rows, err := sess.Query("SELECT v FROM kv WHERE k = 1", nil)
		switch {
		case errors.Is(err, core.ErrSessionExpired):
			expired++
		case err != nil:
			t.Errorf("probe %d: %v", probes, err)
		case rows.Len() != 1 || rows.Tuples[0][0].Int() != 10:
			t.Errorf("probe %d: session at VN %d read %v, want v=10 or expiry", probes, v, rows.Tuples)
		}
	}
	if err := rep.Ingest(segment(from, log.DurableLSN())); err != nil {
		t.Fatal(err)
	}
	probe = nil
	if expired == 0 {
		t.Fatalf("none of %d probes ran while VN %d was replaying", probes, v+2)
	}
	if got, want := rep.Store().CurrentVN(), v+2; got != want {
		t.Fatalf("replica at VN %d after the segment, want %d", got, want)
	}
}
