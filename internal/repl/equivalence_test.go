package repl_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/repl"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// buildHistory journals a seeded multi-transaction history onto fs and
// returns its durable end. The mix covers inserts, updates, deletes,
// resurrections and aborted transactions, so the stream carries every
// record kind the replayer must route.
func buildHistory(t *testing.T, fs vfs.FS, seed int64) int64 {
	t.Helper()
	log, err := wal.CreateFS(fs, "wal.log", wal.PolicyRedoOnly)
	if err != nil {
		t.Fatal(err)
	}
	engine := db.Open(db.Options{})
	store, err := core.Open(engine, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	store.SetJournal(log)
	schema := catalog.MustSchema("kv", []catalog.Column{
		{Name: "k", Type: catalog.TypeInt, Length: 8},
		{Name: "v", Type: catalog.TypeInt, Length: 8, Updatable: true},
	}, "k")
	if _, err := store.CreateTable(schema); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	live := map[int64]bool{}
	for txn := 0; txn < 8; txn++ {
		m, err := store.BeginMaintenance()
		if err != nil {
			t.Fatal(err)
		}
		for op := 0; op < 1+rng.Intn(5); op++ {
			k := int64(rng.Intn(12))
			switch {
			case !live[k]:
				if err := m.Insert("kv", catalog.Tuple{catalog.NewInt(k), catalog.NewInt(rng.Int63n(1000))}); err != nil {
					t.Fatal(err)
				}
				live[k] = true
			case rng.Intn(3) == 0:
				if _, err := m.DeleteKey("kv", catalog.Tuple{catalog.NewInt(k)}); err != nil {
					t.Fatal(err)
				}
				live[k] = false
			default:
				v := rng.Int63n(1000)
				if _, err := m.UpdateKey("kv", catalog.Tuple{catalog.NewInt(k)},
					func(c catalog.Tuple) catalog.Tuple { c[1] = catalog.NewInt(v); return c }); err != nil {
					t.Fatal(err)
				}
			}
		}
		if rng.Intn(4) == 0 {
			// Aborted: its records ship but must not apply. The tracked
			// live-set rolls back with it.
			if err := m.Rollback(); err != nil {
				t.Fatal(err)
			}
			live = rebuildLiveSet(t, store)
		} else if err := m.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if stats := store.GC(); stats.Err != nil {
		t.Fatal(stats.Err)
	}
	durable := log.DurableLSN()
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	return durable
}

func rebuildLiveSet(t *testing.T, store *core.Store) map[int64]bool {
	t.Helper()
	live := map[int64]bool{}
	sess := store.BeginSession()
	defer sess.Close()
	if err := sess.Scan("kv", func(b catalog.Tuple) bool {
		live[b[0].Int()] = true
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return live
}

// TestApplierRecoverEquivalence pins the one replay loop against its two
// callers: for seeded histories shipped in random segment sizes, a replica
// caught up through Feed/StreamDecoder/wal.Replayer must hold exactly the
// store RecoverFS rebuilds by running the same Replayer over the file —
// same VN, same tables, same tuples.
func TestApplierRecoverEquivalence(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			pfs := vfs.NewFaultFS(nil)
			durable := buildHistory(t, pfs, seed)

			ref, _, _, err := wal.RecoverFS(pfs, "wal.log", db.Options{}, core.Options{})
			if err != nil {
				t.Fatalf("reference recovery: %v", err)
			}

			rng := rand.New(rand.NewSource(seed * 31))
			rep, err := repl.Open(repl.Options{
				FS:       vfs.NewFaultFS(nil),
				Path:     "replica/wal.log",
				DB:       db.Options{},
				Store:    core.Options{},
				MaxBytes: uint32(32 + rng.Intn(4096)),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer rep.Close()
			feed := repl.NewStaticFeed(pfs, "wal.log", durable, 1)
			src := &repl.DirectSource{Feed: feed}
			if err := rep.Catchup(src); err != nil {
				t.Fatalf("catch-up: %v", err)
			}

			if got, want := rep.Store().CurrentVN(), ref.CurrentVN(); got != want {
				t.Fatalf("replica VN %d, recovered VN %d", got, want)
			}
			got := scanAll(t, rep.Store())
			want := scanAll(t, ref)
			if d := diffStates(got, map[string]map[int64]string(want)); d != "" {
				t.Fatal(d)
			}
			if err := rep.Store().CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
