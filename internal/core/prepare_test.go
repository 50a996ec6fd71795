package core

import (
	"fmt"
	"testing"

	"repro/internal/catalog"
	"repro/internal/obs"
)

// prepStore builds a store on a private registry with kv preloaded: keys
// 0..9 at VN 2.
func prepStore(t *testing.T) (*Store, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	s := newStore(t, 2, func(o *Options) { o.Metrics = reg })
	if _, err := s.CreateTable(kvSchema()); err != nil {
		t.Fatal(err)
	}
	m := mustMaint(t, s)
	for k := int64(0); k < 10; k++ {
		if err := m.Insert("kv", kvTuple(k, 100+k)); err != nil {
			t.Fatal(err)
		}
	}
	commit(t, m)
	return s, reg
}

// A prepared statement answers exactly like the ad-hoc path, at the
// session's pinned version, before and after a maintenance commit.
func TestPreparedMatchesAdHoc(t *testing.T) {
	s, _ := prepStore(t)
	p, err := s.Prepare(`SELECT k, v FROM kv WHERE k < 5 ORDER BY k`)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}

	sess := s.BeginSession()
	defer sess.Close()
	want, err := sess.Query(`SELECT k, v FROM kv WHERE k < 5 ORDER BY k`, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sess.QueryPrepared(p, nil)
	if err != nil {
		t.Fatalf("QueryPrepared: %v", err)
	}
	if fmt.Sprint(got.Tuples) != fmt.Sprint(want.Tuples) {
		t.Fatalf("prepared answered %v, ad hoc %v", got.Tuples, want.Tuples)
	}

	// Maintenance commits under the open session; the prepared execution
	// must keep reading the session's original version.
	m := mustMaint(t, s)
	if _, err := m.UpdateKey("kv", catalog.Tuple{catalog.NewInt(1)},
		func(catalog.Tuple) catalog.Tuple { return kvTuple(1, 9999) }); err != nil {
		t.Fatal(err)
	}
	commit(t, m)
	after, err := sess.QueryPrepared(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(after.Tuples) != fmt.Sprint(want.Tuples) {
		t.Fatalf("prepared moved with maintenance: %v, want the session's original %v", after.Tuples, want.Tuples)
	}

	// A fresh session sees the new version through the same Prepared.
	sess2 := s.BeginSession()
	defer sess2.Close()
	fresh, err := sess2.QueryPrepared(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(fresh.Tuples) == fmt.Sprint(want.Tuples) {
		t.Fatalf("fresh session through the prepared plan did not see the committed update")
	}
}

// The cached rewrite survives maintenance commits (the rewrite is
// VN-independent) and is invalidated only when the table registry changes.
func TestPreparedCacheInvalidation(t *testing.T) {
	s, reg := prepStore(t)
	p, err := s.Prepare(`SELECT COUNT(*) FROM kv`)
	if err != nil {
		t.Fatal(err)
	}
	counts := func() (hits, misses int64) {
		snap := reg.Snapshot()
		return snap.Counters["core_plan_cache_hits_total"],
			snap.Counters["core_plan_cache_misses_total"]
	}
	query := func() {
		t.Helper()
		sess := s.BeginSession()
		defer sess.Close()
		if _, err := sess.QueryPrepared(p, nil); err != nil {
			t.Fatal(err)
		}
	}

	query() // first execution derives the rewrite
	if h, m := counts(); h != 0 || m != 1 {
		t.Fatalf("after first execution: hits=%d misses=%d, want 0/1", h, m)
	}
	query() // cached
	query()
	if h, m := counts(); h != 2 || m != 1 {
		t.Fatalf("after repeats: hits=%d misses=%d, want 2/1", h, m)
	}

	// A maintenance commit advances the VN but leaves the registry pointer
	// alone: still a cache hit.
	m := mustMaint(t, s)
	if err := m.Insert("kv", kvTuple(100, 1)); err != nil {
		t.Fatal(err)
	}
	commit(t, m)
	query()
	if h, mi := counts(); h != 3 || mi != 1 {
		t.Fatalf("after maintenance commit: hits=%d misses=%d, want 3/1", h, mi)
	}

	// Creating a table swaps the copy-on-write registry: the next execution
	// must re-derive against the new registry.
	if _, err := s.CreateTable(catalog.MustSchema("other", []catalog.Column{
		{Name: "k", Type: catalog.TypeInt, Length: 8},
	}, "k")); err != nil {
		t.Fatal(err)
	}
	query()
	if h, mi := counts(); h != 3 || mi != 2 {
		t.Fatalf("after CreateTable: hits=%d misses=%d, want 3/2", h, mi)
	}
}

// Prepare rejects unparseable statements up front; a query over a table
// that does not exist parses (it could name a plain relation adopted later)
// and fails at execution instead.
func TestPrepareErrors(t *testing.T) {
	s, _ := prepStore(t)
	if _, err := s.Prepare(`SELEC nonsense`); err == nil {
		t.Fatal("Prepare accepted garbage SQL")
	}
	p, err := s.Prepare(`SELECT x FROM no_such_table`)
	if err != nil {
		t.Fatalf("Prepare rejected a syntactically valid query: %v", err)
	}
	sess := s.BeginSession()
	defer sess.Close()
	if _, err := sess.QueryPrepared(p, nil); err == nil {
		t.Fatal("executing over a missing table succeeded")
	}
}
