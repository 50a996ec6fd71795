package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/exec"
	"repro/internal/sql"
)

// Prepared is a SELECT that has been parsed once: a handle on the store's
// plan cache. It pins the planEntry its last execution used, so the
// steady-state QueryPrepared skips the parse, the cache's map probe, and
// the §4.1 rewrite derivation that a cold Session.Query performs.
//
// The pin follows the plan cache's validity rule — an entry is usable iff
// the store's copy-on-write table registry is the identical pointer it was
// derived against — so a registry flip (CreateTable, AdoptTable) re-pins
// through Store.selectPlan. Because that re-pin goes through the cache, a
// prepared statement and ad-hoc text of the same statement share one
// compiled plan. A Prepared is safe for concurrent use by any number of
// sessions.
type Prepared struct {
	store *Store
	src   *sql.SelectStmt
	entry atomic.Pointer[planEntry]
}

// Prepare parses a SELECT and returns its prepared form.
func (s *Store) Prepare(text string) (*Prepared, error) {
	sel, err := sql.ParseSelect(text)
	if err != nil {
		return nil, err
	}
	return s.PrepareStmt(sel), nil
}

// PrepareStmt prepares an already-parsed SELECT. The input is cloned, so
// later mutations by the caller do not affect the prepared statement.
func (s *Store) PrepareStmt(sel *sql.SelectStmt) *Prepared {
	return &Prepared{store: s, src: sql.CloneSelect(sel)}
}

// SQL returns the canonical printed form of the prepared statement — the
// normalization key callers use to deduplicate preparations.
func (p *Prepared) SQL() string { return sql.Print(p.src) }

// pin returns the pinned plan while the table registry is unchanged, else
// re-pins through the plan cache. Concurrent re-pins may race; each entry
// is correct for the registry it loaded, and the next execution repairs a
// stale pin.
func (p *Prepared) pin() (*planEntry, error) {
	st := p.store
	if e := p.entry.Load(); e != nil && e.reg == st.tables.Load() {
		st.metrics.planHits.Inc()
		return e, nil
	}
	e, err := st.selectPlan(p.src, "")
	if err != nil {
		return nil, err
	}
	p.entry.Store(e)
	return e, nil
}

// QueryPrepared executes a prepared SELECT at the session's version under
// the same expiration discipline as Query. On a pin hit the path performs
// no parsing, no rewrite, and no mutex acquisition.
func (sess *Session) QueryPrepared(p *Prepared, params exec.Params) (*exec.Rows, error) {
	if p.store != sess.store {
		return nil, fmt.Errorf("core: prepared statement belongs to a different store")
	}
	e, err := p.pin()
	if err != nil {
		return nil, err
	}
	return sess.run(e, params)
}
