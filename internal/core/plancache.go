package core

import (
	"sync"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/sql"
)

// defaultPlanCacheEntries bounds the plan cache. The cache is per store and
// keyed by query text, so the bound caps memory for workloads that generate
// unbounded distinct SQL (e.g. literals inlined instead of parameters).
const defaultPlanCacheEntries = 256

// planEntry is one cached, immutable query plan: the §4.1 rewrite compiled
// by exec.CompileSelect, valid for exactly the table registry it was derived
// against. src is the original (pre-rewrite) statement, retained so the rare
// stale-plan race — the registry flipped between cache validation and
// execution — can recover by re-deriving instead of failing the query.
type planEntry struct {
	reg  *tableRegistry
	src  *sql.SelectStmt
	plan *exec.Plan
}

// planCache is the store's one holder of compiled plans. Session.Query,
// Session.QueryStmt, and the server's MsgQuery path (which funnels through
// Session.Query) look plans up here; a Prepared pins the entry it got from
// here. Entries are keyed twice: by the raw query text, so a repeated
// Query(text) skips the parser entirely, and by the canonical printed form
// (sql.Print), so textual variants of one statement — and prepared and
// ad-hoc executions of it — share a single compiled plan.
//
// A cached plan is usable iff the store's copy-on-write table registry is
// the identical pointer the plan was derived against. CreateTable and
// AdoptTable publish a fresh registry, invalidating every entry with no
// shootdown protocol — stale entries are simply missed and overwritten on
// the next derivation.
type planCache struct {
	mu    sync.RWMutex
	limit int
	m     map[string]*planEntry
}

func newPlanCache(limit int) *planCache {
	return &planCache{limit: limit, m: make(map[string]*planEntry)}
}

// get returns the entry under key when it is valid for reg, else nil.
func (c *planCache) get(key string, reg *tableRegistry) *planEntry {
	c.mu.RLock()
	e := c.m[key]
	c.mu.RUnlock()
	if e != nil && e.reg == reg {
		return e
	}
	return nil
}

// put installs e under every key, evicting arbitrary entries to stay within
// the size bound. Map-order eviction is deliberate: the cache is a steady-
// state accelerator, and any entry evicted by mistake is one miss away from
// being rebuilt.
func (c *planCache) put(e *planEntry, keys ...string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, k := range keys {
		if _, present := c.m[k]; !present && len(c.m) >= c.limit {
			for victim := range c.m {
				delete(c.m, victim)
				break
			}
		}
		c.m[k] = e
	}
}

// size reports the number of cached keys (test hook).
func (c *planCache) size() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}

// selectPlan returns the cached plan for sel, deriving, compiling, and
// caching a fresh one on miss; every call counts one plan-cache hit or
// miss. raw, when non-empty, is the original query text and becomes a
// second cache key so the next Query(raw) skips the parser.
//
// The registry is loaded once, before derivation: a registry flip racing
// the derivation tags the new plan with the older pointer, which only means
// the next lookup misses and rebuilds — both plans are correct for the
// registry they loaded.
func (s *Store) selectPlan(sel *sql.SelectStmt, raw string) (*planEntry, error) {
	reg := s.tables.Load()
	canon := sql.Print(sel)
	if e := s.plans.get(canon, reg); e != nil {
		s.metrics.planHits.Inc()
		if raw != "" {
			s.plans.put(e, raw)
		}
		return e, nil
	}
	s.metrics.planMisses.Inc()
	src := sql.CloneSelect(sel)
	rw, err := RewriteSelect(s, src)
	if err != nil {
		return nil, err
	}
	pl, err := exec.CompileSelect(queryCatalog{s}, rw, s.fastOptions(src))
	if err != nil {
		return nil, err
	}
	e := &planEntry{reg: reg, src: src, plan: pl}
	if raw != "" && raw != canon {
		s.plans.put(e, canon, raw)
	} else {
		s.plans.put(e, canon)
	}
	return e, nil
}

// fastOptions builds the per-batch version-reconstruction fast path (Table 1
// / §5) for a single-table SELECT over a versioned relation, or nil when the
// shape does not qualify.
//
// The fast variant is valid by the newest-first slot ordering: tupleVN1 is
// the maximum of a tuple's slot VNs, so for a session with
// sessionVN >= tupleVN1 every per-attribute CASE of the rewrite takes its
// first arm — the bare current-value column — and every visibility arm other
// than the first has a false :s < tupleVNj conjunct. The whole rewrite
// therefore collapses to the original statement plus the case-1 visibility
// residue `operation1 <> 'delete'`, reading base columns directly. The
// classifier is exactly that guard, one integer comparison per tuple, which
// the batch executor hoists to one decision per batch.
func (s *Store) fastOptions(sel *sql.SelectStmt) *exec.CompileOptions {
	if len(sel.From) != 1 {
		return nil
	}
	vt := s.lookup(sel.From[0].Table)
	if vt == nil {
		return nil
	}
	e := vt.ext
	fast := sql.CloneSelect(sel)
	var items []sql.SelectItem
	for _, it := range fast.Items {
		if !it.Star {
			items = append(items, it)
			continue
		}
		// Expand * over the base schema, matching the rewrite's own star
		// expansion column for column (the extended schema's bookkeeping
		// columns must not leak here either).
		for _, c := range e.Base.Columns {
			items = append(items, sql.SelectItem{Expr: &sql.ColumnRef{Name: c.Name}, Alias: c.Name})
		}
	}
	fast.Items = items
	_, op1 := slotColNames(e.L.N, 1)
	guard := &sql.BinaryExpr{
		Op: sql.OpNe,
		L:  &sql.ColumnRef{Name: op1},
		R:  &sql.Literal{Value: catalog.NewString(string(OpDelete))},
	}
	if fast.Where == nil {
		fast.Where = guard
	} else {
		fast.Where = &sql.BinaryExpr{Op: sql.OpAnd, L: fast.Where, R: guard}
	}
	tvnIdx := e.L.TVN[0]
	classify := func(row catalog.Tuple, v catalog.Value) bool {
		tv := row[tvnIdx]
		if tv.IsNull() || v.IsNull() {
			// A null slot VN (never written by maintenance) falls back to
			// the full rewritten form rather than guessing.
			return false
		}
		return v.Int() >= tv.Int()
	}
	return &exec.CompileOptions{Fast: fast, Classify: classify, ClassifyParam: sessionParam}
}
