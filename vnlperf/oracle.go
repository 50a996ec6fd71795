package main

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/pkg/vnlclient"
)

// version is one key's state from VN vn on.
type version struct {
	vn   int64
	v    int64
	live bool
}

// oracle replays every acknowledged batch client-side, as vnlload -dsn
// does, but keeps each key's history so a read can be checked at the VN
// its session pinned. Updates and deletes of absent keys are legal skips.
type oracle struct {
	groups int64
	hist   map[int64][]version
	lastVN int64
	// sumSkew is added to every expected SUM; the self-test sets it to
	// prove a wrong expectation fails the run.
	sumSkew int64
}

func newOracle(groups int) *oracle {
	return &oracle{groups: int64(groups), hist: make(map[int64][]version)}
}

// apply records batch deltas as committed at vn and returns how many the
// server should have skipped.
func (o *oracle) apply(vn int64, deltas []vnlclient.Delta) (missing int) {
	for _, d := range deltas {
		switch d.Op {
		case vnlclient.DeltaInsert:
			o.set(d.Row[0].Int(), vn, d.Row[2].Int(), true)
		case vnlclient.DeltaUpdate:
			k := d.Key[0].Int()
			if _, ok := o.latest(k); !ok {
				missing++
				continue
			}
			o.set(k, vn, d.Row[2].Int(), true)
		case vnlclient.DeltaDelete:
			k := d.Key[0].Int()
			if _, ok := o.latest(k); !ok {
				missing++
				continue
			}
			o.set(k, vn, 0, false)
		}
	}
	o.lastVN = vn
	return missing
}

func (o *oracle) set(k, vn, v int64, live bool) {
	h := o.hist[k]
	if n := len(h); n > 0 && h[n-1].vn == vn {
		h[n-1] = version{vn, v, live}
		return
	}
	o.hist[k] = append(h, version{vn, v, live})
}

func (o *oracle) latest(k int64) (int64, bool) {
	h := o.hist[k]
	if len(h) == 0 || !h[len(h)-1].live {
		return 0, false
	}
	return h[len(h)-1].v, true
}

// at returns key k's value as of vn.
func (o *oracle) at(k, vn int64) (int64, bool) {
	h := o.hist[k]
	i := sort.Search(len(h), func(i int) bool { return h[i].vn > vn }) - 1
	if i < 0 || !h[i].live {
		return 0, false
	}
	return h[i].v, true
}

// history renders key k's versions around vn, for failure reports.
func (o *oracle) history(k, vn int64) string {
	var b strings.Builder
	for _, v := range o.hist[k] {
		if v.vn < vn-3 || v.vn > vn+3 {
			continue
		}
		if v.live {
			fmt.Fprintf(&b, " VN %d: v=%d;", v.vn, v.v)
		} else {
			fmt.Fprintf(&b, " VN %d: deleted;", v.vn)
		}
	}
	return strings.TrimSpace(b.String())
}

// total is COUNT and SUM(v) as of vn over the keys keep accepts.
func (o *oracle) total(vn int64, keep func(k int64) bool) (count, sum int64) {
	for k := range o.hist {
		if keep != nil && !keep(k) {
			continue
		}
		if v, ok := o.at(k, vn); ok {
			count++
			sum += v
		}
	}
	return count, sum + o.sumSkew
}

// groupsAt is the GROUP BY g answer as of vn.
func (o *oracle) groupsAt(vn int64) map[int64][2]int64 {
	out := make(map[int64][2]int64)
	for k := range o.hist {
		if v, ok := o.at(k, vn); ok {
			g := out[k%o.groups]
			out[k%o.groups] = [2]int64{g[0] + 1, g[1] + v}
		}
	}
	return out
}

// Observations the reader makes during the phase, checked after it.
type pointObs struct {
	vn, k int64
	rows  []catalog.Tuple
}

type scanObs struct {
	vn, lo, hi int64
	rows       []catalog.Tuple
}

type aggObs struct {
	vn   int64
	rows []catalog.Tuple
}

// checker accumulates the reader's observations and the end-of-run totals
// and reports every disagreement with the oracle.
type checker struct {
	points []pointObs
	scans  []scanObs
	aggs   []aggObs
	errs   []string
}

func (c *checker) failf(format string, args ...any) {
	if len(c.errs) < 20 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// verifyReads checks every recorded read against the oracle at its VN.
func (c *checker) verifyReads(o *oracle) {
	for _, p := range c.points {
		want, ok := o.at(p.k, p.vn)
		switch {
		case !ok && len(p.rows) != 0:
			c.failf("point k=%d at VN %d: got %v, want no row", p.k, p.vn, p.rows)
		case ok && len(p.rows) != 1:
			c.failf("point k=%d at VN %d: got %d rows, want v=%d", p.k, p.vn, len(p.rows), want)
		case ok && (p.rows[0][1].Int() != p.k%o.groups || p.rows[0][2].Int() != want):
			c.failf("point k=%d at VN %d: got %v, want g=%d v=%d (history %s)", p.k, p.vn, p.rows[0], p.k%o.groups, want, o.history(p.k, p.vn))
		}
	}
	for _, s := range c.scans {
		var wantN, wantSum, gotSum int64
		for k := s.lo; k < s.hi; k++ {
			if v, ok := o.at(k, s.vn); ok {
				wantN++
				wantSum += v
			}
		}
		for _, r := range s.rows {
			gotSum += r[1].Int()
		}
		if int64(len(s.rows)) != wantN || gotSum != wantSum {
			c.failf("scan [%d,%d) at VN %d: got %d rows sum %d, want %d rows sum %d",
				s.lo, s.hi, s.vn, len(s.rows), gotSum, wantN, wantSum)
		}
	}
	for _, a := range c.aggs {
		want := o.groupsAt(a.vn)
		if len(a.rows) != len(want) {
			c.failf("aggregate at VN %d: got %d groups, want %d", a.vn, len(a.rows), len(want))
			continue
		}
		for _, r := range a.rows {
			w := want[r[0].Int()]
			if r[1].Int() != w[0] || r[2].Int() != w[1]+o.sumSkew {
				c.failf("aggregate group %d at VN %d: got count %d sum %d, want %d %d",
					r[0].Int(), a.vn, r[1].Int(), r[2].Int(), w[0], w[1]+o.sumSkew)
			}
		}
	}
}

// checkTotal compares a COUNT/SUM row read at vn with the oracle.
func (c *checker) checkTotal(where string, o *oracle, vn int64, keep func(int64) bool, rows []catalog.Tuple) {
	wantN, wantSum := o.total(vn, keep)
	if len(rows) != 1 {
		c.failf("%s COUNT/SUM at VN %d: got %d result rows", where, vn, len(rows))
		return
	}
	t := rows[0]
	if t[0].Int() != wantN || (wantN > 0 && t[1].Int() != wantSum) {
		c.failf("%s COUNT/SUM at VN %d: got %d/%d, oracle %d/%d", where, vn, t[0].Int(), t[1].Int(), wantN, wantSum)
	}
}

// shardOf routes key k exactly as the router does.
func shardOf(base *catalog.Schema, k int64, shards int) int {
	i, err := core.PartitionDelta(base, core.Delta{Table: tableName, Op: core.DeltaDelete,
		Key: catalog.Tuple{catalog.NewInt(k)}}, 0, shards)
	if err != nil {
		return -1
	}
	return i
}
