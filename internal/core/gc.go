package core

import (
	"errors"
	"fmt"

	"repro/internal/catalog"
	"repro/internal/storage"
)

// GCStats reports one garbage-collection pass.
type GCStats struct {
	// Scanned is the number of physical tuples examined.
	Scanned int
	// Removed is the number of logically-deleted tuples physically
	// reclaimed.
	Removed int
	// BytesReclaimed is Removed × the extended tuple size, summed per
	// table.
	BytesReclaimed int
	// Err is the pass's first error: a storage fault reading or deleting
	// a victim, which stops the pass at that tuple, or the journal error
	// from committing the GC pseudo-transaction. Reclamation done before
	// the error has already happened (and is journaled if the commit
	// succeeded); callers that need the reclamation to be recoverable
	// must check it (§7).
	Err error
}

// GC physically removes logically-deleted tuples that no current or future
// reader can need (§7 future work, implemented here). A deleted tuple with
// tupleVN = t is needed only by sessions with sessionVN < t, which read its
// pre-update version; sessions with sessionVN >= t ignore it (Table 1). It
// is therefore reclaimable once every active session has sessionVN >= t and
// the delete is committed (t <= currentVN) — new sessions always start at
// currentVN, so none can ever need it again.
//
// (The paper's §7 sketch states the stricter condition
// "tupleVN < sessionVN−1 for all active readers"; the condition used here
// additionally reclaims tuples whose deletion is exactly at the session
// floor, which Table 1 shows are already invisible to those sessions.)
//
// GC is safe to run concurrently with readers. It never overlaps a
// maintenance transaction: a pass skips (returns zero stats) while one is
// active, and a transaction that begins during a pass waits for the pass to
// finish, so the pass's VN-0 pseudo-transaction never interleaves with a
// batch's records in the journal and Table 2's key-conflict bookkeeping
// never sees a conflict target vanish mid-transaction.
func (s *Store) GC() GCStats {
	floor := s.CurrentVN()
	if minVN, any := s.activeSessionFloor(); any && minVN < floor {
		floor = minVN
	}
	if fn := s.gcClamp.Load(); fn != nil {
		if vn, ok := (*fn)(); ok && vn < floor {
			floor = vn
		}
	}
	return s.GCWithFloor(floor)
}

// SetGCFloorClamp installs (or, with nil, removes) an external bound on the
// GC floor: each pass calls fn and, when it reports ok, reclaims nothing
// newer than the returned VN. Two callers use it. The shard router clamps
// every shard to the published cross-shard epoch, closing the race where a
// reader has loaded the epoch but not yet registered its per-shard sessions
// when GC runs with floor = currentVN. A replication primary clamps to the
// slowest replica's advertised pinned VN, so a replayed GC delete can never
// reclaim a pre-image a lagging replica session still reads.
func (s *Store) SetGCFloorClamp(fn func() (VN, bool)) {
	if fn == nil {
		s.gcClamp.Store(nil)
		return
	}
	s.gcClamp.Store(&fn)
}

// GCWithFloor reclaims logically-deleted tuples with tupleVN <= floor.
// Callers are responsible for choosing a floor no greater than the minimum
// active sessionVN and currentVN.
//
// When a journal is installed, the physical deletions are journaled as a
// committed pseudo-transaction (VN 0): without that, a later fresh insert
// of a reclaimed key would collide with the still-logically-deleted tuple
// during recovery replay.
//
// Like GC, it skips while a maintenance transaction is active and holds off
// any that would begin until the pass is done.
func (s *Store) GCWithFloor(floor VN) GCStats {
	var stats GCStats
	s.pseudoMu.Lock()
	defer s.pseudoMu.Unlock()
	if s.MaintenanceActive() {
		return stats
	}
	if s.gcPassHook != nil {
		s.gcPassHook()
	}
	j := s.journalOrNil()
	journalOpen := false
tables:
	for _, vt := range s.Tables() {
		e := vt.ext
		oldest := e.L.N - 1
		// One scan finds the victims and the oldest-slot high-water mark
		// the table will have once they are gone, so removing a victim
		// that carries the mark costs no rescan. No maintenance write can
		// land during the pass, and until the new mark is stored the old
		// one stays high, which readers tolerate (a spurious expiry at
		// worst, never a missed one).
		var victims []storage.RID
		var survivorsHW int64
		vt.tbl.Scan(func(rid storage.RID, t catalog.Tuple) bool {
			stats.Scanned++
			if e.OpAt(t, 1) == OpDelete && e.TupleVN(t, 1) <= floor {
				victims = append(victims, rid)
			} else if vn := int64(e.TupleVN(t, oldest)); vn > survivorsHW {
				survivorsHW = vn
			}
			return true
		})
		for _, rid := range victims {
			before, err := vt.tbl.Get(rid)
			if errors.Is(err, storage.ErrNotFound) {
				continue // left out of survivorsHW too, so the mark stays exact
			}
			if err != nil {
				stats.Err = fmt.Errorf("core: gc reading %s %v: %w", e.Base.Name, rid, err)
				vt.recomputeOldestHW()
				break tables
			}
			if err := vt.tbl.Delete(rid); err != nil {
				stats.Err = fmt.Errorf("core: gc deleting %s %v: %w", e.Base.Name, rid, err)
				vt.recomputeOldestHW()
				break tables
			}
			stats.Removed++
			stats.BytesReclaimed += e.Ext.RowBytes()
			if j != nil {
				if !journalOpen {
					j.LogBegin(0)
					journalOpen = true
				}
				j.LogDelete(e.Base.Name, rid, before)
			}
		}
		if len(victims) > 0 {
			vt.oldestHW.Store(survivorsHW)
		}
	}
	if journalOpen {
		if err := j.LogCommit(0); err != nil && stats.Err == nil {
			stats.Err = err
		}
	}
	mm := s.metrics
	mm.gcPasses.Inc()
	mm.gcScanned.Add(int64(stats.Scanned))
	mm.gcRemoved.Add(int64(stats.Removed))
	mm.gcBytes.Add(int64(stats.BytesReclaimed))
	mm.trace(TraceGCPass, floor, int64(stats.Removed))
	return stats
}

// DeadTuples counts logically-deleted tuples awaiting collection, per
// registered table.
func (s *Store) DeadTuples() map[string]int {
	out := make(map[string]int)
	for _, vt := range s.Tables() {
		e := vt.ext
		n := 0
		vt.tbl.Scan(func(_ storage.RID, t catalog.Tuple) bool {
			if e.OpAt(t, 1) == OpDelete {
				n++
			}
			return true
		})
		out[e.Base.Name] = n
	}
	return out
}
