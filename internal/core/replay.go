package core

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/storage"
)

// This file is the store's surface for log replay (the wal package's
// Replayer, which drives both crash recovery and WAL-shipping replicas): a
// replayed transaction performs the same physical operations the primary's
// maintenance path performed and publishes its VN the way Commit does, so
// reader sessions run the unmodified lock-free path at the replayed version.

// Replay applies one committed, logged transaction the way the primary's
// maintenance path did. For vn > 0 it first raises maintenanceActive with
// currentVN = vn−1, so the §3.2 rule expires every session the
// transaction's writes can strand (a session two versions back would
// otherwise read vn−1's pre-image as its own value). It then runs apply,
// whose physical writes go through ReplayInsert/ReplayUpdate/ReplayDelete,
// and finally publishes vn with maintenanceActive cleared. The snapshot
// swap is the release barrier: every write apply made happens-before a
// session observing vn.
//
// VN 0 marks the GC and adoption pseudo-transactions: their writes are
// invisible to every session by construction, so they publish nothing.
// Replay is for a store whose only writer is the replayer; on error the
// store is left mid-transaction and must be discarded.
func (s *Store) Replay(vn VN, apply func() error) error {
	if vn == 0 {
		return apply()
	}
	if err := s.setGlobals(vn-1, true); err != nil {
		return fmt.Errorf("core: raising maintenanceActive for replayed VN %d: %w", vn, err)
	}
	s.metrics.trace(TraceMaintBegin, vn, 0)
	if err := apply(); err != nil {
		return err
	}
	if err := s.setGlobals(vn, false); err != nil {
		return fmt.Errorf("core: publishing replayed VN %d: %w", vn, err)
	}
	m := s.metrics
	m.vnAdvances.Inc()
	m.currentVN.Set(int64(vn))
	m.trace(TraceVNAdvance, vn, 0)
	return nil
}

// setGlobals is setGlobalsLocked under the latch.
func (s *Store) setGlobals(vn VN, active bool) error {
	acquired := s.latchAcquire()
	defer s.latchRelease(acquired)
	return s.setGlobalsLocked(vn, active)
}

// ReplayInsert inserts a logged extended tuple verbatim and raises the
// oldest-slot watermark to cover it (the maintenance path's physInsert).
func (v *VTable) ReplayInsert(after catalog.Tuple) (storage.RID, error) {
	rid, err := v.tbl.Insert(after)
	if err != nil {
		return rid, err
	}
	v.noteTupleWrite(after)
	return rid, nil
}

// ReplayUpdate overwrites the tuple at rid with a logged after-image. An
// update can both raise the watermark (a new version pushed into the
// slots) and lower it (a Table 4 pop looks like any other update in a
// redo-only log), so it mirrors the maintenance path's physUpdate +
// noteTupleLowered pairing: raise to cover the after-image, then recompute
// if the before-image — read from the heap, since redo records carry none
// — may have carried the mark.
func (v *VTable) ReplayUpdate(rid storage.RID, after catalog.Tuple) error {
	before, err := v.tbl.Get(rid)
	if err != nil {
		return err
	}
	if err := v.tbl.Update(rid, after); err != nil {
		return err
	}
	v.noteTupleWrite(after)
	v.noteTupleRemoved(before)
	return nil
}

// ReplayDelete physically removes the tuple at rid, recomputing the
// watermark if the removed tuple may have carried it (the maintenance
// path's physDelete).
func (v *VTable) ReplayDelete(rid storage.RID) error {
	before, err := v.tbl.Get(rid)
	if err != nil {
		return err
	}
	if err := v.tbl.Delete(rid); err != nil {
		return err
	}
	v.noteTupleRemoved(before)
	return nil
}
