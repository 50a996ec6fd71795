package wal

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/storage"
)

// tableRID identifies a tuple by its logged address. Replay remaps logged
// addresses to the physical addresses replayed tuples actually landed at
// (uncommitted inserts are skipped, so addresses shift).
type tableRID struct {
	Table string
	RID   storage.RID
}

// Replayer applies a WAL record stream to a store, one record at a time in
// log order. It is the single redo loop behind both crash recovery
// (RecoverFS feeds it the records of a file) and WAL-shipping replicas
// (which feed it the records a StreamDecoder cuts from received segments),
// so a replica caught up over any chunking of a log holds exactly the
// store recovery rebuilds from the same bytes.
//
// The rule is one per transaction: buffer its records from Begin; on Commit
// apply them through core.Store.Replay, which raises maintenanceActive,
// performs the physical writes and publishes the commit's VN exactly as
// the primary's maintenance path did; on Abort drop them. Nothing
// uncommitted is ever applied, so no undo information is needed — the
// redo-only discipline §7's observation enables. Create records apply at
// once: the primary journals them outside transactions.
//
// A Begin while a transaction is open means the writer restarted after a
// crash left that transaction unterminated; it can never commit, so it is
// dropped like an abort. A tuple or commit record outside any transaction
// is refused: the log interleaves two transactions, and replaying either
// one would silently lose the other's rows.
type Replayer struct {
	store *core.Store
	// remap maps logged (table, RID) addresses to physical addresses in
	// the store, for tuples still live.
	remap map[tableRID]storage.RID
	// txn buffers the open transaction's records, Begin first; nil when
	// no transaction is open.
	txn   []*Record
	stats RecoverStats
}

// NewReplayer returns a replayer that applies records to store, which must
// start empty at VN 1 and have no other writer.
func NewReplayer(store *core.Store) *Replayer {
	return &Replayer{store: store, remap: map[tableRID]storage.RID{}}
}

// Stats returns the replay counters so far. A transaction still open
// counts as skipped, since nothing of it has been applied.
func (p *Replayer) Stats() RecoverStats {
	st := p.stats
	if p.txn != nil {
		st.SkippedTxns++
	}
	return st
}

// Apply routes one record.
func (p *Replayer) Apply(r *Record) error {
	p.stats.RecordsScanned++
	switch r.Kind {
	case KindCreate:
		if _, err := p.store.CreateTable(r.Schema); err != nil {
			return fmt.Errorf("wal: recreate %s: %w", r.Schema.Name, err)
		}
		p.stats.TablesCreated++
	case KindBegin:
		if p.txn != nil {
			p.stats.SkippedTxns++
		}
		p.txn = []*Record{r}
	case KindInsert, KindUpdate, KindDelete:
		if p.txn == nil {
			return fmt.Errorf("wal: %v record for %s outside a transaction", r.Kind, r.Table)
		}
		p.txn = append(p.txn, r)
	case KindAbort:
		// A stray abort (a commit record was forced but installing the
		// version failed, and the caller rolled back) changes nothing.
		if p.txn != nil {
			p.stats.SkippedTxns++
		}
		p.txn = nil
	case KindCommit:
		if p.txn == nil {
			return fmt.Errorf("wal: commit of VN %d outside a transaction", r.VN)
		}
		recs := p.txn[1:]
		p.txn = nil
		if err := p.store.Replay(r.VN, func() error { return p.redo(recs) }); err != nil {
			return err
		}
		p.stats.CommittedTxns++
		if r.VN > p.stats.HighestVN {
			p.stats.HighestVN = r.VN
		}
	default:
		return fmt.Errorf("wal: unknown record kind %v", r.Kind)
	}
	return nil
}

// Drain applies every complete record buffered in dec.
func (p *Replayer) Drain(dec *StreamDecoder) error {
	for {
		r, err := dec.Next()
		if err != nil || r == nil {
			return err
		}
		if err := p.Apply(r); err != nil {
			return err
		}
	}
}

// redo performs a committed transaction's physical changes. The logged
// images are the extended (slot-carrying) tuples the primary wrote, so
// writing them verbatim reproduces the primary's version state.
func (p *Replayer) redo(recs []*Record) error {
	for _, r := range recs {
		vt, err := p.store.Table(r.Table)
		if err != nil {
			return fmt.Errorf("wal: replay into unknown table %q", r.Table)
		}
		key := tableRID{r.Table, r.RID}
		if r.Kind == KindInsert {
			rid, err := vt.ReplayInsert(r.After)
			if err != nil {
				return fmt.Errorf("wal: replay insert: %w", err)
			}
			p.remap[key] = rid
			p.stats.TuplesReplayed++
			continue
		}
		rid, ok := p.remap[key]
		if !ok {
			return fmt.Errorf("wal: %v of unmapped tuple %s%v", r.Kind, r.Table, r.RID)
		}
		if r.Kind == KindUpdate {
			err = vt.ReplayUpdate(rid, r.After)
		} else {
			err = vt.ReplayDelete(rid)
			delete(p.remap, key)
		}
		if err != nil {
			return fmt.Errorf("wal: replay %v: %w", r.Kind, err)
		}
		p.stats.TuplesReplayed++
	}
	return nil
}
