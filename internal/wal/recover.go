package wal

import (
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/vfs"
)

// RecoverStats summarizes a recovery pass.
type RecoverStats struct {
	RecordsScanned int
	CommittedTxns  int
	SkippedTxns    int // aborted or uncommitted at crash: ignored entirely
	TablesCreated  int
	TuplesReplayed int
	HighestVN      core.VN
	// CleanLSN is the byte offset after the last whole, checksummed
	// record: where a torn tail began (recovery cuts it) and where appends
	// and a follower's fetches resume.
	CleanLSN int64
}

// Recover rebuilds a version store from the log at path in one pass: a
// Replayer applies every committed transaction, in log order, into a fresh
// store; transactions without a commit record — aborted, or in flight at
// the crash — are skipped entirely (see Replayer).
//
// Recovery also repairs the file: bytes past the last whole, checksummed
// record (a torn or corrupt tail left by a crash mid-append) are cut away,
// so records appended after recovery directly follow the recovered
// history. This is the only place the log is truncated.
//
// The returned store has currentVN equal to the highest committed
// maintenance VN and no active transaction.
func Recover(path string, dbOpts db.Options, storeOpts core.Options) (*core.Store, *db.Database, RecoverStats, error) {
	return RecoverFS(vfs.Disk(), path, dbOpts, storeOpts)
}

// RecoverFS is Recover over an explicit filesystem. When dbOpts carries a
// DataFS, the rebuilt heaps mirror their pages onto it as they are
// replayed, so post-recovery state is itself crash-recoverable.
func RecoverFS(fsys vfs.FS, path string, dbOpts db.Options, storeOpts core.Options) (*core.Store, *db.Database, RecoverStats, error) {
	store, engine, p, err := RecoverStreamFS(fsys, path, dbOpts, storeOpts)
	if err != nil {
		return nil, nil, RecoverStats{}, err
	}
	return store, engine, p.Stats(), nil
}

// RecoverStreamFS is RecoverFS returning the Replayer itself, positioned at
// the clean end: a replication follower keeps feeding it the records it
// receives from there, so a transaction left open at the clean end (and
// the remap table) carries straight over.
func RecoverStreamFS(fsys vfs.FS, path string, dbOpts db.Options, storeOpts core.Options) (*core.Store, *db.Database, *Replayer, error) {
	engine := db.Open(dbOpts)
	store, err := core.Open(engine, storeOpts)
	if err != nil {
		return nil, nil, nil, err
	}
	p := NewReplayer(store)
	if f, err := fsys.Open(path); errors.Is(err, os.ErrNotExist) {
		// A log that was never created is an empty history: a crash before
		// the first durable write recovers to a fresh, empty store.
		return store, engine, p, nil
	} else if err != nil {
		return nil, nil, nil, err
	} else if err := f.Close(); err != nil {
		return nil, nil, nil, err
	}
	clean, err := IterateLSNFS(fsys, path, func(_ int64, r *Record) error { return p.Apply(r) })
	if err != nil {
		return nil, nil, nil, err
	}
	p.stats.CleanLSN = clean
	if err := cutTornTail(fsys, path, clean); err != nil {
		return nil, nil, nil, fmt.Errorf("wal: truncating torn tail: %w", err)
	}
	stats := p.Stats()
	mRecoverRecords.Add(int64(stats.RecordsScanned))
	mRecoverReplayed.Add(int64(stats.TuplesReplayed))
	mRecoverTxns.Add(int64(stats.CommittedTxns))
	return store, engine, p, nil
}

// cutTornTail truncates the log at path to clean when bytes lie past it.
func cutTornTail(fsys vfs.FS, path string, clean int64) error {
	f, err := fsys.Open(path)
	if err != nil {
		return err
	}
	var b [1]byte
	n, err := f.ReadAt(b[:], clean)
	if errors.Is(err, io.EOF) {
		err = nil
	}
	if err = errors.Join(err, f.Close()); err != nil || n == 0 {
		return err
	}
	if f, err = fsys.OpenAppend(path); err != nil {
		return err
	}
	if err := f.Truncate(clean); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
