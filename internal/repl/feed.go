// Package repl implements WAL-shipping read replicas for the 2VNL engine:
// a primary serves its fsync-covered log bytes as a length-prefixed segment
// feed (internal/server's MsgReplPoll/MsgReplSegment), and a follower tails
// that feed, persists the bytes to a local WAL copy, replays committed
// maintenance transactions through the same physical operations the
// primary's maintenance path performed, and publishes each replayed version
// through the identical atomic snapshot swap — so replica reader sessions
// run the unmodified lock-free read path at a bounded-staleness version.
//
// Byte offsets into the primary's WAL file are the stream's LSNs. The feed
// never exposes bytes past the primary's fsync horizon, and the follower
// fsyncs its local copy before publishing a replayed VN, so every version a
// replica ever served is durable on both sides: a crash of either end
// resumes from a well-formed prefix, never skipping or re-applying a delta.
package repl

import (
	"errors"
	"io"
	"sync"
	"time"

	"repro/internal/vfs"
	"repro/internal/wal"
)

// Feed adapts a primary's live WAL (the *wal.Log its Store journals into)
// to server.ReplFeed: durability bounds come from the log's byte-offset
// fsync accounting, segment bytes from a lazily opened read handle on the
// same file. A vnlserver primary plugs one into server.Config.ReplFeed.
type Feed struct {
	fsys  vfs.FS
	path  string
	epoch uint64

	log *wal.Log // nil for a static feed over a completed log

	// static is the durable end when log is nil: the whole file is
	// already fsync-covered history.
	static int64

	mu sync.Mutex
	h  vfs.File // lazily opened read handle; nil until first ReadAt

	// pins tracks follower GC pins advertised through ReplPoll.PinnedVN
	// (server.PollFeed forwards them via NotePinned). SlowestPinned over
	// this tracker is what a primary clamps its GC floor with.
	pins pinTracker
}

// NewFeed serves the live log at path, which log must be appending to.
// epoch identifies this WAL incarnation; it must change whenever the file
// is recreated or rewritten (a fresh server start, a checkpoint), because
// byte offsets into different incarnations are incommensurable.
func NewFeed(fsys vfs.FS, path string, log *wal.Log, epoch uint64) *Feed {
	return &Feed{fsys: fsys, path: path, log: log, epoch: epoch}
}

// NewStaticFeed serves a completed, fully durable log prefix of the given
// length — the crash sweep and the catch-up benchmark replay finished
// histories through it.
func NewStaticFeed(fsys vfs.FS, path string, durable int64, epoch uint64) *Feed {
	return &Feed{fsys: fsys, path: path, static: durable, epoch: epoch}
}

// Epoch identifies the WAL incarnation this feed serves.
func (f *Feed) Epoch() uint64 { return f.epoch }

// DurableLSN is the byte offset covered by the last successful fsync.
func (f *Feed) DurableLSN() int64 {
	if f.log != nil {
		return f.log.DurableLSN()
	}
	return f.static
}

// WaitDurable blocks until the durable end exceeds from, the timeout
// elapses, or stop is closed. A static feed never grows, so it returns
// immediately.
func (f *Feed) WaitDurable(from int64, timeout time.Duration, stop <-chan struct{}) int64 {
	if f.log != nil {
		return f.log.WaitDurable(from, timeout, stop)
	}
	return f.static
}

// ReadAt reads log bytes at off (io.ReaderAt contract). Only offsets below
// DurableLSN are ever requested, so reads never race the page-cache tail.
func (f *Feed) ReadAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.h == nil {
		h, err := f.fsys.Open(f.path)
		if err != nil {
			return 0, err
		}
		f.h = h
	}
	n, err := f.h.ReadAt(p, off)
	if n > 0 && errors.Is(err, io.EOF) {
		// A short read at the durable boundary is a full answer for the
		// poll; the durable end, not EOF, bounds the stream.
		err = nil
	}
	return n, err
}

// NotePinned records one follower's advertised GC pin — the slowest
// version that follower's reader sessions still read. server.PollFeed
// calls it for every poll carrying a nonzero PinnedVN (Feed implements
// server.PinSink).
func (f *Feed) NotePinned(vn uint64) { f.pins.note(vn) }

// SlowestPinned returns the smallest follower pin advertised within the
// pin window, and whether any follower advertised one recently. A primary
// installs it as the store's GC floor clamp (core.Store.SetGCFloorClamp):
// GC then never reclaims a pre-image a lagging replica session still
// reads. A follower that stops polling ages out of the window, so a dead
// replica cannot hold the floor down forever.
func (f *Feed) SlowestPinned() (uint64, bool) { return f.pins.slowest() }

// SetPinWindow overrides how long a follower's advertised pin keeps
// clamping GC after its last poll (default 15s — several tail-poll
// rounds). An advertisement is guaranteed effective for at least half the
// window and at most the whole window. Zero or negative restores the
// default. Tests use tiny windows to exercise expiry.
func (f *Feed) SetPinWindow(d time.Duration) { f.pins.setWindow(d) }

// Close releases the read handle. The served *wal.Log is owned by the
// caller and is not touched.
func (f *Feed) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.h == nil {
		return nil
	}
	h := f.h
	f.h = nil
	return h.Close()
}
