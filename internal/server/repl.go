package server

import (
	"fmt"
	"io"
	"time"
)

// This file is the serving half of WAL-shipping replication: the narrow
// interfaces a primary and a follower plug into Config, and the shared
// poll-serving logic. The stream itself (tailing, replay, publish) lives in
// internal/repl; server depends only on these interfaces, never on repl.

// ReplFeed is the primary-side replication source: a view of the primary's
// WAL byte stream bounded by its fsync horizon. Byte offsets in the WAL
// file are the stream's LSNs. Implementations must never expose bytes past
// DurableLSN — a follower that persisted bytes the primary later lost to a
// crash would diverge silently.
type ReplFeed interface {
	// Epoch identifies this WAL incarnation; a follower that polls with a
	// different epoch is tailing a log that no longer exists.
	Epoch() uint64
	// DurableLSN is the byte offset covered by the last successful fsync.
	DurableLSN() int64
	// WaitDurable blocks until DurableLSN exceeds from, the timeout
	// elapses, or stop is closed, returning the durable LSN either way
	// (the long-poll hold). A nil stop never fires.
	WaitDurable(from int64, timeout time.Duration, stop <-chan struct{}) int64
	// ReadAt reads log bytes at the given offset (standard io.ReaderAt
	// contract); only offsets below DurableLSN are requested.
	ReadAt(p []byte, off int64) (int, error)
}

// PinSink is optionally implemented by a ReplFeed that tracks follower
// pins: PollFeed forwards each poll's nonzero PinnedVN to it, and the
// primary clamps its GC floor to the feed's slowest recent advertisement
// (core.Store.SetGCFloorClamp). A feed without the method just ignores
// follower pins — GC then answers to local sessions only, as before.
type PinSink interface {
	NotePinned(vn uint64)
}

// ReplicaInfo marks a server as a read-only replication follower and
// surfaces its freshness bound. A Config with a non-nil Replica refuses
// ApplyBatch (CodeReadOnly), reports PrimaryVN in Welcome and Session
// responses, and gates /readyz on CaughtUp.
type ReplicaInfo interface {
	// PrimaryVN is the primary's currentVN as of the last successful poll.
	PrimaryVN() uint64
	// ReplayedVN is the VN this replica has replayed and published.
	ReplayedVN() uint64
	// CaughtUp reports whether the replica is within its configured lag
	// bound and its tail is healthy — the /readyz condition.
	CaughtUp() bool
}

const (
	// replDefaultSegment is the payload cap when the poll asks for no
	// specific maximum; replMaxSegment is the hard cap regardless (well
	// under MaxFrame so the segment plus its envelope always frames).
	replDefaultSegment = 256 << 10
	replMaxSegment     = 4 << 20
	// replMaxWait caps how long one poll is held open waiting for new
	// durable bytes. It must stay comfortably below any request watchdog:
	// a held poll is an in-flight request.
	replMaxWait = 10 * time.Second
)

// PollFeed serves one replication poll against feed: epoch and range
// checks, a bounded long-poll when the follower is at the durable end, then
// one bounded segment read. It is shared by the wire handler and the
// in-process sources the tests, benchmarks, and crash sweeps drive. Closing
// stop (the server's, when it shuts down) ends a held poll at once; it is
// then answered like an expired hold, as a heartbeat when no new bytes
// became durable. The returned ErrCode is zero on success and classifies
// the failure otherwise.
func PollFeed(feed ReplFeed, primaryVN func() uint64, m ReplPoll, stop <-chan struct{}) (ReplSegment, ErrCode, error) {
	epoch := feed.Epoch()
	if m.Epoch != 0 && m.Epoch != epoch {
		return ReplSegment{}, CodeReplRange, fmt.Errorf(
			"replication epoch %d, want %d: the primary's log was recreated; rebuild the replica from scratch", m.Epoch, epoch)
	}
	if m.PinnedVN > 0 {
		// Only a follower on the right epoch gets to hold the GC floor
		// down: a pin from a log that no longer exists is meaningless.
		if sink, ok := feed.(PinSink); ok {
			sink.NotePinned(m.PinnedVN)
		}
	}
	from := int64(m.FromLSN)
	durable := feed.DurableLSN()
	if from < 0 || from > durable {
		return ReplSegment{}, CodeReplRange, fmt.Errorf(
			"requested LSN %d is beyond the durable end %d", from, durable)
	}
	if from == durable && m.WaitMs > 0 {
		wait := time.Duration(m.WaitMs) * time.Millisecond
		if wait > replMaxWait {
			wait = replMaxWait
		}
		durable = feed.WaitDurable(from, wait, stop)
	}
	seg := ReplSegment{
		Epoch:      epoch,
		FromLSN:    m.FromLSN,
		DurableLSN: uint64(durable),
		PrimaryVN:  primaryVN(),
	}
	n := durable - from
	limit := int64(replDefaultSegment)
	if m.MaxBytes > 0 {
		limit = int64(m.MaxBytes)
	}
	if limit > replMaxSegment {
		limit = replMaxSegment
	}
	if n > limit {
		n = limit
	}
	if n <= 0 {
		return seg, 0, nil // heartbeat: fresh DurableLSN and PrimaryVN, no bytes
	}
	p := make([]byte, n)
	read, err := feed.ReadAt(p, from)
	if read == 0 && err != nil && err != io.EOF {
		return ReplSegment{}, CodeInternal, fmt.Errorf("reading WAL segment at %d: %w", from, err)
	}
	seg.Payload = p[:read]
	return seg, 0, nil
}

// replVN returns the freshness reference to report next to a local VN: on a
// replica, the primary VN last heard (never below the local VN — the
// replica cannot be "ahead" of what it replayed); elsewhere the local VN
// itself, so PrimaryVN−VN is the staleness bound on both kinds of server.
func (s *Server) replVN(localVN uint64) uint64 {
	if ri := s.cfg.Replica; ri != nil {
		if p := ri.PrimaryVN(); p > localVN {
			return p
		}
	}
	return localVN
}
