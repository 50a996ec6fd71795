package repl

import (
	"time"

	"repro/internal/server"
	"repro/pkg/vnlclient"
)

// SegmentSource is where a Replica gets its segments: the wire (a primary
// vnlserver polled through the client pool) or a Feed in the same process
// (tests, sweeps, benchmarks). Poll semantics follow server.PollFeed:
// epoch 0 learns the feed's epoch, wait 0 never blocks, an empty payload
// is a heartbeat carrying fresh DurableLSN/PrimaryVN. pinned is the
// follower's advertised GC pin (ReplPoll.PinnedVN) — the slowest version
// it still reads, or 0 to advertise nothing.
type SegmentSource interface {
	Poll(epoch, fromLSN, pinned uint64, maxBytes uint32, wait time.Duration) (server.ReplSegment, error)
	Close() error
}

// DirectSource serves polls in-process from a Feed — no wire, no copies
// beyond the segment buffer. The differential suite, the crash sweep, and
// the catch-up benchmark drive replicas through it.
type DirectSource struct {
	Feed *Feed
	// PrimaryVN reports the primary store's currentVN for freshness
	// stamping. Nil stamps 0 (a static feed of a finished history may not
	// have a live store behind it).
	PrimaryVN func() uint64
}

// Poll serves one poll via server.PollFeed, wrapping failures in
// *server.WireError so callers classify them exactly like wire failures.
func (s *DirectSource) Poll(epoch, fromLSN, pinned uint64, maxBytes uint32, wait time.Duration) (server.ReplSegment, error) {
	m := server.ReplPoll{Epoch: epoch, FromLSN: fromLSN, MaxBytes: maxBytes, PinnedVN: pinned}
	if wait > 0 {
		m.WaitMs = uint32(wait.Milliseconds())
	}
	pvn := s.PrimaryVN
	if pvn == nil {
		pvn = func() uint64 { return 0 }
	}
	seg, code, err := server.PollFeed(s.Feed, pvn, m, nil)
	if err != nil {
		return server.ReplSegment{}, &server.WireError{Code: code, Msg: err.Error()}
	}
	return seg, nil
}

// Close is a no-op; the Feed is owned by its creator.
func (s *DirectSource) Close() error { return nil }

// WireSource polls a primary vnlserver over a vnlclient connection pool —
// the production tail. Closing it closes the client, which also unblocks
// an in-flight long poll.
type WireSource struct {
	c *vnlclient.Client
}

// NewWireSource wraps an established client; the source owns it from here.
func NewWireSource(c *vnlclient.Client) *WireSource { return &WireSource{c: c} }

// Poll runs one MsgReplPoll round trip.
func (s *WireSource) Poll(epoch, fromLSN, pinned uint64, maxBytes uint32, wait time.Duration) (server.ReplSegment, error) {
	return s.c.PollRepl(epoch, fromLSN, pinned, maxBytes, wait)
}

// Close closes the underlying client pool.
func (s *WireSource) Close() error { return s.c.Close() }
