package wal

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/vfs"
)

// streamHistory journals a small multi-transaction history (inserts,
// updates, deletes, one abort) and returns the log file's bytes and path.
func streamHistory(t *testing.T) ([]byte, string) {
	t.Helper()
	store, log, path := journaledStore(t, PolicyRedoOnly)
	runBatch(t, store, func(m *core.Maintenance) {
		for k := int64(0); k < 8; k++ {
			if err := m.Insert("kv", kv(k, 10)); err != nil {
				t.Fatal(err)
			}
		}
	})
	runBatch(t, store, func(m *core.Maintenance) {
		if _, err := m.UpdateKey("kv", catalog.Tuple{catalog.NewInt(3)},
			func(c catalog.Tuple) catalog.Tuple { c[1] = catalog.NewInt(33); return c }); err != nil {
			t.Fatal(err)
		}
		if _, err := m.DeleteKey("kv", catalog.Tuple{catalog.NewInt(5)}); err != nil {
			t.Fatal(err)
		}
	})
	m, err := store.BeginMaintenance()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Insert("kv", kv(100, 1)); err != nil {
		t.Fatal(err)
	}
	if err := m.Rollback(); err != nil {
		t.Fatal(err)
	}
	runBatch(t, store, func(m *core.Maintenance) {
		if err := m.Insert("kv", kv(9, 90)); err != nil {
			t.Fatal(err)
		}
	})
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data, path
}

// recordKey flattens a record into a comparable identity for equivalence
// checks between the file iterator and the stream decoder.
func recordKey(r *Record) string {
	schema := ""
	if r.Schema != nil {
		schema = r.Schema.String()
	}
	return fmt.Sprintf("%d|%d|%s|%v|%v|%v|%s", r.Kind, r.VN, r.Table, r.RID, r.Before, r.After, schema)
}

// TestStreamDecoderChunkInvariance proves the incremental decoder is
// independent of segment boundaries: feeding the same byte stream in
// random-sized chunks (including feeds that split every frame) yields
// exactly the records and LSNs the file iterator reports.
func TestStreamDecoderChunkInvariance(t *testing.T) {
	data, path := streamHistory(t)

	type step struct {
		end int64
		rec string
	}
	var want []step
	clean, err := IterateLSNFS(vfs.Disk(), path, func(end int64, r *Record) error {
		want = append(want, step{end, recordKey(r)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if clean != int64(len(data)) {
		t.Fatalf("clean end %d, file length %d", clean, len(data))
	}

	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var dec StreamDecoder
		var got []step
		rest := data
		for len(rest) > 0 {
			n := 1 + rng.Intn(64)
			if n > len(rest) {
				n = len(rest)
			}
			dec.Feed(rest[:n])
			rest = rest[n:]
			for {
				rec, err := dec.Next()
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if rec == nil {
					break
				}
				got = append(got, step{dec.LSN(), recordKey(rec)})
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: decoded %d records, file iterator saw %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d record %d:\nstream %+v\nfile   %+v", seed, i, got[i], want[i])
			}
		}
		if dec.LSN() != clean || dec.Buffered() != 0 {
			t.Fatalf("seed %d: final stream LSN %d (buffered %d), clean end %d",
				seed, dec.LSN(), dec.Buffered(), clean)
		}
	}
}

// TestStreamDecoderSetLSN resumes a decoder mid-stream: seeding the offset
// and feeding only the suffix must continue the same LSN accounting.
func TestStreamDecoderSetLSN(t *testing.T) {
	data, _ := streamHistory(t)
	var first StreamDecoder
	first.Feed(data)
	rec, err := first.Next()
	if err != nil || rec == nil {
		t.Fatalf("first record: %v %v", rec, err)
	}
	cut := first.LSN()

	var resumed StreamDecoder
	resumed.SetLSN(cut)
	resumed.Feed(data[cut:])
	n := 0
	for {
		rec, err := resumed.Next()
		if err != nil {
			t.Fatal(err)
		}
		if rec == nil {
			break
		}
		n++
	}
	if n == 0 {
		t.Fatal("resumed decoder produced no records")
	}
	if resumed.LSN() != int64(len(data)) {
		t.Fatalf("resumed LSN %d, stream length %d", resumed.LSN(), len(data))
	}
}

// TestStreamDecoderCorruptionFatal pins the replication-stream contract:
// unlike file iteration (where a bad tail is a normal crash artifact), a
// checksum mismatch or implausible length in shipped bytes is fatal.
func TestStreamDecoderCorruptionFatal(t *testing.T) {
	data, _ := streamHistory(t)

	flipped := append([]byte(nil), data...)
	flipped[9] ^= 0xff // a payload byte of the first record
	var dec StreamDecoder
	dec.Feed(flipped)
	if _, err := dec.Next(); !errors.Is(err, ErrTornRecord) {
		t.Fatalf("corrupt payload: got %v, want ErrTornRecord", err)
	}

	var huge StreamDecoder
	huge.Feed([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	if _, err := huge.Next(); !errors.Is(err, ErrTornRecord) {
		t.Fatalf("implausible length: got %v, want ErrTornRecord", err)
	}
}

// TestIterateLSNTornTail verifies the clean-end rule a follower resumes by:
// truncating anywhere inside a frame moves the clean end back to the last
// whole record, and the reported per-record offsets are strictly
// increasing frame boundaries.
func TestIterateLSNTornTail(t *testing.T) {
	data, path := streamHistory(t)
	var ends []int64
	clean, err := IterateLSNFS(vfs.Disk(), path, func(end int64, _ *Record) error {
		ends = append(ends, end)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	prev := int64(0)
	for i, e := range ends {
		if e <= prev {
			t.Fatalf("record %d: end offset %d not past previous %d", i, e, prev)
		}
		prev = e
	}
	if clean != ends[len(ends)-1] {
		t.Fatalf("clean end %d, last record end %d", clean, ends[len(ends)-1])
	}

	// Cut mid-frame: one byte short of the final record's end.
	cutAt := ends[len(ends)-1] - 1
	if err := os.WriteFile(path, data[:cutAt], 0o644); err != nil {
		t.Fatal(err)
	}
	clean2, err := IterateLSNFS(vfs.Disk(), path, func(int64, *Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if want := ends[len(ends)-2]; clean2 != want {
		t.Fatalf("torn tail: clean end %d, want last whole record end %d", clean2, want)
	}
}

// TestDurableLSN verifies byte-durable accounting: the durable LSN covers
// every synced commit and exactly matches the file length at close.
func TestDurableLSN(t *testing.T) {
	store, log, path := journaledStore(t, PolicyRedoOnly)
	before := log.DurableLSN()
	runBatch(t, store, func(m *core.Maintenance) {
		if err := m.Insert("kv", kv(1, 1)); err != nil {
			t.Fatal(err)
		}
	})
	after := log.DurableLSN()
	if after <= before {
		t.Fatalf("durable LSN did not advance across a synced commit: %d -> %d", before, after)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after != fi.Size() {
		t.Fatalf("durable LSN %d, file length %d", after, fi.Size())
	}
}

// TestWaitDurable covers the long-poll the replication feed rides on: an
// already-satisfied wait returns immediately, an idle log times out, a
// closed stop channel ends the hold at once, and a commit from another
// goroutine wakes a blocked waiter.
func TestWaitDurable(t *testing.T) {
	store, log, _ := journaledStore(t, PolicyRedoOnly)
	runBatch(t, store, func(m *core.Maintenance) {
		if err := m.Insert("kv", kv(1, 1)); err != nil {
			t.Fatal(err)
		}
	})
	cur := log.DurableLSN()
	if cur == 0 {
		t.Fatal("synced commit left durable LSN at 0")
	}

	if got := log.WaitDurable(cur-1, time.Minute, nil); got < cur {
		t.Fatalf("satisfied wait returned %d < durable %d", got, cur)
	}
	start := time.Now()
	if got := log.WaitDurable(cur, 20*time.Millisecond, nil); got != cur {
		t.Fatalf("idle wait returned %d, want unchanged %d", got, cur)
	}
	if time.Since(start) < 20*time.Millisecond {
		t.Fatal("idle wait returned before its timeout")
	}
	stop := make(chan struct{})
	close(stop)
	start = time.Now()
	if got := log.WaitDurable(cur, time.Minute, stop); got != cur {
		t.Fatalf("stopped wait returned %d, want unchanged %d", got, cur)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("stopped wait held for %v", d)
	}

	done := make(chan int64, 1)
	go func() {
		done <- log.WaitDurable(cur, 5*time.Second, nil)
	}()
	time.Sleep(10 * time.Millisecond)
	runBatch(t, store, func(m *core.Maintenance) {
		if err := m.Insert("kv", kv(2, 2)); err != nil {
			t.Fatal(err)
		}
	})
	select {
	case got := <-done:
		if got <= cur {
			t.Fatalf("woken wait returned %d, want > %d", got, cur)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitDurable never woke after a synced commit")
	}
}
