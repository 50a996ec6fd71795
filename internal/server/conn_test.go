package server_test

import (
	"bufio"
	"bytes"
	"context"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/pkg/vnlclient"
)

// rawDial opens a bare TCP connection to srv and completes the Hello /
// Welcome handshake, so the server is serving it when rawDial returns.
func rawDial(t *testing.T, srv *server.Server) (net.Conn, *bufio.Reader) {
	t.Helper()
	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = nc.Close() })
	_ = nc.SetDeadline(time.Now().Add(5 * time.Second))
	if err := server.WriteFrame(nc, server.MsgHello, server.Hello{ClientName: t.Name()}.Encode()); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(nc)
	if mt, _, err := server.ReadFrame(br); err != nil || mt != server.MsgWelcome {
		t.Fatalf("handshake answered %v, %v", mt, err)
	}
	_ = nc.SetDeadline(time.Time{})
	return nc, br
}

// waitGauge polls a gauge until it reads want or the timeout passes, and
// returns the last value read.
func waitGauge(reg *obs.Registry, name string, want int64, timeout time.Duration) int64 {
	deadline := time.Now().Add(timeout)
	for {
		v := reg.GaugeValue(name)
		if v == want || time.Now().After(deadline) {
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// connGoroutines counts the goroutines running a method of the server's
// per-connection type, whatever else the process is running.
func connGoroutines() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	count := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("repro/internal/server.(*conn).")) {
			count++
		}
	}
	return count
}

// Each connection is served by exactly one goroutine: it reads a request,
// handles it, and writes the response itself. N open connections therefore
// add N server goroutines, not a reader and a writer each.
func TestOneGoroutinePerConnection(t *testing.T) {
	const n = 16
	srv, _ := startServer(t)
	for i := 0; i < n; i++ {
		rawDial(t, srv)
	}
	if got := waitGauge(srv.Metrics(), "server_conns_active", n, 5*time.Second); got != n {
		t.Fatalf("server_conns_active = %d, want %d", got, n)
	}
	if got := connGoroutines(); got != n {
		t.Fatalf("%d open connections run %d connection goroutines, want %d", n, got, n)
	}
}

// A peer that sends requests with large answers and never reads them
// fills its socket buffers; the response write then blocks, and
// WriteTimeout must sever the connection, free its slot, and leave Close
// nothing to wait for.
func TestStalledPeerSeveredByWriteTimeout(t *testing.T) {
	const writeTimeout = 200 * time.Millisecond
	srv, store := startServer(t, func(cfg *server.Config) { cfg.WriteTimeout = writeTimeout })
	m, err := store.BeginMaintenance()
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 4000; k++ {
		if err := m.Insert("kv", catalog.Tuple{catalog.NewInt(k), catalog.NewInt(k)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Commit(); err != nil {
		t.Fatal(err)
	}

	nc, _ := rawDial(t, srv)
	// Each answer is ~4000 rows; the peer queues queries until the server,
	// stuck writing, stops reading them or severs the socket.
	query := server.Query{SQL: "SELECT k, v FROM kv"}.Encode()
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		_ = nc.SetWriteDeadline(time.Now().Add(20 * time.Second))
		for i := 0; i < 10000; i++ {
			if err := server.WriteFrame(nc, server.MsgQuery, query); err != nil {
				return
			}
		}
	}()
	t.Cleanup(func() {
		_ = nc.Close()
		<-sent
	})
	reg := srv.Metrics()
	if got := waitGauge(reg, "server_conns_active", 1, 5*time.Second); got != 1 {
		t.Fatalf("server_conns_active = %d before the stall, want 1", got)
	}
	// The stall builds up over the socket buffers, then WriteTimeout
	// fires; no other timer is configured that could sever the peer.
	start := time.Now()
	if got := waitGauge(reg, "server_conns_active", 0, 15*time.Second); got != 0 {
		t.Fatalf("stalled peer still connected after %v (server_conns_active = %d)", time.Since(start), got)
	}
	t.Logf("stalled peer severed after %v; %d queries answered", time.Since(start), reg.CounterValue("server_queries_total"))

	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not return after the stalled peer was severed")
	}
}

// Frame-level garbage (here a foreign protocol version) is answered with a
// BadFrame error, written inline before the connection closes.
func TestBadFrameAnsweredBeforeClose(t *testing.T) {
	srv, _ := startServer(t)
	nc, br := rawDial(t, srv)
	_ = nc.SetDeadline(time.Now().Add(5 * time.Second))
	// length 2, version 99, type Ping.
	if _, err := nc.Write([]byte{0, 0, 0, 2, 99, byte(server.MsgPing)}); err != nil {
		t.Fatal(err)
	}
	mt, body, err := server.ReadFrame(br)
	if err != nil || mt != server.MsgErr {
		t.Fatalf("garbage frame answered %v, %v; want MsgErr", mt, err)
	}
	em, err := server.DecodeErrMsg(body)
	if err != nil || em.Code != server.CodeBadFrame {
		t.Fatalf("garbage frame answered %+v, %v; want code %v", em, err, server.CodeBadFrame)
	}
	if _, _, err := server.ReadFrame(br); err == nil {
		t.Fatal("connection still open after a BadFrame answer")
	}
}

// Close and Shutdown end a replication long-poll the primary is holding
// instead of waiting its hold out. Under Shutdown the poll is answered as
// a heartbeat (no bytes, fresh DurableLSN) before the connection drains.
func TestCloseEndsHeldReplPoll(t *testing.T) {
	const hold = 5 * time.Second
	for _, stop := range []string{"Close", "Shutdown"} {
		t.Run(stop, func(t *testing.T) {
			srv, store := startPrimary(t, 7)
			c := dialServer(t, srv, vnlclient.Options{DialAttempts: 1})
			if _, err := c.ApplyBatch([]vnlclient.Delta{kvInsert(1, 10)}); err != nil {
				t.Fatal(err)
			}
			head, err := c.PollRepl(0, 0, 0, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			reg := srv.Metrics()
			polls := reg.CounterValue("server_requests_total")
			type result struct {
				seg server.ReplSegment
				err error
			}
			held := make(chan result, 1)
			go func() {
				seg, err := c.PollRepl(head.Epoch, head.DurableLSN, 0, 0, hold)
				held <- result{seg, err}
			}()
			// The poll is in flight once the server has counted it.
			deadline := time.Now().Add(5 * time.Second)
			for reg.CounterValue("server_requests_total") == polls {
				if time.Now().After(deadline) {
					t.Fatal("the held poll never reached the server")
				}
				time.Sleep(time.Millisecond)
			}
			time.Sleep(20 * time.Millisecond) // let it settle into the hold

			start := time.Now()
			if stop == "Close" {
				err = srv.Close()
			} else {
				ctx, cancel := context.WithTimeout(context.Background(), 2*hold)
				err = srv.Shutdown(ctx)
				cancel()
			}
			if err != nil {
				t.Fatalf("%s: %v", stop, err)
			}
			if d := time.Since(start); d > hold/5 {
				t.Fatalf("%s took %v: it waited out the poll's %v hold", stop, d, hold)
			}
			r := <-held
			if stop == "Shutdown" {
				if r.err != nil {
					t.Fatalf("held poll under Shutdown: %v, want a heartbeat", r.err)
				}
				if len(r.seg.Payload) != 0 || r.seg.DurableLSN != head.DurableLSN ||
					r.seg.PrimaryVN != uint64(store.CurrentVN()) {
					t.Fatalf("held poll answered %+v, want a heartbeat at LSN %d", r.seg, head.DurableLSN)
				}
			}
		})
	}
}
