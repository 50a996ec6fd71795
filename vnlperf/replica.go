package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/pkg/vnlclient"
)

// The etl workload's WAL-shipping replica runs in a process of its own, as
// `vnlserver -primary` runs it, so its replay's CPU and Go collector do not
// share a runtime with the primary and the load generator. The benchmark
// binary starts itself as
//
//	vnlperf replica -primary ADDR -dir DIR -n N [-trace-t0 NS]
//
// and the two talk over the child's stdin and stdout, one line at a time:
//
//	child → parent   "addr A"      serving on A (first line)
//	                 "vn V"        the replayed VN moved to V
//	                 "err MSG"     the replication stream failed
//	                 "reply JSON"  the answer to a command
//	parent → child   "trace on", "trace off", "check" (engine invariants),
//	                 "stop" (shut down; the reply carries the spans)
//
// The child also stops when its stdin closes, so it cannot outlive the
// benchmark.

// stopReply is the child's answer to "stop".
type stopReply struct {
	Err        string `json:"err"`
	Spans      []span `json:"spans"`
	Fsyncs     int64  `json:"fsyncs"`
	WriteBytes int64  `json:"write_bytes"`
}

// replicaMain is the child process.
func replicaMain(args []string) int {
	fl := flag.NewFlagSet("replica", flag.ContinueOnError)
	primary := fl.String("primary", "", "address of the primary to tail")
	dir := fl.String("dir", "", "directory for the local WAL copy")
	n := fl.Int("n", 2, "versions per tuple; must match the primary")
	t0 := fl.Int64("trace-t0", 0, "record spans, timed from this Unix time in ns (0: untraced)")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	out := &lineWriter{w: bufio.NewWriter(os.Stdout)}
	var tr *tracer
	if *t0 != 0 {
		tr = newTracer()
		tr.t0 = time.Unix(0, *t0)
	}
	fs := stackFS(tr)
	rep, err := repl.Open(repl.Options{
		FS:    fs,
		Path:  filepath.Join(*dir, "replica.wal"),
		Store: core.Options{N: *n, Metrics: obs.NewRegistry()},
	})
	if err != nil {
		out.send("err %v", err)
		return 1
	}
	c, err := vnlclient.Dial(*primary, vnlclient.Options{ClientName: "vnlperf-replica"})
	if err != nil {
		_ = rep.Close()
		out.send("err dialing primary: %v", err)
		return 1
	}
	var src repl.SegmentSource = repl.NewWireSource(c)
	if tr != nil {
		src = &traceSource{SegmentSource: src, tr: tr, ingest: -1}
	}
	rep.Start(src)
	cfg := serverConfig()
	cfg.Backend = server.NewCoreBackend(rep.Store())
	cfg.Replica = rep
	srv := server.New(cfg)
	if err := srv.Start(); err != nil {
		rep.Stop(src)
		_ = rep.Close()
		out.send("err %v", err)
		return 1
	}
	out.send("addr %s", srv.Addr())

	// Report each newly published VN, or the stream's failure.
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last uint64
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := rep.Err(); err != nil {
				out.send("err %v", err)
				return
			}
			if vn := rep.ReplayedVN(); vn != last {
				last = vn
				out.send("vn %d", vn)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	in := bufio.NewScanner(os.Stdin)
	for in.Scan() && in.Text() != "stop" {
		switch in.Text() {
		case "trace on":
			tr.setActive(true)
		case "trace off":
			tr.setActive(false)
		case "check":
			msg := ""
			if err := rep.Store().CheckInvariants(); err != nil {
				msg = err.Error()
			}
			out.reply(msg)
		}
	}
	close(done)
	wg.Wait()
	errs := []error{srv.Close()}
	rep.Stop(src)
	errs = append(errs, rep.Close())
	var r stopReply
	if err := errors.Join(errs...); err != nil {
		r.Err = err.Error()
	}
	if tr != nil {
		r.Spans = tr.all()
		r.Fsyncs, r.WriteBytes = tr.fsyncs.Load(), tr.writeBytes.Load()
	}
	out.reply(r)
	return 0
}

// lineWriter serialises the child's lines to the parent.
type lineWriter struct {
	mu sync.Mutex
	w  *bufio.Writer
}

func (l *lineWriter) send(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	fmt.Fprintf(l.w, format+"\n", args...)
	_ = l.w.Flush()
}

func (l *lineWriter) reply(v any) {
	b, _ := json.Marshal(v)
	l.send("reply %s", b)
}

// replicaProc is the parent's handle on the replica process.
type replicaProc struct {
	cmd     *exec.Cmd
	in      io.WriteCloser
	addr    string
	replies chan string
	done    chan struct{} // closed when the child's stdout ends

	mu       sync.Mutex
	replayed uint64
	err      error
	changed  chan struct{} // closed and replaced on every change
}

// startReplica starts the replica process tailing primary and waits until
// it serves.
func startReplica(primary, dir string, n int, tr *tracer) (*replicaProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"replica", "-primary", primary, "-dir", dir, "-n", strconv.Itoa(n)}
	if tr != nil {
		args = append(args, "-trace-t0", strconv.FormatInt(tr.t0.UnixNano(), 10))
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &replicaProc{cmd: cmd, in: in, replies: make(chan string, 1), done: make(chan struct{}), changed: make(chan struct{})}
	rd := bufio.NewReader(stdout)
	first, err := rd.ReadString('\n')
	if addr, ok := strings.CutPrefix(strings.TrimSpace(first), "addr "); err == nil && ok {
		p.addr = addr
	} else {
		_ = in.Close()
		_ = cmd.Wait()
		return nil, fmt.Errorf("replica process: %q %v", strings.TrimSpace(first), err)
	}
	go p.read(rd)
	return p, nil
}

// read handles the child's lines until its stdout ends.
func (p *replicaProc) read(rd *bufio.Reader) {
	defer close(p.done)
	for {
		line, err := rd.ReadString('\n')
		if err != nil {
			p.note(0, errors.New("replica process ended"))
			return
		}
		kind, arg, _ := strings.Cut(strings.TrimSuffix(line, "\n"), " ")
		switch kind {
		case "vn":
			vn, _ := strconv.ParseUint(arg, 10, 64)
			p.note(vn, nil)
		case "err":
			p.note(0, errors.New(arg))
		case "reply":
			p.replies <- arg
		}
	}
}

// note records a newly replayed VN or the stream's first error, and wakes
// every waiter.
func (p *replicaProc) note(vn uint64, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err != nil {
		if p.err != nil {
			return
		}
		p.err = err
	} else {
		p.replayed = vn
	}
	close(p.changed)
	p.changed = make(chan struct{})
}

// await waits until the replica has replayed and published vn.
func (p *replicaProc) await(vn uint64, limit time.Duration) error {
	timer := time.NewTimer(limit)
	defer timer.Stop()
	for {
		p.mu.Lock()
		cur, err, ch := p.replayed, p.err, p.changed
		p.mu.Unlock()
		if cur >= vn {
			return nil
		}
		if err != nil {
			return fmt.Errorf("replica at VN %d: %w", cur, err)
		}
		select {
		case <-ch:
		case <-timer.C:
			return fmt.Errorf("replica stuck at VN %d, want %d", cur, vn)
		}
	}
}

func (p *replicaProc) replayedVN() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.replayed
}

// command sends cmd and returns the child's reply.
func (p *replicaProc) command(cmd string, limit time.Duration) (string, error) {
	if _, err := fmt.Fprintln(p.in, cmd); err != nil {
		return "", fmt.Errorf("replica process: %w", err)
	}
	select {
	case r := <-p.replies:
		return r, nil
	case <-p.done:
		// The child may have replied and exited; the reply comes first.
		select {
		case r := <-p.replies:
			return r, nil
		default:
			return "", errors.New("replica process ended")
		}
	case <-time.After(limit):
		return "", fmt.Errorf("replica process: no reply to %q", cmd)
	}
}

func (p *replicaProc) setTrace(on bool) {
	if on {
		fmt.Fprintln(p.in, "trace on")
	} else {
		fmt.Fprintln(p.in, "trace off")
	}
}

// checkInvariants runs the replica engine's own invariant checks.
func (p *replicaProc) checkInvariants() error {
	r, err := p.command("check", 30*time.Second)
	if err != nil {
		return err
	}
	var msg string
	if err := json.Unmarshal([]byte(r), &msg); err != nil {
		return err
	}
	if msg != "" {
		return errors.New(msg)
	}
	return nil
}

// stop shuts the child down and waits for it to exit. The spans it
// recorded join tr's.
func (p *replicaProc) stop(tr *tracer) error {
	r, err := p.command("stop", 30*time.Second)
	if err != nil {
		_ = p.cmd.Process.Kill()
	}
	_ = p.in.Close()
	<-p.done
	werr := p.cmd.Wait()
	if err != nil {
		return err
	}
	var rep stopReply
	if err := json.Unmarshal([]byte(r), &rep); err != nil {
		return err
	}
	tr.merge(rep.Spans, rep.Fsyncs, rep.WriteBytes)
	if rep.Err != "" {
		return fmt.Errorf("replica process: %s", rep.Err)
	}
	return werr
}
