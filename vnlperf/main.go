// Command vnlperf is the repository's benchmark. It builds the serving
// stack (internal/server on loopback TCP, wired as cmd/vnlserver wires it),
// drives one named workload through pkg/vnlclient from a seeded schedule,
// checks every answer against a client-side oracle, and prints each metric
// with its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// is made twice, untraced and then with spans recorded at every layer's
// public seam, and the metrics are the per-layer ones plus the tracing
// overhead. See CATALOGUE.md for every metric and workload.
//
//	vnlperf -workload analyst -seed 1 -seconds 20 -trace 0
//	vnlperf compare old.jsonl new.jsonl   # medians, spreads and a verdict
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/pkg/vnlclient"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is a run's outcome. metrics holds the metrics BENCHMARK.json
// names (reported by every workload); extra holds those that exist only on
// some workloads.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	extra     map[string]metric
	notes     []string
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// corrupt skews every expected SUM by one; the self-test sets it to
	// prove the run then fails its checks.
	corrupt bool
	// buildDir holds the run's data directories and span files.
	buildDir string
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "replica":
			os.Exit(replicaMain(os.Args[2:]))
		}
	}
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: analyst, etl or sharded")
	flag.Int64Var(&o.seed, "seed", 1, "seed for every generated input")
	flag.IntVar(&o.seconds, "seconds", 20, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1: record per-layer spans and report per-layer metrics")
	flag.StringVar(&o.buildDir, "build-dir", ".bench_build", "directory for data files and span dumps")
	flag.Parse()
	o.trace = trace == 1
	sp, err := specFor(o.workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vnlperf:", err)
		os.Exit(2)
	}
	if o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "vnlperf: -seconds must be at least 1")
		os.Exit(2)
	}
	rep, err := run(sp, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vnlperf:", err)
		os.Exit(1)
	}
	printReport(rep, sp, o)
	if !rep.Correct {
		os.Exit(1)
	}
}

func printReport(rep *report, sp spec, o options) {
	for _, n := range rep.notes {
		fmt.Println("#", n)
	}
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-36s %14.4f %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	extra := make([]string, 0, len(rep.extra))
	for n := range rep.extra {
		extra = append(extra, n)
	}
	sort.Strings(extra)
	for _, n := range extra {
		fmt.Printf("%-36s %14.4f %s   (%s only)\n", n, rep.extra[n].Value, rep.extra[n].Unit, sp.name)
	}
	// The workload-specific metrics as JSON, for the comparison tool.
	line, _ := json.Marshal(map[string]any{"workload": sp.name, "seed": o.seed, "trace": o.trace, "extra": rep.extra})
	fmt.Println(string(line))
	line, _ = json.Marshal(rep)
	fmt.Println(string(line))
}

// runState is one built, loaded stack with the inputs that drive it.
type runState struct {
	st  *stack
	gen *batchGen
	o   *oracle
}

// setUp builds and loads a stack, timing the whole of it.
func setUp(sp spec, o options, dir string, tr *tracer) (*runState, time.Duration, error) {
	// Collect what earlier set-ups left behind, so each starts from the
	// same heap.
	runtime.GC()
	t0 := time.Now()
	st, err := build(sp, dir, tr)
	if err != nil {
		return nil, 0, err
	}
	rs := &runState{st: st, gen: newBatchGen(sp, o.seed), o: newOracle(sp.groups)}
	if o.corrupt {
		rs.o.sumSkew = 1
	}
	if err := st.load(rs.gen, rs.o); err != nil {
		_ = st.close()
		return nil, 0, err
	}
	return rs, time.Since(t0), nil
}

// setups is how many times an untraced run builds the stack; setup_s is
// the median.
const setups = 7

func run(sp spec, o options) (*report, error) {
	work := filepath.Join(o.buildDir, "tmp", fmt.Sprintf("%s-%d-%d", sp.name, o.seed, os.Getpid()))
	defer os.RemoveAll(work)

	if !o.trace {
		// Set up several times; setup_s is the median, and the last stack
		// runs the workload.
		// Flush what earlier runs left dirty in the page cache, so their
		// write-back does not land in this run's set-up fsyncs.
		syscall.Sync()
		var took []float64
		var rs *runState
		for i := 0; i < setups; i++ {
			r, d, err := setUp(sp, o, filepath.Join(work, fmt.Sprintf("stack%d", i)), nil)
			if err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			took = append(took, d.Seconds())
			if i < setups-1 {
				if err := r.st.close(); err != nil {
					return nil, fmt.Errorf("tearing down set-up %d: %w", i, err)
				}
				continue
			}
			rs = r
		}
		m, err := measure(rs, sp, o)
		if cerr := rs.st.close(); err == nil && cerr != nil {
			err = fmt.Errorf("tearing down: %w", cerr)
		}
		if err != nil {
			return nil, err
		}
		rep := m.endToEnd(sp)
		rep.Metrics["setup_s"] = metric{median(took), "s"}
		rep.notes = append(rep.notes, fmt.Sprintf("set-ups: %v s", took))
		return rep, nil
	}

	// Traced run: the untraced phase first, on its own stack, for the
	// overhead baseline; then the same inputs with spans recorded. Each
	// phase gets half the run, so a traced run takes as long as an untraced
	// one.
	o.seconds = max(1, o.seconds/2)
	plain, _, err := setUp(sp, o, filepath.Join(work, "plain"), nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	base, err := measure(plain, sp, o)
	if cerr := plain.st.close(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	traced, _, err := setUp(sp, o, filepath.Join(work, "traced"), tr)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	m, err := measure(traced, sp, o)
	if err == nil {
		m.rungs, err = ladder(traced.st)
		if err != nil {
			m.checks = append(m.checks, err.Error())
			err = nil
		}
	}
	if cerr := traced.st.close(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	spans := filepath.Join(o.buildDir, "trace", fmt.Sprintf("%s-seed%d.spans.jsonl", sp.name, o.seed))
	if err := writeSpans(tr, spans); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	rep := m.perLayer(sp, tr, base)
	rep.notes = append(rep.notes, "spans: "+spans)
	return rep, nil
}

// snap is the counters read before and after the timed phase.
type snap struct {
	pool      storage.IOStats
	stores    []obs.Snapshot // maintained stores
	def       obs.Snapshot   // process-wide registry (WAL)
	router    obs.Snapshot
	walBytes  int64
	gcPasses  int
	gcRemoved int
}

func takeSnap(st *stack) snap {
	var s snap
	for _, x := range st.stores() {
		p := x.DB().Pool().Stats()
		s.pool.Hits += p.Hits
		s.pool.Misses += p.Misses
		s.pool.WriteBacks += p.WriteBacks
		s.stores = append(s.stores, x.Metrics().Snapshot())
	}
	s.def = obs.Default().Snapshot()
	if st.routerReg != nil {
		s.router = st.routerReg.Snapshot()
	}
	s.walBytes = st.walBytes()
	s.gcPasses, s.gcRemoved = st.gc.counts()
	return s
}

// sumCounter adds counter name over the snapshots' deltas.
func sumCounter(before, after []obs.Snapshot, name string) int64 {
	var t int64
	for i := range after {
		t += after[i].Counters[name] - before[i].Counters[name]
	}
	return t
}

// measured is one timed phase with everything its metrics need.
type measured struct {
	res           *phaseResult
	before, after snap
	heapInuse     uint64
	liveRows      int64
	heapBytes     int64
	heapTuples    int64
	checks        []string
	rungs         []rung
}

// measure warms the stack up, runs the timed phase, and checks every
// answer afterwards, outside the timed interval.
func measure(rs *runState, sp spec, o options) (*measured, error) {
	st := rs.st
	chk := &checker{}
	warm := readerPlan(sp, o.seed+1_000_003, time.Second)
	if w := runPhase(st, warm, rs.gen, rs.o, chk, time.Second, false); w.failed > 0 {
		return nil, fmt.Errorf("warm-up: %v", w.errs)
	}
	plan := readerPlan(sp, o.seed, time.Duration(o.seconds)*time.Second)
	m := &measured{}
	// Start every phase from a collected heap, so where the Go collector's
	// cycle happens to be at the start does not differ between runs.
	runtime.GC()
	m.before = takeSnap(st)
	st.setTrace(true)
	m.res = runPhase(st, plan, rs.gen, rs.o, chk, time.Duration(o.seconds)*time.Second, true)
	st.setTrace(false)
	m.after = takeSnap(st)
	m.heapBytes, m.heapTuples = st.heapStats()
	m.liveRows, _ = rs.o.total(rs.o.lastVN, nil)

	if err := verify(rs, chk); err != nil {
		return nil, err
	}
	m.checks = chk.errs

	// heap_mb is the system's heap, so drop what the load generator kept
	// for the checks (every read with its rows, the oracle's version
	// history, the live key set) before collecting and reading it.
	chk, rs.o, rs.gen = nil, nil, nil
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.heapInuse = ms.HeapInuse
	return m, nil
}

// verify runs the end-of-run checks: every recorded read against the
// oracle at its VN, COUNT/SUM on the primary, the replica and every shard,
// replica VN parity, and the engine's own invariants.
func verify(rs *runState, chk *checker) error {
	st, o := rs.st, rs.o
	chk.verifyReads(o)
	if err := st.gc.err(); err != nil {
		chk.failf("gc journal: %v", err)
	}
	final := o.lastVN
	switch {
	case st.router != nil:
		base, err := baseSchema(st.sp)
		if err != nil {
			return err
		}
		for i := 0; i < st.router.Shards(); i++ {
			sess, err := st.router.Shard(i).BeginSessionAt(core.VN(final))
			if err != nil {
				return fmt.Errorf("shard %d session at VN %d: %w", i, final, err)
			}
			rows, err := sess.Query(countSQL, nil)
			sess.Close()
			if err != nil {
				return fmt.Errorf("shard %d COUNT/SUM: %w", i, err)
			}
			chk.checkTotal(fmt.Sprintf("shard %d", i), o, final,
				func(k int64) bool { return shardOf(base, k, st.router.Shards()) == i }, rows.Tuples)
		}
		if err := st.router.CheckInvariants(); err != nil {
			chk.failf("router invariants: %v", err)
		}
	default:
		rows, err := st.writer.Query(countSQL, nil)
		if err != nil {
			return fmt.Errorf("primary COUNT/SUM: %w", err)
		}
		chk.checkTotal("primary", o, final, nil, rows.Tuples)
		if err := st.store.CheckInvariants(); err != nil {
			chk.failf("primary invariants: %v", err)
		}
	}
	if st.rep != nil {
		if err := st.awaitReplica(uint64(final), 30*time.Second); err != nil {
			return err
		}
		if got, want := st.rep.replayedVN(), uint64(st.store.CurrentVN()); got != want {
			chk.failf("replica VN %d, primary VN %d", got, want)
		}
		vn, rows, err := replicaTotal(st.rep.addr)
		if err != nil {
			return fmt.Errorf("replica COUNT/SUM: %w", err)
		}
		if vn != final {
			chk.failf("replica serves VN %d, primary VN %d", vn, final)
		}
		chk.checkTotal("replica", o, final, nil, rows)
		if err := st.rep.checkInvariants(); err != nil {
			chk.failf("replica invariants: %v", err)
		}
	}
	return nil
}

// replicaTotal reads COUNT/SUM over the wire from the replica's own
// server, with the VN its session pinned.
func replicaTotal(addr string) (int64, []catalog.Tuple, error) {
	c, err := vnlclient.Dial(addr, vnlclient.Options{ClientName: "vnlperf-check"})
	if err != nil {
		return 0, nil, err
	}
	defer c.Close()
	sess, err := c.Begin()
	if err != nil {
		return 0, nil, err
	}
	defer sess.Close()
	rows, err := sess.Query(countSQL, nil)
	if err != nil {
		return 0, nil, err
	}
	return int64(sess.VN()), rows.Tuples, nil
}
