package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/catalog"
	"repro/pkg/vnlclient"
)

// The one table every workload reads and maintains. g is a fixed function
// of the key (k mod groups), so an aggregate's expected groups follow from
// the live key set; v is the updatable measure; note pads rows to the
// workload's row width.
const (
	tableName = "facts"
	pointSQL  = `SELECT k, g, v FROM facts WHERE k = :k`
	scanSQL   = `SELECT k, v FROM facts WHERE k >= :lo AND k < :hi`
	aggSQL    = `SELECT g, COUNT(*), SUM(v) FROM facts GROUP BY g`
	countSQL  = `SELECT COUNT(*), SUM(v) FROM facts`
)

func createSQL(noteLen int) string {
	return fmt.Sprintf(`CREATE TABLE facts (k INT(8), g INT(8), v INT(8) UPDATABLE, note VARCHAR(%d), UNIQUE KEY(k))`, noteLen)
}

// spec sizes one workload. Every field is fixed per workload name; the
// seed changes only which keys, values and arrival times are drawn.
type spec struct {
	name string
	// Engine.
	n      int // versions per tuple (2 = 2VNL)
	shards int // 0 = single store
	// replica adds a WAL-shipping follower, and the writer waits until it
	// serves each batch.
	replica bool
	// Table.
	rows    int // initial keys 0..rows-1
	noteLen int
	groups  int
	// Reader: sessions arrive open-loop (Poisson, sessionRate per second);
	// inside a session the user issues points, then scans, then aggs, each
	// as soon as the previous answer arrives, except that halfway through
	// the session the user thinks for think.
	sessionRate float64
	points      int
	scans       int
	aggs        int
	think       time.Duration
	scanWidth   int
	// Writer.
	paced      bool          // open loop: a batch due every batchEvery
	batchEvery time.Duration // paced: the period; closed loop: think time
	updates    int
	inserts    int
	deletes    int
	zipfS      float64 // > 1: hot-key skew for updates; 0: uniform keys
	gcEvery    time.Duration
}

// pageBytes and poolPages are the engine's defaults (db.Options zero
// value): 1024 pages of 8 KiB, the 8 MiB buffer pool.
const (
	pageBytes = 8192
	poolPages = 1024
)

func specFor(name string) (spec, error) {
	switch name {
	case "analyst":
		// 12288 rows of 1010 bytes (n=3 extended tuple) fill 1536 pages:
		// 1.5× the pool, so every scan and aggregate misses.
		return spec{
			name: name, n: 3,
			rows: 12288, noteLen: 960, groups: 32,
			sessionRate: 5, points: 20, scans: 1, aggs: 1, scanWidth: 256,
			paced: true, batchEvery: 100 * time.Millisecond, updates: 64,
		}, nil
	case "etl":
		return spec{
			name: name, n: 2, replica: true,
			rows: 4000, noteLen: 16, groups: 16,
			sessionRate: 4, points: 20, think: 150 * time.Millisecond,
			updates: 160, inserts: 20, deletes: 20, zipfS: 1.1,
			gcEvery: 100 * time.Millisecond,
		}, nil
	case "sharded":
		return spec{
			name: name, n: 2, shards: 4,
			rows: 16000, noteLen: 16, groups: 16,
			sessionRate: 12, points: 10, scans: 1, scanWidth: 256,
			batchEvery: 80 * time.Millisecond, updates: 300, inserts: 50, deletes: 50, zipfS: 1.1,
			gcEvery: 100 * time.Millisecond,
		}, nil
	}
	return spec{}, fmt.Errorf("unknown workload %q (want analyst, etl or sharded)", name)
}

// opKind is a reader request class.
type opKind int

const (
	opPoint opKind = iota
	opScan
	opAgg
)

type readOp struct {
	kind   opKind
	k      int64 // point key
	lo, hi int64 // scan range
}

// sessionPlan is one reader session: when it is due (offset from the
// phase start) and the requests it issues.
type sessionPlan struct {
	at  time.Duration
	ops []readOp
}

// readerPlan draws the reader's sessions for a phase of the given length.
// Keys are uniform over the initial key range plus the fresh keys the
// writer may have inserted, so some lookups miss.
func readerPlan(sp spec, seed int64, phase time.Duration) []sessionPlan {
	rng := rand.New(rand.NewSource(seed*7919 + 1))
	keySpace := int64(sp.rows + sp.rows/10)
	var out []sessionPlan
	at := time.Duration(0)
	for {
		at += time.Duration(rng.ExpFloat64() / sp.sessionRate * float64(time.Second))
		if at >= phase {
			return out
		}
		s := sessionPlan{at: at}
		for i := 0; i < sp.points; i++ {
			s.ops = append(s.ops, readOp{kind: opPoint, k: rng.Int63n(keySpace)})
		}
		for i := 0; i < sp.scans; i++ {
			lo := rng.Int63n(keySpace - int64(sp.scanWidth))
			s.ops = append(s.ops, readOp{kind: opScan, lo: lo, hi: lo + int64(sp.scanWidth)})
		}
		for i := 0; i < sp.aggs; i++ {
			s.ops = append(s.ops, readOp{kind: opAgg})
		}
		out = append(out, s)
	}
}

// batchGen draws the writer's delta batches. It tracks the live key set in
// batch order, so the sequence of batches — and the state after each — is
// a function of the seed alone, however many batches a run gets through.
type batchGen struct {
	sp    spec
	rng   *rand.Rand
	zipf  *rand.Zipf
	live  []int64
	pos   map[int64]int
	next  int64
	notes string
}

func newBatchGen(sp spec, seed int64) *batchGen {
	rng := rand.New(rand.NewSource(seed*104729 + 2))
	g := &batchGen{sp: sp, rng: rng, pos: make(map[int64]int), next: int64(sp.rows)}
	if sp.zipfS > 1 {
		g.zipf = rand.NewZipf(rng, sp.zipfS, 1, uint64(sp.rows-1))
	}
	b := make([]byte, sp.noteLen+64)
	for i := range b {
		b[i] = 'a' + byte(rng.Intn(26))
	}
	g.notes = string(b)
	return g
}

func (g *batchGen) row(k, v int64) catalog.Tuple {
	off := int(k % 64)
	return catalog.Tuple{
		catalog.NewInt(k),
		catalog.NewInt(k % int64(g.sp.groups)),
		catalog.NewInt(v),
		catalog.NewString(g.notes[off : off+g.sp.noteLen]),
	}
}

func (g *batchGen) value() int64 { return g.rng.Int63n(1_000_000) }

func (g *batchGen) addLive(k int64) {
	g.pos[k] = len(g.live)
	g.live = append(g.live, k)
}

func (g *batchGen) removeLive(k int64) {
	i, ok := g.pos[k]
	if !ok {
		return
	}
	last := g.live[len(g.live)-1]
	g.live[i] = last
	g.pos[last] = i
	g.live = g.live[:len(g.live)-1]
	delete(g.pos, k)
}

// initial returns the load: every initial key, in batches of at most size.
func (g *batchGen) initial(size int) [][]vnlclient.Delta {
	var out [][]vnlclient.Delta
	for lo := 0; lo < g.sp.rows; lo += size {
		var b []vnlclient.Delta
		for k := int64(lo); k < int64(min(lo+size, g.sp.rows)); k++ {
			b = append(b, vnlclient.Delta{Table: tableName, Op: vnlclient.DeltaInsert, Row: g.row(k, g.value())})
			g.addLive(k)
		}
		out = append(out, b)
	}
	return out
}

// batch returns the next maintenance batch: updates of live keys (hot-key
// skewed when the workload says so, so a key can be touched twice in one
// batch and fold by Tables 2–4), inserts of fresh keys, and deletes of live
// keys, interleaved. An update can still follow a delete of its key in the
// same batch; the server skips it and the oracle predicts the skip.
func (g *batchGen) batch() []vnlclient.Delta {
	total := g.sp.updates + g.sp.inserts + g.sp.deletes
	out := make([]vnlclient.Delta, 0, total)
	ups, ins, dels := g.sp.updates, g.sp.inserts, g.sp.deletes
	for ups+ins+dels > 0 {
		r := g.rng.Intn(ups + ins + dels)
		switch {
		case r < ups:
			ups--
			if len(g.live) == 0 {
				continue
			}
			// Hotness is by position in the live set, so deletes thin the
			// hot keys no faster than the cold ones.
			var i int
			if g.zipf != nil {
				i = int(g.zipf.Uint64() % uint64(len(g.live)))
			} else {
				i = g.rng.Intn(len(g.live))
			}
			k := g.live[i]
			out = append(out, vnlclient.Delta{Table: tableName, Op: vnlclient.DeltaUpdate,
				Key: catalog.Tuple{catalog.NewInt(k)}, Row: g.row(k, g.value())})
		case r < ups+ins:
			ins--
			k := g.next
			g.next++
			g.addLive(k)
			out = append(out, vnlclient.Delta{Table: tableName, Op: vnlclient.DeltaInsert, Row: g.row(k, g.value())})
		default:
			dels--
			if len(g.live) == 0 {
				continue
			}
			k := g.live[g.rng.Intn(len(g.live))]
			g.removeLive(k)
			out = append(out, vnlclient.Delta{Table: tableName, Op: vnlclient.DeltaDelete,
				Key: catalog.Tuple{catalog.NewInt(k)}})
		}
	}
	return out
}
