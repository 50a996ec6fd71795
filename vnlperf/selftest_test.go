package main

import (
	"os"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when a
// run starts the etl replica process.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "replica" {
		os.Exit(replicaMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

// small shrinks a workload so a run takes a few seconds; the structure
// (engine, replica, shards, read and write mix) is unchanged.
func small(t *testing.T, name string) spec {
	t.Helper()
	sp, err := specFor(name)
	if err != nil {
		t.Fatal(err)
	}
	sp.rows = 400
	return sp
}

// A run must fail its checks when an expected value is wrong, and pass
// them when it is right: the checks are live, not decoration.
func TestCorruptedExpectedValueFailsRun(t *testing.T) {
	for _, name := range []string{"analyst", "etl", "sharded"} {
		t.Run(name, func(t *testing.T) {
			sp := small(t, name)
			o := options{workload: name, seed: 7, seconds: 1, buildDir: t.TempDir()}
			rep, err := run(sp, o)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct {
				t.Fatalf("clean run failed its checks: %v", rep.notes)
			}
			o.corrupt = true
			rep, err = run(sp, o)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Correct {
				t.Fatal("a run whose expected SUM is off by one passed its checks")
			}
		})
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4), the
// rule the benchmark's spreads are stated in.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{2, 4}, 1.5, 3, 4.5},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.v)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.v, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestJudge(t *testing.T) {
	old := []float64{10, 10.2, 9.8, 10.1, 9.9}
	cases := []struct {
		name   string
		new    []float64
		spread float64
		want   string
	}{
		{"worse past the bound", []float64{13, 13.2, 12.8, 13.1, 12.9}, 0.02, "REGRESSED"},
		{"within the bound", []float64{10.3, 10.5, 10.1, 10.4, 10.2}, 0.02, "within bound"},
		{"spread wider than the bound", []float64{10.3, 10.5, 10.1, 10.4, 10.2}, 0.3, "unresolved"},
		{"every run better", []float64{5, 5.1, 4.9, 5, 5}, 0.02, "improved (every run)"},
	}
	for _, c := range cases {
		_, om, _ := quartiles(old)
		_, nm, _ := quartiles(c.new)
		wins, pairs := pairWins(old, c.new, true)
		got := judge((nm-om)/om, c.spread, 0.1, true, wins, pairs, old, c.new)
		if len(got) < len(c.want) || got[:len(c.want)] != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
