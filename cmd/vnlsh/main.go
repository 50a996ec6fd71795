// Command vnlsh is an interactive shell over the 2VNL warehouse engine: it
// creates versioned tables, runs reader sessions, drives maintenance
// transactions, and shows the §4.1 query rewrite, all from a prompt.
//
//	$ vnlsh
//	vnl> CREATE TABLE kv (k INT(8), v INT(8) UPDATABLE, UNIQUE KEY(k))
//	vnl> \maint
//	vnl> INSERT INTO kv VALUES (1, 10), (2, 20)
//	vnl> \commit
//	vnl> \session
//	vnl> SELECT k, v FROM kv
//	vnl> \rewrite SELECT SUM(v) FROM kv
//	vnl> \help
//
// With -wal the shell journals every maintenance transaction to the given
// log file; if the file already holds a log, the warehouse state is
// recovered from it at startup.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/shell"
	"repro/internal/wal"
)

func main() {
	n := flag.Int("n", 2, "number of simultaneously available versions (2 = the paper's 2VNL)")
	walPath := flag.String("wal", "", "write-ahead log file (recovered from if it exists)")
	flag.Parse()
	store, err := openStore(*n, *walPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vnlsh:", err)
		os.Exit(1)
	}
	fmt.Printf("2VNL shell (n=%d versions). \\help for help.\n", *n)
	sh := shell.New(store, os.Stdout)
	defer sh.Close()
	in := bufio.NewScanner(os.Stdin)
	fmt.Print("vnl> ")
	for in.Scan() {
		if sh.Execute(in.Text()) {
			return
		}
		fmt.Print("vnl> ")
	}
}

func openStore(n int, walPath string) (*core.Store, error) {
	if walPath == "" {
		return core.Open(db.Open(db.Options{}), core.Options{N: n})
	}
	var store *core.Store
	if st, err := os.Stat(walPath); err == nil && st.Size() > 0 {
		recovered, _, stats, err := wal.Recover(walPath, db.Options{}, core.Options{N: n})
		if err != nil {
			return nil, fmt.Errorf("recovering %s: %w", walPath, err)
		}
		fmt.Printf("recovered %d tables, %d committed transactions (VN %d) from %s\n",
			stats.TablesCreated, stats.CommittedTxns, stats.HighestVN, walPath)
		store = recovered
		// Append to the existing log: Recover cut any torn tail, so new
		// records directly follow the recovered history. (A production
		// system would checkpoint; here we keep appending.)
		log, err := wal.Append(walPath, wal.PolicyRedoOnly)
		if err != nil {
			return nil, err
		}
		store.SetJournal(log)
		return store, nil
	}
	log, err := wal.Create(walPath, wal.PolicyRedoOnly)
	if err != nil {
		return nil, err
	}
	store, err = core.Open(db.Open(db.Options{}), core.Options{N: n})
	if err != nil {
		return nil, err
	}
	store.SetJournal(log)
	return store, nil
}
