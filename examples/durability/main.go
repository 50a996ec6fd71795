// Durability: §7's "no before-image logging", live.
//
// The warehouse journals its maintenance transactions to a write-ahead log
// under the redo-only policy — no before-images, because every 2VNL tuple
// already carries its own pre-update version. The example then simulates a
// crash in the middle of a maintenance transaction (the commit record never
// reaches the log) and recovers: committed batches survive intact, the
// in-flight batch vanishes entirely, and the recovered warehouse keeps
// serving sessions and accepting new batches. Finally a checkpoint compacts
// the log to the live data.
//
//	go run ./examples/durability
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/wal"
)

func main() {
	dir, err := os.MkdirTemp("", "vnl-durability-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	logPath := filepath.Join(dir, "warehouse.log")

	// --- life before the crash -----------------------------------------
	journal, err := wal.Create(logPath, wal.PolicyRedoOnly)
	if err != nil {
		log.Fatal(err)
	}
	store, err := core.Open(db.Open(db.Options{}), core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	store.SetJournal(journal)
	if _, err := store.CreateTableSQL(`CREATE TABLE Sales (
		city VARCHAR(20), total INT(8) UPDATABLE, UNIQUE KEY(city))`); err != nil {
		log.Fatal(err)
	}

	batch := func(fn func(m *core.Maintenance) error) {
		m, err := store.BeginMaintenance()
		if err != nil {
			log.Fatal(err)
		}
		if err := fn(m); err != nil {
			log.Fatal(err)
		}
		if err := m.Commit(); err != nil {
			log.Fatal(err)
		}
	}
	batch(func(m *core.Maintenance) error {
		_, err := m.Exec(`INSERT INTO Sales VALUES ('San Jose', 10000), ('Berkeley', 12000)`, nil)
		return err
	})
	batch(func(m *core.Maintenance) error {
		_, err := m.Exec(`UPDATE Sales SET total = total + 500 WHERE city = 'San Jose'`, nil)
		return err
	})
	fmt.Printf("two batches committed (currentVN %d); log: %d records, %d bytes, 0 before-images\n",
		store.CurrentVN(), journal.Stats().Records, journal.Stats().Bytes)

	// --- the crash ------------------------------------------------------
	// A third batch starts and writes changes, but the process dies before
	// commit: we abandon the store without committing and close the log
	// (its buffered records may or may not have hit the disk — recovery
	// handles both).
	m, err := store.BeginMaintenance()
	if err != nil {
		log.Fatal(err)
	}
	if _, err := m.Exec(`UPDATE Sales SET total = 0`, nil); err != nil {
		log.Fatal(err)
	}
	if err := journal.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n*** crash: maintenance transaction 4 was mid-flight, no commit record ***")

	// --- recovery ---------------------------------------------------------
	recovered, _, stats, err := wal.Recover(logPath, db.Options{}, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrecovered: %d tables, %d committed transactions replayed, %d in-flight skipped (currentVN %d)\n",
		stats.TablesCreated, stats.CommittedTxns, stats.SkippedTxns, recovered.CurrentVN())
	sess := recovered.BeginSession()
	rows, err := sess.Query(`SELECT city, total FROM Sales ORDER BY city`, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(rows)
	sess.Close()

	// --- life after recovery ---------------------------------------------
	// Recover cut any torn tail, so appended records directly follow the
	// recovered history.
	appendLog, err := wal.Append(logPath, wal.PolicyRedoOnly)
	if err != nil {
		log.Fatal(err)
	}
	recovered.SetJournal(appendLog)
	m2, err := recovered.BeginMaintenance()
	if err != nil {
		log.Fatal(err)
	}
	if err := m2.Insert("Sales", catalog.Tuple{catalog.NewString("Novato"), catalog.NewInt(3000)}); err != nil {
		log.Fatal(err)
	}
	if err := m2.Commit(); err != nil {
		log.Fatal(err)
	}
	if err := appendLog.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("new batch committed after recovery (currentVN %d)\n", recovered.CurrentVN())

	// --- checkpoint -------------------------------------------------------
	full, _ := os.Stat(logPath)
	st, err := wal.Checkpoint(recovered, logPath)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checkpoint: log compacted from %d to %d bytes (%d records of live data)\n",
		full.Size(), st.Bytes, st.Records)
	final, _, _, err := wal.Recover(logPath, db.Options{}, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	sess = final.BeginSession()
	defer sess.Close()
	rows, err = sess.Query(`SELECT COUNT(*), SUM(total) FROM Sales`, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered from the checkpoint: %s cities, %s total sales — intact\n",
		rows.Tuples[0][0], rows.Tuples[0][1])
}
