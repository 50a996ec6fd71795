// Package db is a minimal fake of the repo's db package for the walerr and
// storageerr fixtures: a Table with the point read and mutation methods
// whose errors those analyzers track.
package db

// Table mirrors db.Table's mutation surface.
type Table struct{}

// RID stands in for storage.RID.
type RID struct{ Page, Slot int }

func (t *Table) Get(r RID) ([]int, error)      { return nil, nil }
func (t *Table) Insert(v []int) (RID, error)   { return RID{}, nil }
func (t *Table) Update(r RID, v []int) error   { return nil }
func (t *Table) Delete(r RID) error            { return nil }
func (t *Table) Scan(fn func(RID, []int) bool) {}
