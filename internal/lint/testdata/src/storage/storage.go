// Package storage is a minimal fake of the repo's storage package for the
// storageerr fixtures: a Heap with the point operations whose errors the
// analyzer tracks, and the typed not-found errors.
package storage

import "errors"

// ErrNotFound mirrors storage.ErrNotFound.
var ErrNotFound = errors.New("storage: not found")

// ErrNoSuchTuple mirrors storage.ErrNoSuchTuple, which wraps ErrNotFound.
var ErrNoSuchTuple = ErrNotFound

// RID mirrors storage.RID.
type RID struct{ Page, Slot int }

// Heap mirrors storage.Heap's point-operation surface.
type Heap struct{}

func (h *Heap) Get(r RID) ([]int, error)    { return nil, nil }
func (h *Heap) Update(r RID, t []int) error { return nil }
func (h *Heap) Delete(r RID) error          { return nil }
func (h *Heap) Len() (int, error)           { return 0, nil }
