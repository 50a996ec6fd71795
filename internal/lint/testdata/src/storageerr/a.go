// Package storageerr holds known-bad and known-good storage error handling
// for the storageerr analyzer.
package storageerr

import (
	"db"
	"errors"
	"fmt"
	"storage"
)

// badSkipAny reads every Get error as "key missing": the delta-dropping
// swallow.
func badSkipAny(t *db.Table, r db.RID) (bool, error) {
	v, err := t.Get(r)
	if err != nil { // want "error from db.Table.Get is neither propagated nor tested"
		return false, nil
	}
	return v != nil, nil
}

// badContinue skips faulted tuples in a loop.
func badContinue(h *storage.Heap, rids []storage.RID) int {
	n := 0
	for _, r := range rids {
		_, err := h.Get(r)
		if err != nil { // want "error from storage.Heap.Get is neither propagated nor tested"
			continue
		}
		n++
	}
	return n
}

// badCountOnSuccess branches on a Delete error only to count successes.
func badCountOnSuccess(h *storage.Heap, rids []storage.RID) int {
	n := 0
	for _, r := range rids {
		if err := h.Delete(r); err == nil { // want "error from storage.Heap.Delete falls through unhandled"
			n++
		}
	}
	return n
}

// badSkipNotFoundThenSwallow tests not-found, then swallows the rest.
func badSkipNotFoundThenSwallow(t *db.Table, r db.RID) error {
	_, err := t.Get(r)
	if errors.Is(err, storage.ErrNotFound) {
		return nil
	}
	if err != nil { // want "error from db.Table.Get is neither propagated nor tested"
		return nil
	}
	return nil
}

// badElseSwallow handles success in the body and drops the error in else.
func badElseSwallow(h *storage.Heap, r storage.RID) int {
	if err := h.Update(r, nil); err == nil {
		return 1
	} else { // want "error from storage.Heap.Update is neither propagated nor tested"
		return 0
	}
}

// badLogged prints the fault and carries on.
func badLogged(t *db.Table, r db.RID) {
	if err := t.Delete(r); err != nil { // want "error from db.Table.Delete is neither propagated nor tested"
		fmt.Println(err)
	}
}

// goodSkipNotFound is the rule: skip only not-found, propagate the rest.
func goodSkipNotFound(t *db.Table, r db.RID) (bool, error) {
	v, err := t.Get(r)
	if errors.Is(err, storage.ErrNotFound) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return v != nil, nil
}

// goodCombined folds both tests into one condition.
func goodCombined(h *storage.Heap, r storage.RID) error {
	if err := h.Delete(r); err != nil && !errors.Is(err, storage.ErrNoSuchTuple) {
		return fmt.Errorf("delete %v: %w", r, err)
	}
	return nil
}

// goodNested tests not-found inside the error branch and returns the rest.
func goodNested(t *db.Table, r db.RID) ([]int, error) {
	v, err := t.Get(r)
	if err != nil {
		if errors.Is(err, storage.ErrNoSuchTuple) {
			return nil, nil
		}
		return nil, err
	}
	return v, nil
}

// goodSuccessFirst uses the tuple on success and hands the error on after.
func goodSuccessFirst(t *db.Table, r db.RID) ([]int, error) {
	v, err := t.Get(r)
	if err == nil {
		return v, nil
	}
	if !errors.Is(err, storage.ErrNotFound) {
		return nil, err
	}
	return nil, nil
}

// goodRecorded stores the first fault for the caller.
func goodRecorded(h *storage.Heap, rids []storage.RID) (n int, first error) {
	for _, r := range rids {
		if err := h.Update(r, nil); err != nil {
			first = err
			break
		}
		n++
	}
	return n, first
}

// goodSent hands the fault to a collector.
func goodSent(h *storage.Heap, r storage.RID, errc chan<- error) {
	if err := h.Delete(r); err != nil {
		errc <- err
	}
}

// goodNoBranch returns the error without branching on it.
func goodNoBranch(h *storage.Heap, r storage.RID) error {
	err := h.Update(r, nil)
	return err
}

// goodUntracked ignores methods outside Get/Update/Delete.
func goodUntracked(h *storage.Heap) int {
	n, err := h.Len()
	if err != nil {
		return 0
	}
	return n
}
