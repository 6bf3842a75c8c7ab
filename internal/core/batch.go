package core

import "fmt"

// RunBatch serves simultaneously issued requests with the paper's
// greedy strategy (§2.5) over any backend: items are decided one at a
// time in batch order, and every quote sees the fleet state the
// commitments before it left. Each maximal run of items without a
// chooser goes to quote as one call, which quotes and declines them
// all: a quote that commits nothing cannot change what the next one
// sees. quote answers one record per item of run (nil for a failed
// one), the first failure, and the index in run of the item it hit, or
// -1 when it hit the whole run (a dead engine, a lost connection).
// Each chooser item is quoted alone through svc.SubmitRequest, with no
// idempotency key, and settled (see Settle) before anything after it
// is quoted. An item whose context is done when its turn comes is
// abandoned unquoted (ErrUnavailable).
//
// It returns one record per spec, in order, nil for a failed item, and
// the first failure: a *BatchItemError numbering the item from the
// batch's start, unless it hit a whole run. RunBatch is the one place
// that numbers a backend's batch items. Unrelated traffic may
// interleave with a batch: the greedy order is a property of the
// batch, not a global freeze.
func RunBatch(svc Service, specs []SubmitSpec, quote func(run []SubmitSpec) (recs []*ServiceRecord, failed int, err error)) ([]*ServiceRecord, error) {
	out := make([]*ServiceRecord, len(specs))
	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	for i := 0; i < len(specs); {
		if err := specs[i].Context().Err(); err != nil {
			fail(&BatchItemError{Index: i, Err: abandoned(err)})
			i++
			continue
		}
		if choose := specs[i].Choose; choose != nil {
			spec := specs[i]
			spec.IdemKey = ""
			rec, err := svc.SubmitRequest(spec)
			if err == nil {
				rec, err = Settle(svc, rec, choose)
			}
			if out[i] = rec; err != nil {
				fail(&BatchItemError{Index: i, Err: err})
			}
			i++
			continue
		}
		end := i + 1
		for end < len(specs) && specs[end].Choose == nil && specs[end].Context().Err() == nil {
			end++
		}
		recs, failed, err := quote(specs[i:end])
		if err != nil && failed >= 0 {
			err = &BatchItemError{Index: i + failed, Err: err}
		}
		if err != nil {
			fail(err)
		}
		copy(out[i:end], recs)
		i = end
	}
	return out, firstErr
}

// Settle ends a just-quoted request the way a batch chooser decides
// it: choose picks an option index and the pick is committed; a nil
// chooser, a pick out of range or a failed commit declines the record
// instead, so nothing is left quoted. It returns the record re-read
// after the decision and the failed commit's error.
func Settle(svc Service, rec *ServiceRecord, choose func([]Option) int) (*ServiceRecord, error) {
	pick := -1
	if choose != nil {
		pick = choose(rec.Options)
	}
	var err error
	if pick < 0 || pick >= len(rec.Options) {
		_ = svc.Decline(rec.ID)
	} else if cerr := svc.Choose(rec.ID, pick); cerr != nil {
		err = fmt.Errorf("choose: %w", cerr)
		_ = svc.Decline(rec.ID) // best effort: the re-read shows what held
	}
	fresh, gerr := svc.GetRequest(rec.ID)
	if gerr != nil {
		return rec, err
	}
	return fresh, err
}

// BatchItemError is a batch's failure and the index of the item it
// hit, counted from the start of the caller's batch. A coordinator
// that splits a batch by city maps a city's index back to the caller's.
type BatchItemError struct {
	Index int
	Err   error
}

func (e *BatchItemError) Error() string { return batchItemPrefix(e.Index) + e.Err.Error() }

func (e *BatchItemError) Unwrap() error { return e.Err }

// batchItemPrefix is what a BatchItemError's message starts with.
func batchItemPrefix(i int) string { return fmt.Sprintf("core: batch item %d: ", i) }
