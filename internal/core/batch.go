package core

import "fmt"

// RunBatch serves simultaneously issued requests with the paper's
// greedy strategy (§2.5) over any backend: items are decided one at a
// time in batch order, and every quote sees the fleet state the
// commitments before it left. Each maximal run of items without a
// chooser goes to quote as one call, which quotes and declines them
// all: a quote that commits nothing cannot change what the next one
// sees. quote answers one record per item of run (nil for a failed
// one) and the first failure, naming its item as the batch counts it
// from first, run[0]'s index. Each chooser item is quoted alone
// through svc.SubmitRequest, with no idempotency key, and settled (see
// Settle) before anything after it is quoted. An item whose context is
// done when its turn comes is abandoned unquoted (ErrUnavailable).
//
// It returns one record per spec, in order, nil for a failed item, and
// the first failure, numbered "core: batch item i". Unrelated traffic
// may interleave with a batch: the greedy order is a property of the
// batch, not a global freeze.
func RunBatch(svc Service, specs []SubmitSpec, quote func(first int, run []SubmitSpec) ([]*ServiceRecord, error)) ([]*ServiceRecord, error) {
	out := make([]*ServiceRecord, len(specs))
	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	for i := 0; i < len(specs); {
		if err := specs[i].Context().Err(); err != nil {
			fail(batchItemErr(i, abandoned(err)))
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
				fail(batchItemErr(i, err))
			}
			i++
			continue
		}
		end := i + 1
		for end < len(specs) && specs[end].Choose == nil && specs[end].Context().Err() == nil {
			end++
		}
		recs, err := quote(i, specs[i:end])
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
// after the decision, with its quoted options kept (a finished record
// is archived without their schedules), and the failed commit's error.
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
	fresh.Options = rec.Options
	return fresh, err
}

// batchItemErr numbers a batch item's failure.
func batchItemErr(i int, err error) error {
	return fmt.Errorf("core: batch item %d: %w", i, err)
}
