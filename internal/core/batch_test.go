package core_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"ptrider/internal/core"
	"ptrider/internal/roadnet"
)

// recordingService is a core.Service that logs every verb RunBatch
// calls, naming an item by its S (tests set S to the item's index).
// Verbs RunBatch never calls stay nil and would panic.
type recordingService struct {
	core.Service
	log        []string
	idemKeys   []string
	recs       map[core.RequestID]core.ServiceRecord
	submitErr  error // fails every SubmitRequest
	chooseErr  error // fails every Choose
	quoteFails []roadnet.VertexID
}

func newRecordingService() *recordingService {
	return &recordingService{recs: map[core.RequestID]core.ServiceRecord{}}
}

func (f *recordingService) logf(format string, args ...any) {
	f.log = append(f.log, fmt.Sprintf(format, args...))
}

func (f *recordingService) SubmitRequest(spec core.SubmitSpec) (*core.ServiceRecord, error) {
	f.logf("submit %d", spec.S)
	f.idemKeys = append(f.idemKeys, spec.IdemKey)
	if f.submitErr != nil {
		return nil, f.submitErr
	}
	rec := core.ServiceRecord{RequestRecord: core.RequestRecord{
		ID: core.RequestID(len(f.recs) + 1), S: spec.S, D: spec.D, Status: core.StatusQuoted, Chosen: -1,
		Options: []core.Option{{Vehicle: 1, Price: 10}, {Vehicle: 2, Price: 20}},
	}}
	f.recs[rec.ID] = rec
	return &rec, nil
}

func (f *recordingService) Choose(id core.RequestID, opt int) error {
	rec := f.recs[id]
	f.logf("choose %d option %d", rec.S, opt)
	if f.chooseErr != nil {
		return f.chooseErr
	}
	rec.Status, rec.Chosen = core.StatusAssigned, opt
	f.recs[id] = rec
	return nil
}

func (f *recordingService) Decline(id core.RequestID) error {
	rec := f.recs[id]
	f.logf("decline %d", rec.S)
	rec.Status = core.StatusDeclined
	f.recs[id] = rec
	return nil
}

func (f *recordingService) GetRequest(id core.RequestID) (*core.ServiceRecord, error) {
	rec := f.recs[id]
	f.logf("get %d", rec.S)
	return &rec, nil
}

// quote is the backend's quote-only wave: it logs the run's items and
// answers each item declined, but for one whose S is in quoteFails,
// which fails with boom.
func (f *recordingService) quote(run []core.SubmitSpec) ([]*core.ServiceRecord, int, error) {
	items := make([]string, len(run))
	out := make([]*core.ServiceRecord, len(run))
	failed, err := -1, error(nil)
	for k, spec := range run {
		items[k] = fmt.Sprint(spec.S)
		if slices.Contains(f.quoteFails, spec.S) {
			if err == nil {
				failed, err = k, errBoom
			}
			continue
		}
		out[k] = &core.ServiceRecord{RequestRecord: core.RequestRecord{S: spec.S, Status: core.StatusDeclined}}
	}
	f.logf("quote items %s", strings.Join(items, ","))
	return out, failed, err
}

var errBoom = errors.New("boom")

// pick chooses option opt of every skyline (-1 declines).
func pick(opt int) func([]core.Option) int {
	return func([]core.Option) int { return opt }
}

// batchSpecs builds one spec per chooser, S the item's index; a nil
// chooser is a quote-only item.
func batchSpecs(ctx context.Context, choosers ...func([]core.Option) int) []core.SubmitSpec {
	specs := make([]core.SubmitSpec, len(choosers))
	for i, ch := range choosers {
		specs[i] = core.SubmitSpec{S: roadnet.VertexID(i), D: 99, Riders: 1, Choose: ch, IdemKey: "retry-key", Ctx: ctx}
	}
	return specs
}

func sameLog(t *testing.T, got, want []string) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Fatalf("call order:\n  got  %q\n  want %q", got, want)
	}
}

// TestRunBatch pins the one §2.5 batch loop over a recording backend: one
// quote per chooser-free run, each chooser quoted alone without its
// idempotency key and settled before anything after it is quoted,
// errors numbered as the whole batch counts items, runs whose context
// is done abandoned unquoted, and a failed commit ending declined.
func TestRunBatch(t *testing.T) {
	t.Run("order", func(t *testing.T) {
		f := newRecordingService()
		specs := batchSpecs(context.Background(), nil, nil, pick(1), nil, pick(-1), pick(0), nil)
		recs, err := core.RunBatch(f, specs, f.quote)
		if err != nil {
			t.Fatalf("batch: %v", err)
		}
		sameLog(t, f.log, []string{
			"quote items 0,1",
			"submit 2", "choose 2 option 1", "get 2",
			"quote items 3",
			"submit 4", "decline 4", "get 4",
			"submit 5", "choose 5 option 0", "get 5",
			"quote items 6",
		})
		if !slices.Equal(f.idemKeys, []string{"", "", ""}) {
			t.Fatalf("chooser items submitted with idempotency keys %q", f.idemKeys)
		}
		for i, want := range []core.RequestStatus{core.StatusDeclined, core.StatusDeclined, core.StatusAssigned,
			core.StatusDeclined, core.StatusDeclined, core.StatusAssigned, core.StatusDeclined} {
			if recs[i] == nil || recs[i].S != roadnet.VertexID(i) || recs[i].Status != want {
				t.Fatalf("item %d: %+v, want status %v", i, recs[i], want)
			}
		}
		if len(recs[2].Options) != 2 || recs[2].Chosen != 1 {
			t.Fatalf("settled item lost its quoted options or choice: %+v", recs[2])
		}
	})

	t.Run("numbering", func(t *testing.T) {
		f := newRecordingService()
		boom := errors.New("boom")
		specs := batchSpecs(context.Background(), nil, pick(0), nil, nil, pick(0))
		calls := 0
		quote := func(run []core.SubmitSpec) ([]*core.ServiceRecord, int, error) {
			if calls++; calls == 2 {
				f.submitErr = boom // the chooser after the second run fails
			}
			return f.quote(run)
		}
		recs, err := core.RunBatch(f, specs, quote)
		sameLog(t, f.log, []string{
			"quote items 0",
			"submit 1", "choose 1 option 0", "get 1",
			"quote items 2,3",
			"submit 4",
		})
		if !errors.Is(err, boom) || !strings.HasPrefix(err.Error(), "core: batch item 4: ") {
			t.Fatalf("error %v, want item 4's numbered from the batch start", err)
		}
		if recs[4] != nil || recs[3] == nil {
			t.Fatalf("records %v", recs)
		}

		// A quote reports its failed item by its index in the run;
		// RunBatch numbers it from the batch start.
		f = newRecordingService()
		f.quoteFails = []roadnet.VertexID{3}
		recs, err = core.RunBatch(f, specs, f.quote)
		var be *core.BatchItemError
		if !errors.As(err, &be) || be.Index != 3 || !errors.Is(err, errBoom) ||
			err.Error() != "core: batch item 3: boom" {
			t.Fatalf("error %v, want item 3's numbered from the batch start", err)
		}
		if recs[3] != nil || recs[2] == nil {
			t.Fatalf("records %v", recs)
		}
	})

	t.Run("abandoned run", func(t *testing.T) {
		f := newRecordingService()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		specs := batchSpecs(ctx, func([]core.Option) int { cancel(); return 0 }, nil, nil, pick(0))
		recs, err := core.RunBatch(f, specs, f.quote)
		sameLog(t, f.log, []string{"submit 0", "choose 0 option 0", "get 0"})
		if !errors.Is(err, core.ErrUnavailable) || !errors.Is(err, context.Canceled) ||
			!strings.HasPrefix(err.Error(), "core: batch item 1: ") {
			t.Fatalf("error %v, want item 1 abandoned", err)
		}
		if recs[0] == nil || recs[0].Status != core.StatusAssigned || recs[1] != nil || recs[2] != nil || recs[3] != nil {
			t.Fatalf("records %v", recs)
		}

		// A done item inside a run cuts it; the items around it are
		// quoted.
		f = newRecordingService()
		specs = batchSpecs(context.Background(), nil, nil, nil)
		specs[1].Ctx = ctx
		if _, err := core.RunBatch(f, specs, f.quote); !errors.Is(err, core.ErrUnavailable) {
			t.Fatalf("error %v, want item 1 abandoned", err)
		}
		sameLog(t, f.log, []string{"quote items 0", "quote items 2"})
	})

	t.Run("failed choose", func(t *testing.T) {
		f := newRecordingService()
		f.chooseErr = errors.New("stale candidate")
		specs := batchSpecs(context.Background(), nil, pick(1), nil)
		recs, err := core.RunBatch(f, specs, f.quote)
		sameLog(t, f.log, []string{
			"quote items 0",
			"submit 1", "choose 1 option 1", "decline 1", "get 1",
			"quote items 2",
		})
		if !errors.Is(err, f.chooseErr) || err.Error() != "core: batch item 1: choose: stale candidate" {
			t.Fatalf("error %v", err)
		}
		if recs[1] == nil || recs[1].Status != core.StatusDeclined || len(recs[1].Options) != 2 {
			t.Fatalf("failed chooser %+v, want declined with its quoted options", recs[1])
		}
	})
}
