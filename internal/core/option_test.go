package core_test

import (
	"testing"

	"ptrider/internal/core"
)

func TestMatchOnceValidation(t *testing.T) {
	e := latticeEngine(t, 50, 5, 5, core.Config{Capacity: 2})
	e.AddVehiclesUniform(3)
	if _, _, err := e.MatchOnce(core.AlgoNaive, 3, 3, 1); err == nil {
		t.Error("s == d accepted")
	}
	opts, ms, err := e.MatchOnce(core.AlgoDualSide, 0, 7, 1)
	if err != nil {
		t.Fatalf("MatchOnce: %v", err)
	}
	if ms.Options != len(opts) {
		t.Errorf("stats.Options = %d, len = %d", ms.Options, len(opts))
	}
	// MatchOnce must not register a request.
	if got := e.Stats().Requests; got != 0 {
		t.Errorf("MatchOnce registered %d requests", got)
	}
}

func TestRequestStatusStrings(t *testing.T) {
	cases := map[core.RequestStatus]string{
		core.StatusQuoted:    "quoted",
		core.StatusAssigned:  "assigned",
		core.StatusOnboard:   "onboard",
		core.StatusCompleted: "completed",
		core.StatusDeclined:  "declined",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
	if core.AlgoNaive.String() != "naive" || core.AlgoDualSide.String() != "dual-side" {
		t.Error("algorithm names changed")
	}
}

func TestTickValidation(t *testing.T) {
	e := latticeEngine(t, 51, 5, 5, core.Config{Capacity: 2})
	if _, err := e.Tick(-1); err == nil {
		t.Error("negative tick accepted")
	}
	if _, err := e.Tick(0); err != nil {
		t.Errorf("zero tick rejected: %v", err)
	}
}

func TestDeclinedRequestCannotBeChosen(t *testing.T) {
	e := latticeEngine(t, 52, 6, 6, core.Config{Capacity: 2})
	e.AddVehiclesUniform(2)
	rec, err := e.Submit(0, 20, 1)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if err := e.Decline(rec.ID); err != nil {
		t.Fatalf("decline: %v", err)
	}
	if err := e.Choose(rec.ID, 0); err == nil {
		t.Error("choose after decline accepted")
	}
	if err := e.Decline(rec.ID); err == nil {
		t.Error("double decline accepted")
	}
}
