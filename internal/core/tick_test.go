package core_test

import (
	"errors"
	"strings"
	"testing"

	"ptrider/internal/core"
	"ptrider/internal/fleet"
)

// TestTickClockUnchangedOnStepFailure is the regression test for the
// clock/odometry desync: Tick used to advance the simulated clock
// before fleet.Step ran and left it advanced even when the step failed,
// permanently desynchronising the engine clock from fleet odometry. A
// failing step must leave Clock() exactly where it was.
func TestTickClockUnchangedOnStepFailure(t *testing.T) {
	e := latticeEngine(t, 40, 6, 6, core.Config{Capacity: 2})
	e.AddVehiclesUniform(3)

	if _, err := e.Tick(5); err != nil {
		t.Fatalf("warmup tick: %v", err)
	}
	before := e.Clock()
	if before != 5 {
		t.Fatalf("clock after warmup = %v, want 5", before)
	}

	boom := errors.New("injected fleet failure")
	e.SetVehicleStepFault(func(fleet.VehicleID) error { return boom })
	if _, err := e.Tick(3); !errors.Is(err, boom) {
		t.Fatalf("Tick error = %v, want injected failure", err)
	}
	if got := e.Clock(); got != before {
		t.Fatalf("clock advanced across failed step: %v -> %v", before, got)
	}

	// Partial progress still surfaces its events, but the clock holds.
	e.SetVehicleStepFault(func(id fleet.VehicleID) error {
		if id == 0 {
			return boom
		}
		return nil
	})
	if _, err := e.Tick(2); !errors.Is(err, boom) {
		t.Fatalf("Tick error = %v, want injected failure", err)
	}
	if got := e.Clock(); got != before {
		t.Fatalf("clock advanced across failed step with events: %v -> %v", before, got)
	}

	// Recovery: with the real step restored the clock resumes from
	// where the last successful step left it.
	e.SetVehicleStepFault(nil)
	if _, err := e.Tick(3); err != nil {
		t.Fatalf("recovery tick: %v", err)
	}
	if got := e.Clock(); got != before+3 {
		t.Fatalf("clock after recovery = %v, want %v", got, before+3)
	}
}

// TestNegativeTickIsInvalidArgument pins the error classification the
// HTTP layer relies on: a negative tick is a caller error
// (ErrInvalidArgument), and it leaves the clock untouched.
func TestNegativeTickIsInvalidArgument(t *testing.T) {
	e := latticeEngine(t, 41, 5, 5, core.Config{Capacity: 2})
	before := e.Clock()
	_, err := e.Tick(-1)
	if err == nil {
		t.Fatal("negative tick accepted")
	}
	if !errors.Is(err, core.ErrInvalidArgument) {
		t.Fatalf("negative tick error %v does not wrap ErrInvalidArgument", err)
	}
	if e.Clock() != before {
		t.Fatalf("negative tick moved the clock: %v -> %v", before, e.Clock())
	}
}

// TestTickSurvivesPartialVehicleFailures is the regression test for the
// partial-step abort bug: Fleet.Step used to return on the first
// per-vehicle error, silently freezing every later vehicle for that
// tick while the clock semantics pretended the whole fleet moved or
// none did. With two bad vehicles the tick must now (a) report BOTH
// failures through errors.Join, (b) keep moving every healthy vehicle,
// and (c) hold the clock (a failed step is still a failed step).
func TestTickSurvivesPartialVehicleFailures(t *testing.T) {
	e := latticeEngine(t, 42, 6, 6, core.Config{Capacity: 2})
	e.AddVehiclesUniform(6)

	boom0 := errors.New("vehicle 0 engine fire")
	boom3 := errors.New("vehicle 3 flat tire")
	e.SetVehicleStepFault(func(id fleet.VehicleID) error {
		switch id {
		case 0:
			return boom0
		case 3:
			return boom3
		}
		return nil
	})

	before := e.VehicleViews(0)
	clock0 := e.Clock()
	_, err := e.Tick(30)
	if err == nil {
		t.Fatal("Tick with two faulted vehicles returned nil error")
	}
	// Both causes must be reachable — the first failure no longer
	// shadows the second.
	if !errors.Is(err, boom0) || !errors.Is(err, boom3) {
		t.Fatalf("joined error %v does not contain both vehicle failures", err)
	}
	for _, want := range []string{"vehicle 0", "vehicle 3"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name %q", err, want)
		}
	}
	if got := e.Clock(); got != clock0 {
		t.Fatalf("clock advanced across failed step: %v -> %v", clock0, got)
	}

	after := e.VehicleViews(0)
	if len(after) != len(before) {
		t.Fatalf("vehicle count changed: %d -> %d", len(before), len(after))
	}
	for i := range after {
		moved := after[i].X != before[i].X || after[i].Y != before[i].Y
		faulted := after[i].ID == 0 || after[i].ID == 3
		if faulted && moved {
			t.Fatalf("faulted vehicle %d moved: (%v,%v) -> (%v,%v)",
				after[i].ID, before[i].X, before[i].Y, after[i].X, after[i].Y)
		}
		if !faulted && !moved {
			t.Fatalf("healthy vehicle %d frozen by other vehicles' failures", after[i].ID)
		}
	}

	// Clearing the fault restores normal ticking.
	e.SetVehicleStepFault(nil)
	if _, err := e.Tick(30); err != nil {
		t.Fatalf("tick after clearing fault: %v", err)
	}
	if got := e.Clock(); got != clock0+30 {
		t.Fatalf("clock after recovery = %v, want %v", got, clock0+30)
	}
}
