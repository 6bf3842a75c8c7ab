package core_test

// Tests for the assignment-release primitive (Engine.CancelAssigned,
// the relay two-phase commit's compensation) and the commit-protocol
// effectiveness counters (fleet.CommitStats through Engine.Stats).

import (
	"math/rand"
	"testing"

	"ptrider/internal/core"
	"ptrider/internal/fleet"
	"ptrider/internal/roadnet"
)

// submitWithOptions submits random requests until one quotes options.
func submitWithOptions(t *testing.T, e *core.Engine, seed int64) *core.RequestRecord {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := e.Graph().NumVertices()
	for attempt := 0; attempt < 100; attempt++ {
		s := roadnet.VertexID(rng.Intn(n))
		d := roadnet.VertexID(rng.Intn(n))
		if s == d {
			continue
		}
		rec, err := e.Submit(s, d, 1)
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		if len(rec.Options) > 0 {
			return rec
		}
		_ = e.Decline(rec.ID)
	}
	t.Fatal("no request quoted options")
	return nil
}

func vehiclePending(t *testing.T, e *core.Engine, id fleet.VehicleID) int {
	t.Helper()
	for _, v := range e.VehicleViews(0) {
		if v.ID == id {
			return v.Pending
		}
	}
	t.Fatalf("vehicle %d not in views", id)
	return 0
}

func TestCancelAssignedReleasesReservation(t *testing.T) {
	e := latticeEngine(t, 77, 8, 8, core.Config{Capacity: 4})
	e.AddVehiclesUniform(6)
	rec := submitWithOptions(t, e, 78)
	if err := e.Choose(rec.ID, 0); err != nil {
		t.Fatalf("choose: %v", err)
	}
	veh := rec.Options[0].Vehicle
	if got := vehiclePending(t, e, veh); got != 1 {
		t.Fatalf("vehicle holds %d pending requests after choose, want 1", got)
	}
	before := e.Stats()

	if err := e.CancelAssigned(rec.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	after, err := e.GetRequest(rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if after.Status != core.StatusDeclined {
		t.Fatalf("cancelled record is %v, want declined", after.Status)
	}
	if got := vehiclePending(t, e, veh); got != 0 {
		t.Fatalf("vehicle still holds %d pending requests after cancel", got)
	}
	st := e.Stats()
	if st.Assigned != before.Assigned-1 || st.Declined != before.Declined+1 {
		t.Fatalf("counters after cancel: assigned %d→%d, declined %d→%d",
			before.Assigned, st.Assigned, before.Declined, st.Declined)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Cancelling again — or a merely quoted record — is refused.
	if err := e.CancelAssigned(rec.ID); err == nil {
		t.Fatal("double cancel succeeded")
	}
	quoted := submitWithOptions(t, e, 79)
	if err := e.CancelAssigned(quoted.ID); err == nil {
		t.Fatal("cancel of a quoted record succeeded")
	}
}

func TestCancelAssignedRefusesOnboardRider(t *testing.T) {
	e := latticeEngine(t, 80, 8, 8, core.Config{Capacity: 4, CommitSlack: 0.5})
	e.AddVehiclesUniform(6)
	rec := submitWithOptions(t, e, 81)
	if err := e.Choose(rec.ID, 0); err != nil {
		t.Fatalf("choose: %v", err)
	}
	// Tick until the pickup fires; then the rider is physically in the
	// car and the cancellation must refuse.
	for tick := 0; tick < 4000; tick++ {
		if _, err := e.Tick(1); err != nil {
			t.Fatal(err)
		}
		cur, err := e.GetRequest(rec.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.Status == core.StatusOnboard {
			if err := e.CancelAssigned(rec.ID); err == nil {
				t.Fatal("cancelled an onboard rider")
			}
			cur, err = e.GetRequest(rec.ID)
			if err != nil {
				t.Fatal(err)
			}
			if cur.Status != core.StatusOnboard {
				t.Fatalf("failed cancel changed status to %v", cur.Status)
			}
			return
		}
		if cur.Status == core.StatusCompleted {
			t.Skip("trip completed within one tick; pickup window not observable")
		}
	}
	t.Fatal("pickup never fired")
}

// TestCommitStatsCounters pins the commit-protocol counters: a stale
// candidate with zero slack counts one probe-decline and no re-probe;
// with slack it additionally counts the re-probe and — when a fresh
// candidate stays within the slack — the salvaged commit. Staleness is
// manufactured by quoting under a tight waiting budget and letting the
// fleet roam before choosing (the quoted pick-up distance anchors the
// deadline, so a vehicle that wandered off invalidates it); each
// attempt is probabilistic, so the tests drive attempts until the
// counter moves.
func TestCommitStatsCounters(t *testing.T) {
	t.Run("strict", func(t *testing.T) {
		e := latticeEngine(t, 82, 16, 16, core.Config{Capacity: 4, MaxWaitSeconds: 10})
		e.AddVehiclesUniform(4)
		for attempt := 0; attempt < 40; attempt++ {
			rec := submitWithOptions(t, e, 83+int64(attempt))
			if _, err := e.Tick(180); err != nil {
				t.Fatal(err)
			}
			if err := e.Choose(rec.ID, 0); err != nil {
				st := e.Stats()
				if st.CommitStale == 0 {
					t.Fatalf("failed choose did not count a stale commit: %+v", st)
				}
				if st.Reprobes != 0 || st.ReprobeCommits != 0 {
					t.Fatalf("strict engine re-probed: %d/%d", st.Reprobes, st.ReprobeCommits)
				}
				return
			}
		}
		t.Fatal("no stale commit in 40 roaming attempts")
	})
	t.Run("slack", func(t *testing.T) {
		e := latticeEngine(t, 84, 16, 16, core.Config{Capacity: 4, MaxWaitSeconds: 10, CommitSlack: 100})
		e.AddVehiclesUniform(4)
		for attempt := 0; attempt < 40; attempt++ {
			rec := submitWithOptions(t, e, 85+int64(attempt))
			if _, err := e.Tick(180); err != nil {
				t.Fatal(err)
			}
			err := e.Choose(rec.ID, 0)
			st := e.Stats()
			if st.CommitStale == 0 {
				continue // candidate survived; roam again
			}
			if st.Reprobes != st.CommitStale {
				t.Fatalf("stale commits %d but re-probes %d under slack", st.CommitStale, st.Reprobes)
			}
			if err == nil && st.ReprobeCommits == 0 {
				t.Fatalf("salvaged choose did not count: %+v", st)
			}
			if st.ReprobeCommits > 0 {
				if err != nil {
					t.Fatalf("salvage counted but choose failed: %v", err)
				}
				return
			}
		}
		t.Fatal("no salvaged commit in 40 roaming attempts")
	})
}
