// aggregate.go holds the coordinator's cross-city reductions: the
// global request-id striding that merges N city-local id spaces into
// one, and the statistics fold that turns per-city engine panels into
// one total.
package multicity

import (
	"fmt"

	"ptrider/internal/core"
)

// globalID strides a city-local request id into the n-city global id
// space: global = local·n + ci. City-local ids start at 1, so every
// global id is ≥ n and the city index is recoverable by modulo.
func globalID(n, ci int, local core.RequestID) core.RequestID {
	return local*core.RequestID(n) + core.RequestID(ci)
}

// splitGlobalID decodes a global request id into (city index, local
// id). Ids below n (including the negative relay namespace) fail with
// core.ErrNotFound.
func splitGlobalID(n int, id core.RequestID) (int, core.RequestID, error) {
	nn := core.RequestID(n)
	if id < nn {
		return 0, 0, fmt.Errorf("multicity: unknown request %d: %w", id, core.ErrNotFound)
	}
	return int(id % nn), id / nn, nil
}

// statsAggregator folds per-city engine panels into the cross-city
// total. Counters sum; clock, P95 response, tick wall times and shard
// skew are maxima (lockstep cities make the slowest the critical
// path); per-request means are request-weighted, per-trip means
// completed-trip-weighted; the surge panel sums cells and quotes,
// maxes the epoch and worst multiplier, and re-weights the mean
// multiplier by cell count. Zero value is ready to use.
type statsAggregator struct {
	total                core.EngineStats
	requestW, completedW float64
}

// add folds one city's panel into the total.
func (a *statsAggregator) add(st core.EngineStats) {
	t := &a.total
	t.Requests += st.Requests
	t.Assigned += st.Assigned
	t.Declined += st.Declined
	t.Completed += st.Completed
	t.SharedCompleted += st.SharedCompleted
	t.ActiveVehicles += st.ActiveVehicles
	t.CommitStale += st.CommitStale
	t.Reprobes += st.Reprobes
	t.ReprobeCommits += st.ReprobeCommits
	if st.Clock > t.Clock {
		t.Clock = st.Clock
	}
	if st.P95ResponseMs > t.P95ResponseMs {
		t.P95ResponseMs = st.P95ResponseMs
	}

	if st.Surge.Enabled {
		t.Surge.Enabled = true
		t.Surge.Cells += st.Surge.Cells
		t.Surge.ActiveCells += st.Surge.ActiveCells
		t.Surge.SurgedQuotes += st.Surge.SurgedQuotes
		t.Surge.AvgMultiplier += float64(st.Surge.Cells) * st.Surge.AvgMultiplier
		if st.Surge.Epoch > t.Surge.Epoch {
			t.Surge.Epoch = st.Surge.Epoch
		}
		if st.Surge.EpochSeconds > t.Surge.EpochSeconds {
			t.Surge.EpochSeconds = st.Surge.EpochSeconds
		}
		if st.Surge.MaxMultiplier > t.Surge.MaxMultiplier {
			t.Surge.MaxMultiplier = st.Surge.MaxMultiplier
		}
	}

	t.Tick.Workers += st.Tick.Workers
	t.Tick.AvgEvents += st.Tick.AvgEvents
	if st.Tick.Ticks > t.Tick.Ticks {
		t.Tick.Ticks = st.Tick.Ticks
	}
	if st.Tick.LastWallMs > t.Tick.LastWallMs {
		t.Tick.LastWallMs = st.Tick.LastWallMs
	}
	if st.Tick.AvgWallMs > t.Tick.AvgWallMs {
		t.Tick.AvgWallMs = st.Tick.AvgWallMs
	}
	if st.Tick.MaxShardSkewMs > t.Tick.MaxShardSkewMs {
		t.Tick.MaxShardSkewMs = st.Tick.MaxShardSkewMs
	}

	reqs := float64(st.Requests)
	t.AvgResponseMs += reqs * st.AvgResponseMs
	t.AvgOptions += reqs * st.AvgOptions
	t.AvgVerified += reqs * st.AvgVerified
	t.AvgPruned += reqs * st.AvgPruned
	t.AvgCellsScanned += reqs * st.AvgCellsScanned
	t.AvgDistCalls += reqs * st.AvgDistCalls
	a.requestW += reqs

	done := float64(st.Completed)
	t.AvgWaitSeconds += done * st.AvgWaitSeconds
	t.AvgDetourFactor += done * st.AvgDetourFactor
	a.completedW += done
}

// result finalises the weighted means and returns the aggregate.
func (a *statsAggregator) result() core.EngineStats {
	t := a.total
	if a.requestW > 0 {
		t.AvgResponseMs /= a.requestW
		t.AvgOptions /= a.requestW
		t.AvgVerified /= a.requestW
		t.AvgPruned /= a.requestW
		t.AvgCellsScanned /= a.requestW
		t.AvgDistCalls /= a.requestW
	}
	if a.completedW > 0 {
		t.AvgWaitSeconds /= a.completedW
		t.AvgDetourFactor /= a.completedW
	}
	if t.Completed > 0 {
		t.SharingRate = float64(t.SharedCompleted) / float64(t.Completed)
	}
	if t.Surge.Cells > 0 {
		t.Surge.AvgMultiplier /= float64(t.Surge.Cells)
	}
	return t
}
