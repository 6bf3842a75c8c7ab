package core_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"ptrider/internal/core"
)

// TestErrorTableRoundTrip sends every typed Service error through
// ClassifyError and back through ErrorPayload.Err — the trip a shard
// error makes to reach a gateway caller — and checks errors.Is still
// matches on the far side.
func TestErrorTableRoundTrip(t *testing.T) {
	cases := []struct {
		err        error
		wantStatus int
		wantCode   string
		is         error
	}{
		{&core.CrossCityError{Origin: "east", Dest: "west"}, 422, "cross_city", core.ErrCrossCity},
		{fmt.Errorf("x: %w", core.ErrCrossCity), 422, "cross_city", core.ErrCrossCity},
		{fmt.Errorf("x: %w", core.ErrAlreadyChosen), 409, "already_chosen", core.ErrAlreadyChosen},
		{fmt.Errorf("x: %w", core.ErrUnknownCity), 404, "unknown_city", core.ErrUnknownCity},
		{fmt.Errorf("x: %w", core.ErrNotFound), 404, "not_found", core.ErrNotFound},
		{fmt.Errorf("x: %w", core.ErrNoCity), 422, "no_city", core.ErrNoCity},
		{fmt.Errorf("x: %w", core.ErrInvalidArgument), 400, "invalid_argument", core.ErrInvalidArgument},
		{fmt.Errorf("x: %w", core.ErrUnavailable), 503, "unavailable", core.ErrUnavailable},
	}
	for _, c := range cases {
		status, p := core.ClassifyError(c.err, 422)
		if status != c.wantStatus || p.Code != c.wantCode {
			t.Errorf("ClassifyError(%v) = (%d, %q), want (%d, %q)", c.err, status, p.Code, c.wantStatus, c.wantCode)
		}
		if back := p.Err(); !errors.Is(back, c.is) {
			t.Errorf("%+v decodes to %v, which does not match %v", p, back, c.is)
		}
	}

	// The cross-city envelope reconstructs the typed city pair.
	_, p := core.ClassifyError(fmt.Errorf("wrapped: %w", &core.CrossCityError{Origin: "east", Dest: "west"}), 422)
	var cce *core.CrossCityError
	if back := p.Err(); !errors.As(back, &cce) || cce.Origin != "east" || cce.Dest != "west" {
		t.Errorf("cross-city pair lost in round trip: %v", back)
	}

	// Untyped errors take the caller's fallback and decode opaque.
	plain := errors.New("start and destination coincide")
	if status, p := core.ClassifyError(plain, 422); status != 422 || p.Code != "unprocessable" {
		t.Errorf("untyped error at 422 = (%d, %q)", status, p.Code)
	}
	status, p := core.ClassifyError(plain, 500)
	if status != 500 || p.Code != "internal" {
		t.Errorf("untyped error at 500 = (%d, %q)", status, p.Code)
	}
	if back := p.Err(); back == nil || errors.Is(back, core.ErrNotFound) || errors.Is(back, core.ErrInvalidArgument) {
		t.Errorf("generic code decoded to a typed error: %v", back)
	}

	// A batch item's failure carries its index, and decodes to a
	// BatchItemError around the same typed error, numbered once.
	item := &core.BatchItemError{Index: 2, Err: fmt.Errorf("x: %w", core.ErrNotFound)}
	status, p = core.ClassifyError(fmt.Errorf("multicity: east: %w", item), 422)
	if status != 404 || p.Item == nil || *p.Item != 2 {
		t.Errorf("batch item error classified as (%d, %+v), want 404 with item 2", status, p)
	}
	_, p = core.ClassifyError(item, 422)
	var be *core.BatchItemError
	if back := p.Err(); !errors.As(back, &be) || be.Index != 2 || !errors.Is(back, core.ErrNotFound) ||
		!strings.HasPrefix(back.Error(), item.Error()) || strings.Count(back.Error(), "batch item") != 1 {
		t.Errorf("batch item error decoded to %v, want %v", back, item)
	}
}
