// errors.go holds the typed errors that cross the Service boundary and
// the one table that classifies them for transport: the /v1 surface
// and the shard's /rpc verbs both emit ClassifyError's payload, and the
// shard client turns a received payload back into the typed error with
// ErrorPayload.Err — so errors.Is answers the same against a remote
// shard and an in-process engine.
package core

import (
	"errors"
	"fmt"
	"strings"
)

// Typed service errors, matchable with errors.Is across every backend.
var (
	// ErrInvalidArgument marks errors caused by invalid caller input —
	// a negative tick, for example — as opposed to internal engine
	// failures.
	ErrInvalidArgument = errors.New("invalid argument")
	// ErrNotFound marks lookups of requests, vehicles or relay trips
	// that do not exist.
	ErrNotFound = errors.New("not found")
	// ErrAlreadyChosen marks a Choose of a request that is already
	// committed (assigned, onboard or completed) — the double-submit a
	// client retry produces.
	ErrAlreadyChosen = errors.New("already chosen")
	// ErrCrossCity matches the rejection of a trip whose origin and
	// destination fall in different cities (relay disabled).
	ErrCrossCity = errors.New("cross-city trip not supported")
	// ErrNoCity matches the rejection of a coordinate outside every
	// city's service region.
	ErrNoCity = errors.New("no city serves this location")
	// ErrUnknownCity matches lookups of a city name the backend does
	// not own.
	ErrUnknownCity = errors.New("unknown city")
	// ErrUnavailable marks a backend (a remote city shard, typically)
	// that could not be reached or did not answer in time. The request
	// may or may not have taken effect — callers that mutated state
	// must reconcile by re-reading it once the backend returns.
	ErrUnavailable = errors.New("backend unavailable")
)

// CrossCityError reports a rejected cross-city trip with the two cities
// involved. errors.Is(err, ErrCrossCity) matches it.
type CrossCityError struct {
	Origin, Dest string
}

func (e *CrossCityError) Error() string {
	return fmt.Sprintf("cross-city trip %s → %s not supported", e.Origin, e.Dest)
}

// Is makes errors.Is(err, ErrCrossCity) match.
func (e *CrossCityError) Is(target error) bool { return target == ErrCrossCity }

// errorTable is the error → (HTTP status, envelope code) classification,
// tried in order.
var errorTable = []struct {
	err    error
	status int
	code   string
}{
	{ErrCrossCity, 422, "cross_city"},
	{ErrAlreadyChosen, 409, "already_chosen"},
	{ErrUnknownCity, 404, "unknown_city"},
	{ErrNotFound, 404, "not_found"},
	{ErrNoCity, 422, "no_city"},
	{ErrInvalidArgument, 400, "invalid_argument"},
	{ErrUnavailable, 503, "unavailable"},
}

// ErrorPayload is the inner object of the structured error envelope
// {"error":{"code","message",...}} every HTTP surface emits.
type ErrorPayload struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// Origin and Dest carry the city pair of a cross_city rejection.
	Origin string `json:"origin,omitempty"`
	Dest   string `json:"dest,omitempty"`
	// Item is the index of the batch item a batch answer's error hit,
	// counted from the start of the posted batch (see BatchItemError).
	Item *int `json:"item,omitempty"`
}

// ClassifyError maps err onto (HTTP status, payload). An error matching
// no sentinel lands on the caller's fallback status, coded "internal"
// for 500 and "unprocessable" — a business-rule rejection — otherwise.
func ClassifyError(err error, fallback int) (int, ErrorPayload) {
	p := ErrorPayload{Message: err.Error()}
	if be := (*BatchItemError)(nil); errors.As(err, &be) {
		item := be.Index
		p.Item = &item
	}
	for _, row := range errorTable {
		if errors.Is(err, row.err) {
			p.Code = row.code
			if cce := (*CrossCityError)(nil); errors.As(err, &cce) {
				p.Origin, p.Dest = cce.Origin, cce.Dest
			}
			return row.status, p
		}
	}
	p.Code = "unprocessable"
	if fallback == 500 {
		p.Code = "internal"
	}
	return fallback, p
}

// Err is ClassifyError's inverse: the typed error a received payload
// stands for. Codes outside the table stay opaque errors, and a payload
// naming a batch item is a *BatchItemError around the rest.
func (p ErrorPayload) Err() error {
	if p.Item != nil {
		inner := p
		inner.Item = nil
		inner.Message = strings.TrimPrefix(p.Message, batchItemPrefix(*p.Item))
		return &BatchItemError{Index: *p.Item, Err: inner.Err()}
	}
	if p.Code == "cross_city" && (p.Origin != "" || p.Dest != "") {
		return &CrossCityError{Origin: p.Origin, Dest: p.Dest}
	}
	for _, row := range errorTable {
		if p.Code == row.code {
			return fmt.Errorf("%s: %w", p.Message, row.err)
		}
	}
	return errors.New(p.Message)
}
