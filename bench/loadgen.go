package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ptrider/internal/core"
	"ptrider/internal/sim"
)

// routeLog is the client's own record of every call one server's
// /v1/requests route served: the wall time of each, in seconds. The
// post-run check holds it against the server's request histogram.
type routeLog struct {
	mu      sync.Mutex
	seconds []float64
}

func (r *routeLog) observe(d time.Duration) {
	r.mu.Lock()
	r.seconds = append(r.seconds, d.Seconds())
	r.mu.Unlock()
}

const requestsRoute = "/v1/requests"

// conn is one client connection: a private HTTP client that keeps a
// single keep-alive socket to the server, so workers = connections.
type conn struct {
	hc   *http.Client
	base string
	log  *routeLog // nil: the server's histogram is not being checked
	buf  bytes.Buffer
	src  splitmix
	rng  *rand.Rand
	opts []core.Option // scratch for the choice model
}

func newConn(base string, log *routeLog) *conn {
	tr := &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, IdleConnTimeout: time.Minute}
	c := &conn{hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, base: base, log: log}
	c.rng = rand.New(&c.src)
	return c
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole response. The returned body
// aliases the connection's buffer and is valid until the next call.
func (c *conn) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	sent := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if route, _, _ := strings.Cut(path, "?"); c.log != nil && route == requestsRoute {
		c.log.observe(time.Since(sent))
	}
	return resp.StatusCode, c.buf.Bytes(), err
}

// splitmix is a rand.Source64 that can be re-seeded for free, so every
// rider draws its preferences from (run seed, rider index) no matter
// which connection serves it.
type splitmix struct{ s uint64 }

func (m *splitmix) Seed(seed int64) { m.s = uint64(seed) }
func (m *splitmix) Uint64() uint64 {
	m.s += 0x9e3779b97f4a7c15
	z := m.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
func (m *splitmix) Int63() int64 { return int64(m.Uint64() >> 1) }

// optionWire and recordWire are the parts of the /v1 request view the
// client reads.
type optionWire struct {
	Vehicle      int32   `json:"vehicle"`
	PickupMeters float64 `json:"pickup_meters"`
	Price        float64 `json:"price"`
}

type recordWire struct {
	ID      int64           `json:"id"`
	Options []optionWire    `json:"options"`
	Relay   json.RawMessage `json:"relay"`
}

type batchWire struct {
	Requests []*recordWire   `json:"requests"`
	Error    json.RawMessage `json:"error"`
}

// validSkyline checks Definition 4 on a returned option set: pick-up
// ascending and price strictly descending, so no option dominates
// another.
func validSkyline(opts []optionWire) bool {
	for i := 1; i < len(opts); i++ {
		if !(opts[i].PickupMeters > opts[i-1].PickupMeters && opts[i].Price < opts[i-1].Price) {
			return false
		}
	}
	return true
}

// policy is what a rider does with the options.
type policy uint8

const (
	declineAll    policy = iota // every quote is declined: fleet state stays put
	utilityChoice               // sim.UtilityChoice picks; no pick or a stale pick declines
)

// sample is the measured outcome of one rider.
type sample struct {
	kind    riderKind
	due     time.Duration // offsets from the phase start
	start   time.Duration
	options time.Duration // when the option set(s) had been read
	end     time.Duration // when the rider's last call had been answered
	answer  time.Duration // wall time of POST …/choice, 0 when none was sent
	slept   bool          // the worker was idle until the rider was due
	backlog int           // riders due but not started when this one started
	quoted  int           // requests the system answered with a record
	chose   bool
	stale   bool
	failed  bool
}

// submitLatency is what the rider waits for options: from the moment
// the request was due when it had to queue for a connection, so a stall
// is charged to everyone queued behind it; from the moment it was sent
// when its connection was idle and merely woke late, because that
// lateness is the generator's own and is reported as such.
func (s *sample) submitLatency() time.Duration {
	if s.slept {
		return s.options - s.start
	}
	return s.options - s.due
}

// submitService is send → options returned: the wall time of the
// call itself, which is also what the server's request histogram sees.
func (s *sample) submitService() time.Duration { return s.options - s.start }

// client drives riders over its connections and tallies the lifecycle
// outcomes the server's counters must agree with.
type client struct {
	seed  int64
	tr    *tracer
	fails atomic.Int64
	// firstErr keeps the first failure for the report.
	errOnce  sync.Once
	firstErr error

	quoted, assigned, declined atomic.Int64
}

func (cl *client) fail(err error) {
	cl.fails.Add(1)
	cl.errOnce.Do(func() { cl.firstErr = err })
}

func idPath(id int64, verb string) string {
	return "/v1/requests/" + strconv.FormatInt(id, 10) + "/" + verb
}

// decline sends POST …/decline and tallies it.
func (cl *client) decline(c *conn, id int64) bool {
	code, body, err := c.do(http.MethodPost, idPath(id, "decline"), nil)
	if err != nil || code != http.StatusOK {
		cl.fail(fmt.Errorf("decline %d: status %d %s: %v", id, code, body, err))
		return false
	}
	cl.declined.Add(1)
	return true
}

// serve performs one rider's whole interaction on c under pol and
// returns its sample; idx is the rider's index in its stream, t0 the
// phase start.
func (cl *client) serve(c *conn, r *rider, idx int, t0 time.Time, pol policy) (s sample) {
	defer func() { s.end = time.Since(t0) }()
	s = sample{kind: r.Kind, due: r.Due}
	sent := time.Now()
	s.start = sent.Sub(t0)
	code, body, err := c.do(http.MethodPost, "/v1/requests", r.Body)
	got := time.Now()
	s.options = got.Sub(t0)
	submitSpan := cl.tr.record(uint64(idx+1), 0, "POST /v1/requests", sent, got)
	if err != nil || code != http.StatusOK {
		cl.fail(fmt.Errorf("submit: status %d %s: %v", code, body, err))
		s.failed = true
		return s
	}

	var answerSpan uint64
	if r.Kind == kindBatch {
		var bw batchWire
		if err := json.Unmarshal(body, &bw); err != nil || len(bw.Error) > 0 || len(bw.Requests) != len(r.Trips) {
			cl.fail(fmt.Errorf("batch reply: %v %s", err, bw.Error))
			s.failed = true
			return s
		}
		for _, rec := range bw.Requests {
			if rec == nil || !validSkyline(rec.Options) {
				cl.fail(fmt.Errorf("batch reply: missing record or invalid skyline"))
				s.failed = true
				continue
			}
			// A batch call carries no choices: the engine declines each
			// quote itself, so there is nothing left for the riders to send.
			s.quoted++
			cl.quoted.Add(1)
			cl.declined.Add(1)
		}
	} else {
		var rec recordWire
		if err := json.Unmarshal(body, &rec); err != nil || !validSkyline(rec.Options) {
			cl.fail(fmt.Errorf("submit reply: invalid skyline or body: %v", err))
			s.failed = true
			return s
		}
		s.quoted = 1
		if r.Kind == kindSingle {
			cl.quoted.Add(1)
		}
		pick := -1
		if pol == utilityChoice {
			c.opts = c.opts[:0]
			for _, o := range rec.Options {
				c.opts = append(c.opts, core.Option{PickupDist: o.PickupMeters, Price: o.Price})
			}
			c.src.Seed(cl.seed*1_000_003 + int64(idx))
			pick = sim.UtilityChoice{}.Choose(c.opts, c.rng)
		}
		if pick >= 0 {
			a0 := time.Now()
			code, body, err := c.do(http.MethodPost, idPath(rec.ID, "choice"), fmt.Appendf(nil, `{"option":%d}`, pick))
			a1 := time.Now()
			s.answer = a1.Sub(a0)
			answerSpan = cl.tr.record(uint64(idx+1), 0, "POST /v1/requests/{id}/choice", a0, a1)
			switch {
			case err == nil && code == http.StatusOK:
				s.chose = true
				if r.Kind == kindSingle {
					cl.assigned.Add(1)
				}
			case err == nil && code == http.StatusUnprocessableEntity:
				// The quoted candidate went stale between quote and
				// choice: an expected outcome under concurrency.
				s.stale = true
			default:
				cl.fail(fmt.Errorf("choice %d: status %d %s: %v", rec.ID, code, body, err))
				s.failed = true
			}
		}
		if !s.chose && !s.failed {
			if r.Kind == kindRelay {
				// A relay trip's decline releases both legs; the cities'
				// own counters see legs, not trips, so it is not tallied.
				// A stale relay choice has already aborted the trip.
				if s.stale {
					return s
				}
				if code, body, err := c.do(http.MethodPost, idPath(rec.ID, "decline"), nil); err != nil || code != http.StatusOK {
					cl.fail(fmt.Errorf("relay decline %d: status %d %s: %v", rec.ID, code, body, err))
					s.failed = true
				}
			} else if !cl.decline(c, rec.ID) {
				s.failed = true
			}
		}
	}
	if cl.tr != nil {
		rider := cl.tr.record(uint64(idx+1), 0, "rider", t0.Add(r.Due), time.Now())
		cl.tr.setParent(rider, submitSpan, answerSpan)
	}
	return s
}

// openLoop sends riders on their schedule over the given connections,
// whatever the system does: a worker takes the next rider in due order,
// sleeps until it is due if that lies ahead, and otherwise starts at
// once — so a rider that found every connection busy is started late
// and its wait counts, from its due time, against the system.
func (cl *client) openLoop(ctx context.Context, conns []*conn, riders []rider, pol policy) []sample {
	out := make([]sample, len(riders))
	var next atomic.Int64
	t0 := time.Now()
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(riders) {
					return
				}
				r := &riders[i]
				slept := false
				if wait := r.Due - time.Since(t0); wait > 0 {
					slept = true
					select {
					case <-time.After(wait):
					case <-ctx.Done():
						return
					}
				}
				now := time.Since(t0)
				// Riders are taken in due order: those due by now with a
				// later index are waiting for a connection.
				due := i + 1
				for due < len(riders) && riders[due].Due <= now {
					due++
				}
				out[i] = cl.serve(c, r, i, t0, pol)
				out[i].slept, out[i].backlog = slept, due-1-i
			}
		}()
	}
	wg.Wait()
	n := min(int(next.Load()), len(riders))
	return out[:n]
}

// closedLoop sends every trip once as a quote+decline cycle, nproc
// clients each taking the next unsent trip when their last cycle
// completed. The amount of work is fixed, not the time: a deployment's
// caches are then as warm at the n-th cycle of one run as of another,
// however fast either ran. It returns the cycles' samples in the order
// sent (due = start, there being no schedule).
func (cl *client) closedLoop(ctx context.Context, conns []*conn, trips []rider) []sample {
	out := make([]sample, len(trips))
	var next atomic.Int64
	t0 := time.Now()
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(trips) {
					return
				}
				out[i] = cl.serve(c, &trips[i], i, t0, declineAll)
				out[i].due = out[i].start
			}
		}()
	}
	wg.Wait()
	return out[:min(int(next.Load()), len(trips))]
}

// ticker advances simulated time over its own connection: POST
// /v1/ticks on a fixed schedule, and optionally a listing of assigned
// requests twice a second, as an operator's dashboard would.
type ticker struct {
	every   time.Duration
	seconds float64 // simulated seconds per tick
	listing bool

	ticks []time.Duration // wall time of each POST /v1/ticks
}

func (tk *ticker) run(ctx context.Context, cl *client, c *conn) {
	body := fmt.Appendf(nil, `{"seconds":%g}`, tk.seconds)
	listEvery := max(int(500*time.Millisecond/tk.every), 1)
	t0 := time.Now()
	for k := 0; ; k++ {
		if wait := time.Duration(k)*tk.every - time.Since(t0); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return
			}
		} else if ctx.Err() != nil {
			return
		}
		a := time.Now()
		code, resp, err := c.do(http.MethodPost, "/v1/ticks", body)
		b := time.Now()
		if err != nil || code != http.StatusOK {
			cl.fail(fmt.Errorf("tick: status %d %s: %v", code, resp, err))
			return
		}
		tk.ticks = append(tk.ticks, b.Sub(a))
		cl.tr.record(0, 0, "POST /v1/ticks", a, b)
		if tk.listing && k%listEvery == 0 {
			code, resp, err := c.do(http.MethodGet, "/v1/requests?status=assigned&limit=50", nil)
			if err != nil || code != http.StatusOK {
				cl.fail(fmt.Errorf("listing: status %d %s: %v", code, resp, err))
				return
			}
		}
	}
}

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
