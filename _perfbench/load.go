package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"sapla/internal/server"
)

// maxClients bounds client goroutines and connections: the host has two
// cores, and the server shares them with the load generator.
const maxClients = 2

// harness is one in-process server listening on loopback, plus the HTTP
// client that drives it.
type harness struct {
	srv    *server.Server
	base   string
	client *http.Client
}

// withServer builds a server from cfg, serves it on a loopback port and
// runs fn against it. Then it shuts the server down, draining in-flight
// requests and closing the WAL, and waits for Serve to return.
func withServer(ctx context.Context, cfg server.Config, fn func(h *harness) error) error {
	srv, err := server.New(cfg)
	if err != nil {
		return fmt.Errorf("start server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return errors.Join(fmt.Errorf("listen: %w", err), srv.Shutdown(ctx))
	}
	h := &harness{
		srv:  srv,
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: maxClients,
			MaxConnsPerHost:     maxClients,
			DisableCompression:  true,
		}},
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	err = fn(h)
	if serr := srv.Shutdown(ctx); serr != nil && err == nil {
		err = fmt.Errorf("shutdown: %w", serr)
	}
	// Closing the listener also ends a Serve that had not yet started when
	// Shutdown ran; after Shutdown it is already closed.
	_ = ln.Close()
	if serr := <-served; serr != nil && !errors.Is(serr, http.ErrServerClosed) && !errors.Is(serr, net.ErrClosed) && err == nil {
		err = fmt.Errorf("serve: %w", serr)
	}
	h.client.CloseIdleConnections()
	return err
}

// do sends one request and reads the whole response body.
func (h *harness) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, h.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := h.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// opKind names the four served operations the benchmark sends.
type opKind uint8

const (
	opKNN opKind = iota
	opBatch
	opIngest
	opDelete
)

func (k opKind) String() string {
	return [...]string{"knn", "batch", "ingest", "delete"}[k]
}

// okStatus is the status code of a successful request of kind k.
func (k opKind) okStatus() int {
	if k == opIngest {
		return http.StatusCreated
	}
	return http.StatusOK
}

// ok reports whether the request succeeded.
func (r *record) ok() bool { return r.err == nil && r.status == r.kind.okStatus() }

// record is one sent request. Times are offsets from the phase start; due
// equals start in a closed loop.
type record struct {
	kind   opKind
	arg    int   // query index (knn), batch index (batch)
	ids    []int // IDs ingested or deleted
	due    time.Duration
	start  time.Duration
	end    time.Duration
	status int
	body   []byte
	err    error
}

// latency is the request's time from when it was due to its response.
func (r *record) latency() time.Duration { return r.end - r.due }

// phase is the outcome of one measured load phase.
type phase struct {
	t0      time.Time
	elapsed time.Duration
	scale   float64 // what its latencies are multiplied by; see calib.go
	recs    []record
}

// send issues op and fills its timing and response fields.
func (h *harness) send(ctx context.Context, t0 time.Time, r *record, method, path string, body []byte) {
	r.start = time.Since(t0)
	r.status, r.body, r.err = h.do(ctx, method, path, body)
	r.end = time.Since(t0)
}

// closedLoop runs clients goroutines, each sending its next request only
// after the previous one completed, until d has elapsed since t0 or, when
// ops > 0, each has sent ops requests. next builds client c's i-th request
// and sends it through send.
func closedLoop(ctx context.Context, t0 time.Time, clients int, d time.Duration, ops int, next func(ctx context.Context, t0 time.Time, c, i int) record) phase {
	per := make([][]record, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; (ops == 0 || i < ops) && time.Since(t0) < d && ctx.Err() == nil; i++ {
				per[c] = append(per[c], next(ctx, t0, c, i))
			}
		}(c)
	}
	wg.Wait()
	p := phase{t0: t0, elapsed: time.Since(t0)}
	for _, rs := range per {
		p.recs = append(p.recs, rs...)
	}
	return p
}

// scheduled is one open-loop request and the offset at which it is due.
type scheduled struct {
	due  time.Duration
	kind opKind
	arg  int
}

// openLoop sends every scheduled request at its due time after t0, whether
// or not earlier requests have completed, from one worker per lane: lane
// picks the worker of a request. A request that finds its worker busy
// waits, and its latency counts from its due time, so a stall is charged to
// every request it delays.
func openLoop(ctx context.Context, t0 time.Time, workers int, lane func(scheduled) int, sched []scheduled, exec func(ctx context.Context, t0 time.Time, s scheduled) record) phase {
	work := make([]chan scheduled, workers)
	per := make([][]record, workers)
	var wg sync.WaitGroup
	for c := 0; c < workers; c++ {
		work[c] = make(chan scheduled, len(sched)) // sized to the number of sends: the dispatcher never blocks
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for s := range work[c] {
				r := exec(ctx, t0, s)
				r.due = s.due
				per[c] = append(per[c], r)
			}
		}(c)
	}
	for _, s := range sched {
		if wait := s.due - time.Since(t0); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			break
		}
		work[lane(s)] <- s
	}
	for _, ch := range work {
		close(ch)
	}
	wg.Wait()
	p := phase{t0: t0, elapsed: time.Since(t0)}
	for _, rs := range per {
		p.recs = append(p.recs, rs...)
	}
	return p
}
