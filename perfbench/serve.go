package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"causalfl/internal/serve"
)

// Serving-session limits.
const (
	bootTimeout     = 15 * time.Second // child answers /healthz
	settleTimeout   = 60 * time.Second // server processes every accepted batch
	shutdownTimeout = 20 * time.Second // child exits after SIGINT
	// maxBehind aborts an open-loop phase once the generator is this far
	// behind its schedule: more sending would prove nothing.
	maxBehind = 500 * time.Millisecond
	// satWindow is how many accepted ticks the saturation phase keeps
	// waiting for their verdicts, well under serve's default queue of 64.
	satWindow = 8
	// satMaxRate bounds how many bodies a saturation phase encodes ahead,
	// in ticks per second of the phase.
	satMaxRate = 300
	// statsEvery is the traced run's stats-endpoint polling period.
	statsEvery = 100 * time.Millisecond
)

// child is a running `causalfl serve` process. Each of its two clients
// holds at most one connection: ingest carries the load and every control
// call, sub carries the verdict long-poll.
type child struct {
	cmd    *exec.Cmd
	base   string
	snaps  string
	ingest *http.Client
	sub    *http.Client
	exited chan struct{}
	err    error // cmd.Wait's result, valid once exited is closed
}

func oneConnClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}
}

// startChild boots the serve binary on a free loopback port with a fresh
// snapshot directory under dir and waits for it to answer /healthz.
func startChild(bin, dir string) (*child, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("pick port: %w", err)
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		return nil, fmt.Errorf("pick port: %w", err)
	}
	logf, err := os.Create(filepath.Join(dir, "serve.log"))
	if err != nil {
		return nil, fmt.Errorf("serve log: %w", err)
	}
	c := &child{
		base:   "http://" + addr,
		snaps:  filepath.Join(dir, "snapshots"),
		ingest: oneConnClient(),
		sub:    oneConnClient(),
		exited: make(chan struct{}),
	}
	c.cmd = exec.Command(bin, "serve", "-addr", addr, "-snapshot-dir", c.snaps)
	c.cmd.Stdout, c.cmd.Stderr = logf, logf
	if err := c.cmd.Start(); err != nil {
		_ = logf.Close() // nothing was written
		return nil, fmt.Errorf("start serve: %w", err)
	}
	go func() {
		c.err = c.cmd.Wait()
		_ = logf.Close() // the log is diagnostic only
		close(c.exited)
	}()
	deadline := time.Now().Add(bootTimeout)
	for {
		code, _, err := c.call(context.Background(), c.ingest, http.MethodGet, "/healthz", nil)
		if err == nil && code == http.StatusOK {
			return c, nil
		}
		select {
		case <-c.exited:
			return nil, fmt.Errorf("serve exited during boot: %v (see %s)", c.err, logf.Name())
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			c.kill()
			return nil, fmt.Errorf("serve did not answer /healthz within %v", bootTimeout)
		}
	}
}

// call performs one request and returns the status and body.
func (c *child) call(ctx context.Context, cl *http.Client, method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := cl.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	return resp.StatusCode, blob, err
}

// kill stops the child unconditionally and waits for it.
func (c *child) kill() {
	select {
	case <-c.exited:
	default:
		_ = c.cmd.Process.Kill() // it may have exited meanwhile
		<-c.exited
	}
}

// shutdown sends SIGINT and waits for a clean exit; it returns the child's
// peak RSS in MB. A child still running after shutdownTimeout is killed and
// reported as a hang. Every long-poll must already be cancelled.
func (c *child) shutdown() (float64, error) {
	if err := c.cmd.Process.Signal(os.Interrupt); err != nil {
		c.kill()
		return 0, fmt.Errorf("signal serve: %w", err)
	}
	select {
	case <-c.exited:
	case <-time.After(shutdownTimeout):
		c.kill()
		return 0, fmt.Errorf("serve did not exit within %v of SIGINT", shutdownTimeout)
	}
	if c.err != nil {
		return 0, fmt.Errorf("serve exited uncleanly: %w", c.err)
	}
	ru, ok := c.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, fmt.Errorf("no rusage for serve")
	}
	return float64(ru.Maxrss) / 1024, nil // Maxrss is in KiB on Linux
}

// stats reads the server-wide stats endpoint.
func (c *child) stats(ctx context.Context) (serve.ServerStats, error) {
	var st serve.ServerStats
	code, blob, err := c.call(ctx, c.ingest, http.MethodGet, "/v1/stats", nil)
	if err != nil {
		return st, err
	}
	if code != http.StatusOK {
		return st, fmt.Errorf("stats: status %d", code)
	}
	return st, json.Unmarshal(blob, &st)
}

// op is one scheduled ingest of the tenant's k-th tick. Times are offsets
// from the session epoch.
type op struct {
	k        int
	due, ack time.Duration
	late     time.Duration // generator lateness: woke after due
	status   int
}

// received is one verdict as the subscriber got it.
type received struct {
	sv serve.SeqVerdict
	at time.Duration
}

// serving is one open-loop session against a child.
type serving struct {
	c     *child
	in    *inputs
	epoch time.Time
	next  int // the next tick to post
	ops   []op
	// pollStats samples queue lengths during phases (traced run only).
	pollStats bool
	queueLens []float64

	mu     sync.Mutex
	got    []received
	subErr error
	// notify is signalled, without blocking, after the subscriber appends
	// verdicts.
	notify chan struct{}
}

// newServing creates the tenant on the child.
func newServing(ctx context.Context, c *child, in *inputs) (*serving, error) {
	blob, err := json.Marshal(map[string]any{"config": in.Tenant, "model": json.RawMessage(in.ModelJSON)})
	if err != nil {
		return nil, err
	}
	code, resp, err := c.call(ctx, c.ingest, http.MethodPut, "/v1/tenants/"+tenantName, blob)
	if err != nil {
		return nil, fmt.Errorf("create tenant: %w", err)
	}
	if code != http.StatusCreated {
		return nil, fmt.Errorf("create tenant: status %d: %s", code, resp)
	}
	return &serving{c: c, in: in, epoch: time.Now(), notify: make(chan struct{}, 1)}, nil
}

// subscribe long-polls the tenant's verdicts until ctx is cancelled. A
// truncated response means verdicts were lost to the server's log ring
// before the subscriber read them, and stops the subscriber with an error.
func (s *serving) subscribe(ctx context.Context) {
	path := "/v1/tenants/" + tenantName + "/verdicts?wait=1&since="
	var since uint64
	for ctx.Err() == nil {
		code, blob, err := s.c.call(ctx, s.c.sub, http.MethodGet, fmt.Sprint(path, since), nil)
		at := time.Since(s.epoch)
		if ctx.Err() != nil {
			return
		}
		var resp struct {
			Verdicts  []serve.SeqVerdict `json:"verdicts"`
			Truncated bool               `json:"truncated"`
		}
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("verdicts: status %d", code)
		}
		if err == nil {
			err = json.Unmarshal(blob, &resp)
		}
		if err == nil && resp.Truncated {
			err = fmt.Errorf("verdicts after seq %d truncated", since)
		}
		s.mu.Lock()
		if err != nil {
			s.subErr = err
			s.mu.Unlock()
			return
		}
		for _, sv := range resp.Verdicts {
			s.got = append(s.got, received{sv: sv, at: at})
			since = sv.Seq
		}
		s.mu.Unlock()
		select {
		case s.notify <- struct{}{}:
		default:
		}
	}
}

// phase offers rate ticks/s for d. It returns the range of s.ops it
// appended. Bodies are encoded before the
// clock starts. The phase stops early once the generator is maxBehind its
// schedule; aborted reports that.
func (s *serving) phase(ctx context.Context, rate float64, d time.Duration) (first, last int, aborted bool, err error) {
	n := int(rate * d.Seconds())
	if n < 1 {
		n = 1
	}
	first = len(s.ops)
	bodies := make([][]byte, n)
	for i := range bodies {
		if bodies[i], err = body(s.in.Stream.tick(s.next+i, s.in.Train.SampleInterval)); err != nil {
			return 0, 0, false, err
		}
	}
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Since(s.epoch) + 10*time.Millisecond
	lastPoll := start
	for i := range bodies {
		o := op{k: s.next, due: start + time.Duration(i)*interval}
		now := time.Since(s.epoch)
		if now-o.due > maxBehind {
			aborted = true
			break
		}
		if wait := o.due - now; wait > 0 {
			time.Sleep(wait)
			o.late = time.Since(s.epoch) - o.due
		}
		code, _, err := s.c.call(ctx, s.c.ingest, http.MethodPost, "/v1/tenants/"+tenantName+"/ingest", bodies[i])
		if err != nil {
			return 0, 0, false, fmt.Errorf("ingest: %w", err)
		}
		o.ack, o.status = time.Since(s.epoch), code
		s.ops = append(s.ops, o)
		s.next++
		if s.pollStats && o.ack-lastPoll >= statsEvery {
			lastPoll = o.ack
			st, err := s.c.stats(ctx)
			if err != nil {
				return 0, 0, false, err
			}
			for _, ts := range st.Tenants {
				s.queueLens = append(s.queueLens, float64(ts.QueueLen))
			}
		}
	}
	return first, len(s.ops), aborted, nil
}

// saturate posts ticks closed loop for d: the next tick goes out as soon
// as fewer than satWindow accepted ticks still wait for their verdict, so
// the tenant always has work queued but never a growing backlog. Every tick
// completes a hop, so each accepted tick yields one verdict. It returns the
// range of s.ops it appended and the rate, in ticks/s, at which the tenant
// turned them into verdicts once the window was full.
func (s *serving) saturate(ctx context.Context, d time.Duration) (first, last int, rate float64, err error) {
	bodies := make([][]byte, int(satMaxRate*d.Seconds())+1)
	for i := range bodies {
		if bodies[i], err = body(s.in.Stream.tick(s.next+i, s.in.Train.SampleInterval)); err != nil {
			return 0, 0, 0, err
		}
	}
	first = len(s.ops)
	s.mu.Lock()
	base := len(s.got)
	s.mu.Unlock()
	// waitBelow blocks until fewer than n accepted ticks lack a verdict.
	accepted := 0
	waitBelow := func(n int) error {
		timeout := time.NewTimer(settleTimeout)
		defer timeout.Stop()
		for {
			s.mu.Lock()
			done, serr := len(s.got)-base, s.subErr
			s.mu.Unlock()
			switch {
			case serr != nil:
				return fmt.Errorf("subscriber: %w", serr)
			case accepted-done < n:
				return nil
			}
			select {
			case <-s.notify:
			case <-timeout.C:
				return fmt.Errorf("saturation: %d ticks still lack a verdict after %v", accepted-done, settleTimeout)
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
	end := time.Since(s.epoch) + d
	for i := 0; i < len(bodies) && time.Since(s.epoch) < end; i++ {
		if err := waitBelow(satWindow); err != nil {
			return 0, 0, 0, err
		}
		o := op{k: s.next, due: time.Since(s.epoch)}
		code, _, err := s.c.call(ctx, s.c.ingest, http.MethodPost, "/v1/tenants/"+tenantName+"/ingest", bodies[i])
		if err != nil {
			return 0, 0, 0, fmt.Errorf("ingest: %w", err)
		}
		o.ack, o.status = time.Since(s.epoch), code
		s.ops = append(s.ops, o)
		s.next++
		if code == http.StatusAccepted {
			accepted++
		}
	}
	if err := waitBelow(1); err != nil {
		return 0, 0, 0, err
	}
	s.mu.Lock()
	at := make([]time.Duration, 0, accepted)
	for _, r := range s.got[base:] {
		at = append(at, r.at)
	}
	s.mu.Unlock()
	return first, len(s.ops), throughput(at, satWindow), nil
}

// accepted returns the indices into s.ops of the 202 ingests.
func (s *serving) accepted() []int {
	var out []int
	for i, o := range s.ops {
		if o.status == http.StatusAccepted {
			out = append(out, i)
		}
	}
	return out
}

// settle waits until the server has processed every accepted batch.
func (s *serving) settle(ctx context.Context) (serve.TenantStats, error) {
	want := uint64(len(s.accepted()))
	deadline := time.Now().Add(settleTimeout)
	for {
		st, err := s.c.stats(ctx)
		if err != nil {
			return serve.TenantStats{}, err
		}
		if len(st.Tenants) != 1 {
			return serve.TenantStats{}, fmt.Errorf("stats list %d tenants, want 1", len(st.Tenants))
		}
		ts := st.Tenants[0]
		if ts.Failed != "" {
			return ts, fmt.Errorf("tenant failed: %s", ts.Failed)
		}
		if ts.Processed == want {
			return ts, nil
		}
		if time.Now().After(deadline) {
			return ts, fmt.Errorf("server did not process every accepted batch within %v", settleTimeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitVerdicts waits until the subscriber holds seq verdicts.
func (s *serving) waitVerdicts(seq uint64) error {
	deadline := time.Now().Add(settleTimeout)
	for {
		s.mu.Lock()
		n, err := uint64(len(s.got)), s.subErr
		s.mu.Unlock()
		switch {
		case err != nil:
			return fmt.Errorf("subscriber: %w", err)
		case n >= seq:
			return nil
		case time.Now().After(deadline):
			return fmt.Errorf("subscriber holds %d of %d verdicts after %v", n, seq, settleTimeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// timeline returns the tenant's verdicts as the subscriber received them.
func (s *serving) timeline() []serve.SeqVerdict {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]serve.SeqVerdict, len(s.got))
	for i, r := range s.got {
		out[i] = r.sv
	}
	return out
}

// checkSnapshot loads the tenant's final snapshot with serve's own loader
// and checks it covers every processed batch and emitted verdict.
func (s *serving) checkSnapshot(want serve.TenantStats) error {
	store, err := serve.NewStore(s.c.snaps)
	if err != nil {
		return err
	}
	snap, err := store.Load(tenantName)
	if err != nil {
		return fmt.Errorf("final snapshot: %w", err)
	}
	if snap.Processed != want.Processed || snap.Seq != want.Seq {
		return fmt.Errorf("final snapshot at batch %d seq %d, server reached %d/%d",
			snap.Processed, snap.Seq, want.Processed, want.Seq)
	}
	return nil
}
