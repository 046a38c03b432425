package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
)

// Shutdown stops a server that listens through hs: it wakes every parked
// verdict long-poll, shuts hs down (listener closed, in-flight requests
// finished, so no new ingest races the drain), then Drains. The long-polls
// go first because hs.Shutdown waits for every active request, and a poll
// without a client deadline would otherwise hold it, and the final
// snapshots, forever. ctx bounds both waits.
func (s *Server) Shutdown(ctx context.Context, hs *http.Server) error {
	s.closingOnce.Do(func() { close(s.closing) })
	if err := hs.Shutdown(ctx); err != nil {
		return fmt.Errorf("serve: http shutdown: %w", err)
	}
	return s.Drain(ctx)
}

// Drain performs the graceful shutdown sequence: stop accepting ingest
// server-wide, let every tenant's consumer flush its queued batches, write
// each tenant's final snapshot, and return once all consumers have exited.
// ctx bounds the wait; an expired ctx abandons tenants still flushing (their
// last periodic snapshot remains on disk, so the loss is bounded by the
// snapshot cadence — the same guarantee a crash gets).
func (s *Server) Drain(ctx context.Context) error {
	ts := s.beginShutdown(false)
	var errs []error
	for _, t := range ts {
		select {
		case <-t.done:
		case <-ctx.Done():
			return fmt.Errorf("serve: drain interrupted: %w", ctx.Err())
		}
		if err := t.failedErr(); err != nil {
			errs = append(errs, fmt.Errorf("serve: tenant %q failed before drain: %w", t.name, err))
		}
	}
	return errors.Join(errs...)
}

// Kill is the crash simulation: stop everything immediately, abandon queued
// work, and write NO final snapshots — exactly what power loss leaves behind.
// The chaos suite boots a new server from the same store afterwards and
// asserts the recovery contract; production code should call Drain.
func (s *Server) Kill() {
	for _, t := range s.beginShutdown(true) {
		<-t.done
	}
}

// beginShutdown flips the server into draining mode and starts every
// tenant's shutdown; the tenant list is returned for the caller to wait on.
func (s *Server) beginShutdown(kill bool) []*tenant {
	s.mu.Lock()
	s.draining = true
	ts := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		ts = append(ts, t)
	}
	s.mu.Unlock()
	for _, t := range ts {
		t.beginShutdown(kill)
	}
	return ts
}

// Quiesce blocks until every batch enqueued for the tenant before the call
// has been fully processed — a deterministic flush point. Tests and the demo
// use it to read stats or verdicts at an exact stream position without
// sleeping; it is also the ordered building block behind forced snapshots.
func (s *Server) Quiesce(ctx context.Context, tenant string) error {
	s.mu.RLock()
	t := s.tenants[tenant]
	s.mu.RUnlock()
	if t == nil {
		return fmt.Errorf("serve: no tenant %q", tenant)
	}
	return t.barrier(ctx, false)
}

// Snapshot forces a snapshot of one tenant at its current queue position.
func (s *Server) Snapshot(ctx context.Context, tenant string) error {
	s.mu.RLock()
	t := s.tenants[tenant]
	s.mu.RUnlock()
	if t == nil {
		return fmt.Errorf("serve: no tenant %q", tenant)
	}
	return t.barrier(ctx, true)
}

// RunDrained runs a step loop with a graceful finish: step is called until
// it reports done or errors, and drain runs exactly once afterwards unless
// step itself failed — including when ctx is cancelled mid-loop (the SIGINT
// path in `causalfl watch`). It returns step's error, or drain's.
//
// The contract mirrors the server's own lifecycle: cancellation stops new
// work but never skips the flush, so a loop interrupted mid-hop still
// completes its current window and reports a final summary instead of
// vanishing silently.
func RunDrained(ctx context.Context, step func() (done bool, err error), drain func() error) error {
	for {
		select {
		case <-ctx.Done():
			return drain()
		default:
		}
		done, err := step()
		if err != nil {
			return err
		}
		if done {
			return drain()
		}
	}
}
