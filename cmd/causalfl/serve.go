package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"

	"causalfl/internal/core"
	"causalfl/internal/metrics"
	"causalfl/internal/serve"
	"causalfl/internal/webui"
)

// cmdServe runs the long-running localization service: the multi-tenant
// streaming API from internal/serve (bounded ingest queues, crash-safe
// snapshots, restore-on-boot) with the webui dashboard mounted beside it.
// On SIGINT/SIGTERM parked verdict long-polls are released, the HTTP
// listener stops, every tenant flushes its queue and writes a final
// snapshot, and only then does the process exit — so the next boot resumes
// exactly where this one stopped.
func cmdServe(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	dir := fs.String("snapshot-dir", "causalfl-serve", "directory for crash-safe tenant snapshots")
	modelPath := fs.String("model", "", "trained model JSON; also mounts the model explorer and /localize (optional — tenants carry their own models)")
	preset := fs.String("metrics", "", "default metric preset for new tenants (default "+metrics.SetRawAll+")")
	queue := fs.Int("queue", 0, fmt.Sprintf("default per-tenant ingest queue capacity in batches (default %d)", serve.DefaultQueueCap))
	snapEvery := fs.Int("snapshot-every", 0, fmt.Sprintf("default snapshot cadence in processed batches, negative disables periodic snapshots (default %d)", serve.DefaultSnapshotEvery))
	if err := fs.Parse(args); err != nil {
		return err
	}

	store, err := serve.NewStore(*dir)
	if err != nil {
		return err
	}
	api, err := serve.NewServer(serve.Options{Store: store, Defaults: serve.TenantConfig{
		Preset:        *preset,
		QueueCap:      *queue,
		SnapshotEvery: *snapEvery,
	}})
	if err != nil {
		return err
	}

	mux := http.NewServeMux()
	mux.Handle("/v1/", api.Handler())
	mux.Handle("/healthz", api.Handler())
	if *modelPath != "" {
		f, err := os.Open(*modelPath)
		if err != nil {
			return fmt.Errorf("open model: %w", err)
		}
		model, err := core.ReadModel(f)
		_ = f.Close() // read-only; nothing to flush
		if err != nil {
			return err
		}
		ui, err := webui.NewServer(model)
		if err != nil {
			return err
		}
		mux.Handle("/", ui)
	} else {
		mux.Handle("GET /dashboard", webui.Dashboard())
		mux.Handle("GET /{$}", http.RedirectHandler("/dashboard", http.StatusFound))
	}

	restored := len(api.Stats().Tenants)
	hs := &http.Server{Addr: *addr, Handler: mux}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "serving on %s (snapshots in %s, %d tenant(s) restored)\n", *addr, store.Dir(), restored)

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	// The signal context is spent; the shutdown deliberately runs unbounded
	// so final snapshots always land (a second Ctrl-C kills the process the
	// usual way).
	fmt.Fprintln(os.Stderr, "shutting down: draining tenants and writing final snapshots...")
	if err := api.Shutdown(context.Background(), hs); err != nil {
		return err
	}
	st := api.Stats()
	fmt.Fprintf(os.Stderr, "drained %d tenant(s): %d batches processed, %d shed; snapshots in %s\n",
		len(st.Tenants), st.Processed, st.Shed, store.Dir())
	return nil
}
