package main

// The service subcommands: `sweep serve` turns this binary into a
// long-lived sweep node (HTTP results API + shared cache + worker
// coordinator), `sweep worker` joins such a node and computes leased
// grid points. Both are dispatched from main before ordinary flag
// parsing, so the classic one-shot CLI is untouched.

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/fabric"
	"repro/internal/sweep"
)

// openBackend resolves the -backend/-cache flag pair into a point
// store: the disk cache alone ("disk", the default), a remote node
// ("http=URL"), or disk-in-front-of-remote ("tiered=URL"). The second
// return is the disk layer when one exists (for Dir/Stats/GC surfaces
// the Backend interface doesn't carry).
func openBackend(spec, cacheFlag string) (sweep.Backend, *sweep.Cache, error) {
	kind, arg, _ := strings.Cut(spec, "=")
	switch kind {
	case "", "disk":
		c, err := sweep.OpenCacheFlag(cacheFlag)
		if err != nil || c == nil {
			return nil, nil, err
		}
		return c, c, nil
	case "http":
		if arg == "" {
			return nil, nil, fmt.Errorf("-backend http needs a URL (http=http://host:8080)")
		}
		return fabric.NewRemote(arg), nil, nil
	case "tiered":
		if arg == "" {
			return nil, nil, fmt.Errorf("-backend tiered needs a URL (tiered=http://host:8080)")
		}
		c, err := sweep.OpenCacheFlag(cacheFlag)
		if err != nil {
			return nil, nil, err
		}
		if c == nil {
			return nil, nil, fmt.Errorf("-backend tiered needs the disk layer (-cache off conflicts)")
		}
		return fabric.NewTiered(c, fabric.NewRemote(arg)), c, nil
	default:
		return nil, nil, fmt.Errorf("unknown backend %q (have disk, http=URL, tiered=URL)", spec)
	}
}

// backendName labels a possibly-nil backend for log lines.
func backendName(b sweep.Backend) string {
	if b == nil {
		return "none"
	}
	return b.Name()
}

// parseSize parses a byte budget with an optional K/M/G/T suffix
// (binary multiples): "512M", "2G", "1048576".
func parseSize(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, fmt.Errorf("empty size")
	}
	mult := int64(1)
	switch s[len(s)-1] {
	case 'K', 'k':
		mult = 1 << 10
	case 'M', 'm':
		mult = 1 << 20
	case 'G', 'g':
		mult = 1 << 30
	case 'T', 't':
		mult = 1 << 40
	}
	if mult > 1 {
		s = s[:len(s)-1]
	}
	n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad size %q (want bytes, optionally suffixed K/M/G/T)", s)
	}
	return n * mult, nil
}

// runServe is the `sweep serve` subcommand.
func runServe(args []string) {
	fs := flag.NewFlagSet("sweep serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	backendFlag := fs.String("backend", "", "point store: \"disk\" (default), \"http=URL\" or \"tiered=URL\"")
	cacheFlag := fs.String("cache", "", "disk cache: directory, \"on\" (default, ~/.cache/lrscwait) or \"off\"")
	workers := fs.Int("workers", 0, "local compute pool width (0 = GOMAXPROCS)")
	quiet := fs.Bool("quiet", false, "suppress request logging on stderr")
	fs.Parse(args)

	backend, _, err := openBackend(*backendFlag, *cacheFlag)
	if err != nil {
		sweep.Fatal("sweep serve", err)
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	opts := []fabric.ServerOption{fabric.WithWorkers(*workers)}
	if !*quiet {
		opts = append(opts, fabric.WithLog(logf))
	}
	srv := fabric.NewServer(backend, opts...)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		sweep.Fatal("sweep serve", err)
	}
	fmt.Fprintf(os.Stderr, "sweep serve: listening on %s (backend %s)\n", ln.Addr(), backendName(backend))

	hs := &http.Server{Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-ctx.Done()
		// In-flight computations get a grace window; idle keep-alives
		// drop immediately.
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		hs.Shutdown(sctx)
	}()
	if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		sweep.Fatal("sweep serve", err)
	}
	<-done
	fmt.Fprintln(os.Stderr, "sweep serve: shutdown complete")
}

// runWorker is the `sweep worker` subcommand.
func runWorker(args []string) {
	fs := flag.NewFlagSet("sweep worker", flag.ExitOnError)
	join := fs.String("join", "", "coordinator base URL (required), e.g. http://host:8080")
	name := fs.String("name", "", "worker name in coordinator logs (default host:pid)")
	workers := fs.Int("workers", 0, "local compute pool width (0 = GOMAXPROCS)")
	maxPoints := fs.Int("max-points", 0, "points per lease (0 = coordinator default)")
	wait := fs.Duration("wait", 0, "long-poll duration per lease request (0 = coordinator default)")
	idleExit := fs.Duration("idle-exit", 0, "exit after this much continuous idle time (0 = serve forever)")
	quiet := fs.Bool("quiet", false, "suppress progress on stderr")
	fs.Parse(args)
	if *join == "" {
		sweep.Fatal("sweep worker", fmt.Errorf("-join URL is required"))
	}

	w := &fabric.Worker{
		Coordinator: *join,
		Name:        *name,
		Workers:     *workers,
		MaxPoints:   *maxPoints,
		Wait:        *wait,
		IdleExit:    *idleExit,
	}
	if !*quiet {
		w.Log = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "sweep "+format+"\n", args...)
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := w.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
		sweep.Fatal("sweep worker", err)
	}
}
