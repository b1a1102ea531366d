// Command proteus-worker is a pull-based cluster worker: it registers
// with a proteus-served coordinator (started with -cluster), leases
// batches of sim and campaign-tuple items, executes them on a local
// engine, and reports the results. Workers are disposable: one that dies
// simply stops heartbeating and the coordinator requeues its leases.
//
// Example:
//
//	proteus-served -addr :8080 -cluster -store shared-store &
//	proteus-worker -coordinator http://localhost:8080 -name w1 -store shared-store
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/resultstore"
)

func main() {
	var (
		coordinator = flag.String("coordinator", "http://localhost:8080", "coordinator base URL")
		name        = flag.String("name", "", "worker name, unique per cluster (default host-pid)")
		batch       = flag.Int("batch", 2, "items to lease per pull")
		storeDir    = flag.String("store", "", "result store directory, typically shared with the coordinator (empty disables)")
	)
	flag.Parse()

	if *name == "" {
		// Without a hostname the pid still tells local workers apart.
		host, _ := os.Hostname()
		*name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	var econf engine.Config
	if *storeDir != "" {
		st, err := resultstore.Open(*storeDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "proteus-worker:", err)
			os.Exit(1)
		}
		econf.Store = st
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	w := &cluster.Worker{
		Name:        *name,
		Coordinator: *coordinator,
		Engine:      engine.New(econf),
		Batch:       *batch,
		Logger:      slog.New(slog.NewJSONHandler(os.Stderr, nil)),
	}
	if err := w.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "proteus-worker:", err)
		os.Exit(1)
	}
}
