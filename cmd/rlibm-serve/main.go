// Command rlibm-serve is the long-lived evaluation service: an HTTP/JSON
// endpoint plus a framed binary bulk endpoint answering correctly rounded
// evaluations of every generated function × format × rounding mode from
// the batched kernels of internal/eval.
//
// Tables come from the artifact store's verify artifacts when present
// (address them with the same -seed/-bits/-levels/-progressive-ro the
// generator ran with; worker counts never matter) and fall back per
// function to the coefficients baked into the binary. With
// -reload-interval the server polls the store and hot-reloads freshly
// regenerated tables after verifying them; a bad generation is rejected
// and the previous tables keep serving.
//
// Robustness is the point: a bounded admission queue sheds overload as
// typed 429s, per-request deadlines stop serving departed clients,
// panics are isolated to the request that caused them, and SIGINT/SIGTERM
// drains gracefully — stop admitting, finish in-flight requests, flush
// the observability report.
//
// Typical use:
//
//	rlibm-serve -listen :8080                            # builtin tables
//	rlibm-serve -listen :8080 -bulk-listen :8081 -report
//	rlibm-serve -store tcp://host:7070 -reload-interval 5s
//	curl -s localhost:8080/eval -d '{"func":"log2","format":"F16,8","inputs":[16256]}'
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	common := cli.Register(flag.CommandLine)
	var (
		listen     = flag.String("listen", "127.0.0.1:8080", "TCP address of the HTTP/JSON endpoint")
		bulkListen = flag.String("bulk-listen", "", "TCP address of the framed binary bulk endpoint (empty disables)")
		queue      = flag.Int("queue", serve.DefaultQueue, "admission queue bound; requests beyond it are shed with HTTP 429")
		reqTimeout = flag.Duration("request-timeout", serve.DefaultRequestTimeout, "per-request evaluation deadline (negative disables)")
		maxBatch   = flag.Int("max-batch", serve.DefaultMaxBatch, "maximum inputs in one request")
		reload     = flag.Duration("reload-interval", 0, "poll the store for regenerated tables this often and hot-reload them (0 disables)")
		drainWait  = flag.Duration("drain-timeout", 30*time.Second, "how long a SIGTERM drain waits for in-flight requests before closing connections")
		progRO     = flag.Bool("progressive-ro", false, "address store artifacts generated with -progressive-ro")
		levels     = flag.String("levels", "", "colon-separated explicit level list the store artifacts were generated with (overrides -bits)")
	)
	flag.Parse()
	common.StandardLadder = *levels == ""
	if err := common.Validate(); err != nil {
		log.Fatal(err)
	}
	if *queue < 1 {
		log.Fatalf("invalid -queue %d: must be at least 1 (the admission queue needs one slot)", *queue)
	}
	if *maxBatch < 1 {
		log.Fatalf("invalid -max-batch %d: must be at least 1", *maxBatch)
	}
	stopProfiles, err := common.StartProfiles()
	if err != nil {
		log.Fatal(err)
	}
	rec := common.NewRecorder()
	store, err := common.Store()
	if err != nil {
		log.Fatal(err)
	}
	defer common.CloseStore()

	opt := common.ProgressiveOptions(*progRO, common.Logf())
	if *levels != "" {
		lv, err := cli.ParseLevels(*levels)
		if err != nil {
			log.Fatal(err)
		}
		opt.Levels = lv
	}

	var span *obs.Span
	if rec != nil {
		span = rec.Root()
	}
	srv, err := serve.New(serve.Config{
		Queue:          *queue,
		RequestTimeout: *reqTimeout,
		MaxBatch:       *maxBatch,
		Store:          store,
		Opt:            opt,
		ReloadInterval: *reload,
		Logf:           common.Logf(),
		Span:           span,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := srv.Start(*listen, *bulkListen); err != nil {
		log.Fatal(err)
	}
	ks := srv.KernelSet()
	fmt.Printf("rlibm-serve: http %s", srv.HTTPAddr())
	if a := srv.BulkAddr(); a != nil {
		fmt.Printf(" bulk %s", a)
	}
	fmt.Printf(" functions %d fingerprint %.12s…\n", len(ks.Functions()), ks.Fingerprint())

	// Drain on SIGINT/SIGTERM: stop admitting, finish in-flight requests,
	// then flush the observability report.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	fmt.Printf("rlibm-serve: %v — draining\n", s)
	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	failed := false
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("rlibm-serve: drain: %v", err)
		failed = true
	}
	if err := common.FinishRun(rec, "rlibm-serve"); err != nil {
		log.Print(err)
		failed = true
	}
	stopProfiles()
	if failed {
		os.Exit(1)
	}
	fmt.Println("rlibm-serve: drained")
}
