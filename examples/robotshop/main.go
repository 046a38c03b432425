// Robot-shop scenario: fault localization on the e-commerce benchmark under
// load drift, head to head with the error-log-only baseline of [23].
//
// The storefront's faults are exactly the hard cases the paper motivates: a
// broken data store surfaces only as omissions on its dependents, and the
// async dispatch worker never appears in any request path.
//
//	go run ./examples/robotshop [-quick]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"causalfl/internal/apps/robotshop"
	"causalfl/internal/arena"
	"causalfl/internal/baselines"
	"causalfl/internal/clock"
	"causalfl/internal/eval"
	"causalfl/internal/metrics"
)

func main() {
	quick := flag.Bool("quick", true, "shortened collection windows (default true; -quick=false for paper-length)")
	seed := flag.Int64("seed", 42, "random seed")
	flag.Parse()
	if err := run(*quick, *seed); err != nil {
		log.Fatal(err)
	}
}

func run(quick bool, seed int64) error {
	// Collect once with the union of every metric any technique needs,
	// then let each technique project its own view: identical data,
	// different methods.
	union := append(metrics.RawAll(), metrics.DerivedAll()...)
	union = append(union, metrics.ErrLogRate)
	cfg := eval.Options{Seed: seed, Quick: quick}.Apply(eval.Config{
		Build:          robotshop.Build,
		Metrics:        union,
		TestMultiplier: 4, // production runs 4x hotter than training
	})

	fmt.Println("robot-shop: training at 1x, localizing every fault at 4x load ...")
	ctx := context.Background()
	data, err := eval.CollectTraining(ctx, cfg)
	if err != nil {
		return err
	}
	cases, err := eval.CollectTests(ctx, cfg)
	if err != nil {
		return err
	}
	rows, err := arena.Grade(ctx, &clock.Fake{}, []baselines.Technique{
		&baselines.Paper{MetricNames: metrics.Names(metrics.DerivedAll())},
		baselines.ErrLogOnly(),
		&baselines.SingleWorld{},
		&baselines.Observational{},
		&baselines.RandomGuess{Seed: seed},
	}, data, cases)
	if err != nil {
		return err
	}
	fmt.Printf("%-32s %-9s %s\n", "technique", "accuracy", "informativeness")
	for _, row := range rows {
		fmt.Printf("%-32s %-9.2f %.2f\n", row.Technique, row.Contain, row.MeanInformativeness)
	}
	fmt.Println("\nreading guide:")
	fmt.Println("  - derived metrics + per-metric worlds keep accuracy under load drift")
	fmt.Println("  - the error-log-only baseline misses faults that surface as omissions")
	fmt.Println("  - the single-world learner ties faults whose merged worlds coincide")
	return nil
}
