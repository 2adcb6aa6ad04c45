// Command chipletserve runs a fleet of experiment cells with the full
// observability stack attached — windowed metrics, online anomaly
// detectors, serving mirror, incident lifecycle pipeline — and scrapes
// them over HTTP while the simulations run:
//
//	/            index: endpoints + per-cell status
//	/metrics     OpenMetrics exposition (Prometheus-compatible), one
//	             cell="fig4/s1c2" label per cell, plus the pipeline's own
//	             webhook/archive counters
//	/incidents   congestion incidents JSON feed (?cell=, ?open=1)
//	/bottlenecks per-window bottleneck attribution (?cell=, ?window=, ?top=)
//	/correlate   cross-cell saturation order (?resource=, ?top=, ?format=json)
//	/cells       cell status JSON
//
// Usage:
//
//	chipletserve                          serve the Figure 4 sweep on :8080
//	chipletserve -experiment fig5         the Figure 5 scenarios instead
//	chipletserve -scale 4 -loop           quick cells, re-run forever
//	chipletserve -archive incidents.jsonl persist incident lifecycles (JSONL,
//	                                      rotated; reload with chipletstat -correlate)
//	chipletserve -push http://host/hook   POST each incident lifecycle event
//	curl localhost:8080/incidents         watch congestion onsets live
//	curl localhost:8080/correlate         which config saturates umc0 first?
//
// The server keeps serving after the fleet finishes (the mirrors hold
// the full retained series), so a scrape late in the day still sees the
// morning's windows; -loop re-runs the fleet continuously instead. With
// -loop, each round's still-open incidents are closed with synthetic
// clear stamps before the mirror resets, so the archive and /correlate
// history never carry dangling-open records from finished rounds.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/anomaly"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/units"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("chipletserve: ")
	addr := flag.String("http", ":8080", "listen address")
	experiment := flag.String("experiment", "fig4", "cell sweep to run: fig4 (scenarios x demand cases) or fig5 (scenarios)")
	scale := flag.Int("scale", 1, "divide measurement windows by N (1 = paper-length cells)")
	seed := flag.Uint64("seed", 42, "simulation seed")
	workers := flag.Int("workers", 4, "cells simulated concurrently")
	windowUS := flag.Float64("window", 100, "harvest window in simulated microseconds")
	retain := flag.Int("retain", serve.DefaultMaxWindows, "windows retained per cell mirror")
	kSigma := flag.Float64("k", 6, "detector EWMA band half-width in sigmas")
	minRate := flag.Float64("minrate", 0.05, "detector onset floor (normalized rate)")
	loop := flag.Bool("loop", false, "re-run the fleet continuously so scrapes always see a live run")
	archivePath := flag.String("archive", "", "append incident lifecycle events to this JSONL file (rotated)")
	archiveMaxBytes := flag.Int64("archive-max-bytes", 8<<20, "rotate the archive past this size")
	archiveFiles := flag.Int("archive-files", 4, "rotated archive files kept (oldest deleted)")
	push := flag.String("push", "", "comma-separated webhook URLs POSTed each incident lifecycle event")
	pushRetries := flag.Int("push-retries", 3, "failed-POST retries per webhook target (negative: none)")
	pushBackoff := flag.Duration("push-backoff", 100*time.Millisecond, "first webhook retry backoff (doubles per retry)")
	pushTimeout := flag.Duration("push-timeout", 2*time.Second, "per-POST webhook timeout")
	flag.Parse()

	opt := harness.DefaultOptions()
	opt.Seed = *seed
	opt.TimeScale = *scale
	opt.Workers = 1 // cells are parallelized here, not inside the harness

	cfg := anomaly.Config{K: *kSigma, MinRate: *minRate}
	window := units.Time(*windowUS * float64(units.Microsecond))

	type cellRun struct {
		name string
		run  func(reg *metrics.Registry) (string, error)
	}
	var runs []cellRun
	switch *experiment {
	case "fig4":
		for s := range harness.Figure4Scenarios() {
			for c := range harness.Fig4Cases() {
				s, c := s, c
				runs = append(runs, cellRun{
					name: fmt.Sprintf("fig4/s%dc%d", s, c),
					run: func(reg *metrics.Registry) (string, error) {
						res, _, err := harness.Figure4Cell(opt, s, c, nil, reg)
						if err != nil {
							return "", err
						}
						return fmt.Sprintf("%s %s: A %v/%v B %v/%v", res.Link, res.Case,
							res.AchievedA, res.DemandA, res.AchievedB, res.DemandB), nil
					},
				})
			}
		}
	case "fig5":
		for s := range harness.Figure5Scenarios() {
			s := s
			runs = append(runs, cellRun{
				name: fmt.Sprintf("fig5/s%d", s),
				run: func(reg *metrics.Registry) (string, error) {
					res, err := harness.Figure5StatsRun(opt, s, reg)
					if err != nil {
						return "", err
					}
					return fmt.Sprintf("%s: harvest delay %v", res.Link, res.HarvestDelay), nil
				},
			})
		}
	default:
		log.Fatalf("unknown experiment %q; choose fig4 or fig5", *experiment)
	}

	fleet := serve.NewFleet()
	if *archivePath != "" {
		arch, err := anomaly.OpenArchive(*archivePath, anomaly.ArchiveConfig{
			MaxBytes: *archiveMaxBytes, MaxFiles: *archiveFiles,
		})
		if err != nil {
			log.Fatal(err)
		}
		fleet.SetArchive(arch)
		log.Printf("archiving incident lifecycles to %s", *archivePath)
	}
	if *push != "" {
		targets := strings.Split(*push, ",")
		notifier := serve.NewNotifier(targets, serve.NotifierConfig{
			Retries: *pushRetries, Backoff: *pushBackoff, Timeout: *pushTimeout,
		})
		fleet.SetNotifier(notifier)
		log.Printf("pushing incident events to %d webhook target(s)", len(targets))
	}
	cells := make([]*serve.Cell, len(runs))
	for i, r := range runs {
		cells[i] = fleet.Add(r.name, *retain)
	}

	go func() {
		for round := 0; ; round++ {
			sem := make(chan struct{}, max(1, *workers))
			var wg sync.WaitGroup
			for i, r := range runs {
				wg.Add(1)
				sem <- struct{}{}
				go func(cell *serve.Cell, r cellRun) {
					defer wg.Done()
					defer func() { <-sem }()
					if round > 0 {
						cell.Reset()
					}
					reg := metrics.New(metrics.Config{Window: window})
					mon := anomaly.Attach(reg, cfg)
					cell.Observe(reg, mon)
					summary, err := r.run(reg)
					cell.Finish(summary, err)
					if err != nil {
						log.Printf("cell %s: %v", cell.Name(), err)
					} else {
						log.Printf("cell %s done: %s (%d windows, %d incidents)",
							cell.Name(), summary, reg.Total()-reg.FirstWindow(), mon.NumIncidents())
					}
				}(cells[i], r)
			}
			wg.Wait()
			if !*loop {
				log.Printf("fleet finished; still serving on %s", *addr)
				return
			}
			log.Printf("fleet round %d finished; looping", round)
		}
	}()

	log.Printf("serving %d %s cells on %s", len(runs), *experiment, *addr)
	log.Fatal(http.ListenAndServe(*addr, fleet.Handler()))
}
