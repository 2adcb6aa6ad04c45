// Command chipletstat inspects windowed-metrics dumps written by
// `reproduce -stats` (JSON format) without re-running any simulation:
// a top-like per-window view of the most congested resources, the
// per-window bottleneck attribution report, per-family traffic totals,
// and conversion to OpenMetrics or CSV for external tooling.
//
// Usage:
//
//	chipletstat -in stats.json [-top N]              summary + last window
//	chipletstat -in stats.json -window 3             one window's top view
//	chipletstat -in stats.json -all                  every window's top view
//	chipletstat -in stats.json -format csv -o f.csv  re-export the series
//	chipletstat -in stats.json -serve :8080          serve the dump over HTTP
//	chipletstat -correlate incidents.jsonl           cross-cell saturation order
//
// -serve exposes the dump behind the same endpoint set cmd/chipletserve
// uses for live fleets (/metrics, /bottlenecks, /incidents, /cells), so
// a series recorded yesterday scrapes exactly like one recording now;
// -incidents adds a saved incident feed (chipletserve's /incidents JSON)
// to the served cell.
//
// -correlate loads an incident lifecycle archive (the JSONL file
// chipletserve -archive appends, rotations included) and renders the
// same cross-cell saturation-order report the live /correlate endpoint
// serves: which resource saturated first, in which cell, how the onsets
// order across configs. -format json emits the report as JSON; -top
// bounds the ranked series. -correlate needs no -in. A final line torn
// by a crash mid-append is skipped, and the count of skipped lines is
// printed to stderr.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"

	"repro/internal/anomaly"
	"repro/internal/anomaly/correlate"
	"repro/internal/metrics"
	"repro/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("chipletstat: ")
	in := flag.String("in", "", "metrics dump to inspect (JSON from reproduce -stats; required)")
	window := flag.Int("window", -1, "render this window's top view instead of the summary")
	all := flag.Bool("all", false, "render every recorded window's top view")
	top := flag.Int("top", 5, "rows per window in the top views and bottleneck report")
	format := flag.String("format", "", "re-export the series as openmetrics, csv or json instead of reporting")
	out := flag.String("o", "", "output file for -format (default stdout)")
	serveAddr := flag.String("serve", "", "serve the dump over HTTP at this address instead of reporting")
	incidentsIn := flag.String("incidents", "", "incident feed JSON to serve alongside the dump (with -serve)")
	correlateIn := flag.String("correlate", "", "incident archive JSONL (from chipletserve -archive): render the cross-cell saturation order")
	flag.Parse()
	if *correlateIn != "" {
		if err := runCorrelate(*correlateIn, *format, *out, *top); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}
	f, err := os.Open(*in)
	if err != nil {
		log.Fatal(err)
	}
	d, err := metrics.ReadJSON(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	if *serveAddr != "" {
		var incs []anomaly.Incident
		if *incidentsIn != "" {
			g, err := os.Open(*incidentsIn)
			if err != nil {
				log.Fatal(err)
			}
			incs, err = anomaly.ReadJSON(g)
			g.Close()
			if err != nil {
				log.Fatal(err)
			}
		}
		fleet := serve.NewFleet()
		name := filepath.Base(*in)
		fleet.AddStatic(name, d, incs)
		log.Printf("serving %s (%d windows, %d incidents) on %s",
			name, d.Total()-d.FirstWindow(), len(incs), *serveAddr)
		log.Fatal(http.ListenAndServe(*serveAddr, fleet.Handler()))
	}
	if *format != "" {
		if err := export(d, *format, *out); err != nil {
			log.Fatal(err)
		}
		return
	}
	switch {
	case *all:
		for w := d.FirstWindow(); w < d.Total(); w++ {
			fmt.Println(metrics.RenderWindow(d, w, *top))
		}
	case *window >= 0:
		if *window < d.FirstWindow() || *window >= d.Total() {
			log.Fatalf("window %d out of range [%d,%d)", *window, d.FirstWindow(), d.Total())
		}
		fmt.Println(metrics.RenderWindow(d, *window, *top))
	default:
		fmt.Println(metrics.FamilySummary(d))
		fmt.Println(metrics.BottleneckReport(d, *top))
		fmt.Println(metrics.RenderWindow(d, d.Total()-1, *top))
	}
}

// runCorrelate loads an incident lifecycle archive and renders the
// cross-cell saturation-order report (text, or JSON with -format json).
func runCorrelate(path, format, outPath string, top int) error {
	recs, dropped, err := anomaly.LoadArchive(path)
	if err != nil {
		return err
	}
	if dropped > 0 {
		log.Printf("%s: dropped %d torn final line(s) of an interrupted append", path, dropped)
	}
	series := correlate.Correlate(recs)
	var w io.Writer = os.Stdout
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	switch format {
	case "", "text":
		_, err = io.WriteString(w, correlate.Render(series, top))
		return err
	case "json":
		if top > 0 && top < len(series) {
			series = series[:top]
		}
		return correlate.WriteJSON(w, series)
	default:
		return fmt.Errorf("unknown format %q for -correlate; choose text or json", format)
	}
}

// export rewrites the dump in another exposition format.
func export(d *metrics.Dump, format, path string) error {
	var w io.Writer = os.Stdout
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	switch format {
	case "openmetrics":
		return metrics.WriteOpenMetrics(w, d)
	case "csv":
		return metrics.WriteCSV(w, d)
	case "json":
		return d.WriteJSON(w)
	default:
		return fmt.Errorf("unknown format %q; choose openmetrics, csv or json", format)
	}
}
