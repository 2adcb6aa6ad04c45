#!/bin/sh
# CI gate: formatting, vet, build, full test suite, the race detector over
# the packages that run experiment cells concurrently, and the tracing
# overhead guards.
set -eux

# gofmt gate: fail if any file needs reformatting.
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go vet ./...
go build ./...
# Tier-1 on one processor and on two, so an assumption that only holds
# when goroutines never run in parallel fails here. -count=1 because the
# test cache does not key on GOMAXPROCS.
GOMAXPROCS=1 go test -count=1 ./...
GOMAXPROCS=2 go test -count=1 ./...
# internal/core rides along for the use-after-recycle guard
# (TestPinnedRetentionRaceFree).
# internal/metrics rides along: its registry is engine-local and must
# stay safe under the parallel experiment orchestrator.
# The harness package runs cells on the parallel orchestrator; its
# full-length ledger test skips itself under -race (its assertions are
# race-agnostic) to keep this leg within budget. The explicit -timeout
# covers single-core hosts, where the race-instrumented harness suite can
# exceed go test's 600s default.
# internal/anomaly rides along: detectors run inside the OnHarvest hook
# of engine-local registries under the parallel orchestrator.
# internal/serve IS the concurrency: its mirror is written from cell
# goroutines while HTTP handlers scrape (TestConcurrentScrape).
# internal/trace rides along for the trace-metrics fusion path
# (SpansInWindow keyed off harvest-window stamps).
# internal/anomaly/correlate rides along: the /correlate handler renders
# it from snapshots taken while cell goroutines keep harvesting.
go test -race -timeout 1800s ./internal/harness/ ./internal/sim/ ./internal/link/ ./internal/core/ ./internal/metrics/ ./internal/anomaly/ ./internal/anomaly/correlate/ ./internal/serve/ ./internal/trace/

# Observability overhead guards: an attached-but-disabled tracer must stay
# within ~5% of a nil tracer on the channel hot path, and the tracer hooks
# must never allocate — even when enabled.
go test ./internal/trace/ -run 'TestDisabledTracerOverhead|TestHotPathAllocs' -v

# Windowed-metrics overhead guards: a harvesting registry must stay within
# ~5% of an uninstrumented run on the event hot path (the probes are
# pulled once per window, never per event), and an attached-but-unstarted
# registry must leave the simulation byte-identical.
go test ./internal/metrics/ -run 'TestEnabledMetricsOverhead|TestUnstartedRegistryInvisible|TestHarvestAllocs' -v

# The OpenMetrics renderer serves every /metrics scrape: its allocations
# per render must not grow with the retained window count (prefixes are
# built per member, timestamps per window, lines appended to one reused
# buffer). A count of allocations, so it does not depend on wall time.
go test ./internal/metrics/ -run 'TestOpenMetricsAllocsFlat' -v -count=1

# The renderer must stay byte-identical to the fmt-based oracle on
# arbitrary labels, units, stamps and sample bit patterns.
go test ./internal/metrics/ -run '^$' -fuzz '^FuzzOpenMetricsFleet$' -fuzztime 15s

# Readers of files written by an earlier run must survive torn and hostile
# bytes: the Chrome-trace reader behind chiplettrace -in must not panic,
# and whatever it loads must re-export stably; the incident-archive reader
# behind chipletstat -correlate must not panic and may drop only a torn
# final line.
go test ./internal/trace/ -run '^$' -fuzz '^FuzzReadTraceEvents$' -fuzztime 10s
go test ./internal/anomaly/ -run '^$' -fuzz '^FuzzReadArchive$' -fuzztime 10s

# The harvest tick over the full-network instrument table must not
# allocate: rings are sized at Start, rescheduling reuses the pre-bound
# callback.
bench=$(go test ./internal/metrics/ -run '^$' -bench 'BenchmarkMetricsHarvest' -benchtime 1000x)
echo "$bench"
if echo "$bench" | grep 'BenchmarkMetricsHarvest' | grep -qv ' 0 allocs/op'; then
    echo "metrics harvest allocates on the steady-state path" >&2
    exit 1
fi

# The online anomaly detector sweep over the same table must not allocate
# either: detector state is sized at the first sweep, and the steady-state
# (no incident transitions) update path is flat arithmetic.
bench=$(go test ./internal/anomaly/ -run '^$' -bench 'BenchmarkDetectorSweep' -benchtime 1000x)
echo "$bench"
if echo "$bench" | grep 'BenchmarkDetectorSweep' | grep -qv ' 0 allocs/op'; then
    echo "anomaly detector sweep allocates on the steady-state path" >&2
    exit 1
fi

# The incident archive's append path must not allocate either: records
# are encoded into a reused buffer by the hand-rolled marshaller, so an
# attached archive adds no allocation inside the harvest tick.
bench=$(go test ./internal/anomaly/ -run '^$' -bench 'BenchmarkArchiveAppend' -benchtime 1000x)
echo "$bench"
if echo "$bench" | grep 'BenchmarkArchiveAppend' | grep -qv ' 0 allocs/op'; then
    echo "incident archive append allocates" >&2
    exit 1
fi

# Engine benchmarks must stay allocation-free with the tracer in the tree.
bench=$(go test ./internal/sim/ -run '^$' -bench 'BenchmarkEngine' -benchtime 10000x)
echo "$bench"
if echo "$bench" | grep 'BenchmarkEngine' | grep -qv ' 0 allocs/op'; then
    echo "engine benchmarks allocate on the steady-state path" >&2
    exit 1
fi

# The whole transaction pipeline must be allocation-free in steady state:
# every DestKind x Op case, unloaded and loaded.
bench=$(go test ./internal/core/ -run '^$' -bench 'BenchmarkNetworkIssue' -benchtime 5000x)
echo "$bench"
if echo "$bench" | grep 'BenchmarkNetworkIssue' | grep -qv ' 0 allocs/op'; then
    echo "transaction pipeline allocates on the steady-state path" >&2
    exit 1
fi

# Event-ledger gate: the full-length 7302 inter-CC IF and 9634 IF cells
# (seed 42, case 3) must dispatch and elide exactly the recorded event
# counts. The ledger is seed-exact, so the gate is deterministic, unlike
# wall clocks on shared hosts.
go test ./internal/harness/ -run '^TestFlagshipCellLedger$' -v -count=1 -timeout 600s

# Golden gate: the default reproduce run must match the committed
# reproduce_output.txt byte for byte (about 40 s on 2 cores).
go run ./cmd/reproduce | cmp - reproduce_output.txt
