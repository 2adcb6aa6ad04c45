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
# internal/link rides along for the partitioned engine's cross-domain
# delivery reroute (Channel.SetPost/SendPost feed the epoch mailboxes).
# The harness package includes the -domains 4 guards: the epoch-barrier
# mailbox hammer (TestDomainsCellRace, TestEpochMailboxRace); the
# byte-identity determinism sweeps skip themselves under -race (their
# assertions are race-agnostic) to keep this leg within budget. The
# explicit -timeout covers single-core hosts, where the race-instrumented
# harness suite can exceed go test's 600s default.
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

# The conservative cluster's epoch barrier must not allocate either:
# mailbox buffers and the active list are reused, worker goroutines
# persist across runs instead of respawning, and the adaptive bound
# negotiation (distance matrix, slack sampling, EWMA) is flat arithmetic.
bench=$(go test ./internal/sim/ -run '^$' -bench 'BenchmarkEpochBarrier' -benchtime 2000x)
echo "$bench"
if echo "$bench" | grep 'BenchmarkEpochBarrier' | grep -qv ' 0 allocs/op'; then
    echo "epoch barrier allocates on the steady-state path" >&2
    exit 1
fi

# Cluster-overhead gate: pinned to one processor, the partitioned engine's
# epoch machinery (bound negotiation, batched mailbox drains, the serial
# dispatch auto-degrade selects) must keep the full 7302 inter-CC IF cell
# within 1.15x of the -domains 1 wall clock. The -race leg above already
# covers the batched-mailbox drain path (TestDomainsCellRace and
# TestEpochMailboxRace run the worker barrier with the race detector on);
# this leg is about cost, so it runs uninstrumented.
CHIPLET_CLUSTER_GATE=1 GOMAXPROCS=1 go test ./internal/harness/ -run TestClusterOverheadGate -v -count=1 -timeout 600s

# The whole transaction pipeline must be allocation-free in steady state:
# every DestKind x Op case, unloaded and loaded.
bench=$(go test ./internal/core/ -run '^$' -bench 'BenchmarkNetworkIssue' -benchtime 5000x)
echo "$bench"
if echo "$bench" | grep 'BenchmarkNetworkIssue' | grep -qv ' 0 allocs/op'; then
    echo "transaction pipeline allocates on the steady-state path" >&2
    exit 1
fi

# The express-path fusion layer must be allocation-free too: fused
# segments ride recycled walker frames, in-place departure-stamp rings
# and memoized serialization times — no closure or ring growth in steady
# state.
bench=$(go test ./internal/core/ -run '^$' -bench 'BenchmarkExpressPath' -benchtime 5000x)
echo "$bench"
if echo "$bench" | grep 'BenchmarkExpressPath' | grep -qv ' 0 allocs/op'; then
    echo "express-path fusion allocates on the steady-state path" >&2
    exit 1
fi

# Fusion-effectiveness gate: the full-length 7302 inter-CC IF cell must
# elide >= 40% of its classic-equivalent event load (>= 1.5x
# classic-equivalent events advanced per executed event, >= 50% of the
# per-message depart/delivery pairs). The ledger is seed-exact, so the
# gate is deterministic — wall clocks on shared hosts are not, which is
# why the events-per-second claim is gated through the event counts that
# compose it rather than a timed run.
CHIPLET_FUSION_GATE=1 go test ./internal/harness/ -run TestFusionEffectivenessGate -v -count=1 -timeout 600s
