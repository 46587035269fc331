#!/usr/bin/env bash
# Tier-1 CI gate: build, test, lint.
#
# Usage: scripts/ci.sh
# Runs from the repo root regardless of the caller's cwd.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test --release -q"
cargo test --release -q

echo "==> cargo clippy (workspace, vendored shims exempt)"
# The vendor/ shims are workspace members (so the build needs no
# network), but the lint gate covers only our own crates.
cargo clippy --release --no-deps --workspace \
    --exclude bytes --exclude crossbeam --exclude parking_lot \
    --exclude proptest --exclude rand --exclude rayon \
    --exclude serde --exclude serde_derive --exclude serde_json -- -D warnings

echo "==> cargo doc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q

echo "==> observatory smoke (health/lag/SLO/trace export)"
cargo run --release -q --example observatory
test -s results/trace.json

echo "==> crash-recovery smoke (produce -> power loss -> cold reopen -> verify)"
cargo run --release -q --example durability_smoke

echo "==> exactly-once chaos smoke (ambiguous acks + power loss, strict invariant)"
# Idempotent producer + read-committed consumer under a plan that
# drops acks after durable appends and tears a broker mid-stream; the
# example exits nonzero unless duplicates == 0 and no acked loss.
cargo run --release -q --example eos_smoke

echo "==> elastic scale-out smoke (3 -> 6 brokers mid-traffic, strict invariant)"
# Grows the fleet under chaos while the auto-balancer relocates
# partitions; jq gates the strict exactly-once invariant and that at
# least one partition actually moved onto the new brokers.
elastic_report=$(cargo run --release -q --example elastic_smoke)
if ! jq -e '.ok == true
            and (.moved_partitions >= 1)
            and (.acked_loss == 0)
            and (.duplicates == 0)' <<<"$elastic_report" >/dev/null; then
    echo "elastic_smoke report malformed or failed:" >&2
    echo "$elastic_report" >&2
    exit 1
fi

echo "==> octobench build + unit tests (stand-alone package, outside the workspace)"
octobench_manifest=crates/bench/src/bin/octobench/Cargo.toml
cargo build --release --offline --manifest-path "$octobench_manifest"
cargo test --release --offline -q --manifest-path "$octobench_manifest"

echo "==> octobench oracle gate (wire_small, exit status only)"
# Two OS processes, SDK over TCP; the run exits nonzero if its oracle
# finds any lost, reordered, corrupted or duplicated record. No timing
# threshold: the numbers are judged by paired runs, not here.
cargo run --release --offline -q --manifest-path "$octobench_manifest" -- \
    --workload wire_small --seed 1

echo "==> networked smoke (two OS processes, SCRAM over loopback TCP)"
# The example spawns a broker process hosting a WireServer, dials it
# over a real socket with SCRAM credentials, and round-trips records
# through the SDK producer/consumer. jq gates the printed report.
net_report=$(cargo run --release -q --example net_quickstart)
if ! jq -e '.ok == true
            and (.processes == 2)
            and (.transport == "tcp")
            and (.consumed == .produced)
            and (.shared_traces >= 1)
            and (.broker_wire_requests_total > 0)' <<<"$net_report" >/dev/null; then
    echo "net_quickstart report malformed or failed:" >&2
    echo "$net_report" >&2
    exit 1
fi
test -s results/net_trace.json

echo "==> fleet scrape smoke (3 brokers, DescribeMetrics over TCP, chaos cut)"
# octopus-top spins up three wire-served brokers, drives socket
# traffic, severs one node mid-run, and scrapes the fleet through the
# poller; jq gates the merged view.
top_report=$(cargo run --release -q -p octopus-bench --bin octopus_top -- --json)
if ! jq -e '.ok == true
            and (.brokers == 3)
            and (.reassignments_completed >= 1)
            and (.octopus_wire_requests_total > 0)' <<<"$top_report" >/dev/null; then
    echo "octopus_top report malformed or failed:" >&2
    echo "$top_report" >&2
    exit 1
fi

echo "==> temp-dir leak gate"
# Every durable-store test and example works in a TempDir prefixed
# octopus-data-* (cold-tier stores use octopus-cold-*); anything
# still present here leaked.
leaked=$(find "${TMPDIR:-/tmp}" -maxdepth 1 \( -name 'octopus-data-*' -o -name 'octopus-cold-*' \) 2>/dev/null || true)
if [ -n "$leaked" ]; then
    echo "leaked data dirs:" >&2
    echo "$leaked" >&2
    exit 1
fi

echo "==> ci green"
