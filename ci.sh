#!/usr/bin/env bash
# Repo CI gate: build, test, formatting and lints — all warnings fatal.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release
# Figure-artifact gate: the committed out/ files are exactly what the
# experiments binary and the figure examples write (byte-identical
# determinism, and the SVG/GDS/CIF exporters read layers unchanged).
cargo run --release -q --bin experiments > /dev/null
for example in quickstart contact_row diffpair centroid_pair bicmos_amplifier dsl_live_view; do
    cargo run --release -q --example "$example" > /dev/null
done
git diff --exit-code -- out/
cargo test --workspace -q
# The end-to-end benchmark is a separate package outside the workspace:
# build and test it here so a change to a public item it calls fails CI
# instead of only the benchmark gate.
cargo test --release -q --offline --manifest-path e2e-bench/Cargo.toml
# Rustdoc examples are part of the contract (amgen-core and amgen-trace
# warn on missing docs; their doc-examples must keep compiling and passing).
cargo test --doc --workspace -q
cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
# The analyzer crate is new surface — hold it to the same bar explicitly.
cargo clippy -p amgen-lint --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q
# Lint gate: every DSL program in the repo must lint clean — the .amg
# example sets and the embedded paper programs, warnings fatal.
cargo run --release -q --bin amgen-lint -- --deny-warnings --time --examples examples/*.amg
# Certification gate: the same corpus must carry cost certificates and
# stay certifiable under a generous concrete fuel limit (E502/W504
# fire only if a program provably cannot fit), warnings fatal.
cargo run --release -q --bin amgen-lint -- --deny-warnings --certify --certify-fuel 100000 --stdlib examples/*.amg > /dev/null
# Benches: every target runs, so a panic in any figure bench fails CI.
# The gated ones time on amgen_bench::sample and assert (exit nonzero):
# - trace_overhead: coarse-traced fig06 <= 110% of untraced;
# - fault_overhead: budget-armed fig06 <= 102% of plain, a never-firing
#   hook <= 105%;
# - cache_overhead: fig06 miss path <= 102% of uncached, a hit >= 10x
#   faster, warm optimize_order >= 10x faster than the cold search;
# - chip_scale: indexed latch-up >= 5x the scan at 128 stripes; fitted
#   growth exponents < 1.5 for latch-up (8-128 stripes), connectivity
#   (extraction kernel, memo bypassed) and the full Drc::check (index
#   and extraction memo warm) on fig_chip at 1-16 tiles; fig_chip 10x
#   assembly p50 < 1 ms; indexed latch-up and extraction byte-identical
#   to the scans on the assembled chip;
# - analyze: one six-pass certification sweep of the 11-source corpus
#   (stdlib + examples) <= 5 ms, the corpus certifying clean with closed
#   top-level fuel bounds.
cargo bench -p amgen-bench
# Chaos gate: the seeded fault-injection sweep over the figure workloads
# (no panic escapes a public API, every failure is typed and staged, the
# optimizer never wedges) runs in release to also exercise the optimized
# unwind paths.
cargo test --release -q -p amgen-faults
# Panic isolation depends on unwinding: reject any attempt to switch a
# workspace crate (or profile) to panic="abort".
if grep -rn 'panic *= *"abort"' --include=Cargo.toml .; then
    echo 'ci: panic="abort" would break catch_unwind worker isolation' >&2
    exit 1
fi
# Determinism gate in release: optimized builds must produce the same
# byte-identical layouts, diagnostics and cache-transparent reruns the
# debug test suite proved (HashMap-iteration leaks can be
# optimization-sensitive).
cargo test --release -q -p amgen-dsl --test determinism
# Serve gate in release: the load harness replays hundreds of
# concurrent mixed requests (figure workloads + the hostile corpus's
# bombs) against a live server — zero panics, byte-identical
# deterministic payloads, bombs refused at admission with zero fuel
# spent, p99 under the latency budget (the test asserts; the printed
# BENCH_serve line is the number recorded in BENCH_serve.json).
cargo test --release -q -p amgen-serve --test load -- --nocapture | grep -E 'BENCH_serve|test result'
# Service-resilience gate in release: workers killed and wedged
# mid-load (deterministic seeded kill schedule), shutdown while clients
# are still sending, truncated connections, breaker trips, snapshot
# warm restart — every accepted request gets exactly one typed
# response and the process never dies.
cargo test --release -q -p amgen-serve --test chaos_serve
# Chaos soak: >=30 s of mixed load with >=3 injected worker kills and
# one mid-load graceful restart over a cache snapshot; the printed
# BENCH_serve_chaos line is the throughput-under-chaos number recorded
# in BENCH_serve.json.
cargo test --release -q -p amgen-serve --test chaos_serve -- --ignored --nocapture | grep -E 'BENCH_serve_chaos'
# Daemon smoke: one --once session over stdin must serve a figure
# request and refuse a fuel bomb at admission, end to end through the
# real binary — and the exit status must discriminate: 0 all-ok,
# 1 any typed-error response, 2 transport failure.
SERVE_OUT=$(printf '64\n{"id":"s","source":"row = ContactRow(layer = \\"poly\\", W = 10)"}' \
    | cargo run --release -q --bin amgen-serve -- --once) \
    || { echo 'ci: serve smoke: clean session must exit 0' >&2; exit 1; }
echo "$SERVE_OUT" | grep -q '"id":"s".*"ok":true' || { echo 'ci: serve smoke: figure request failed' >&2; exit 1; }
set +e
SERVE_OUT=$(printf '57\n{"id":"b","source":"FOR i = 1 TO 100000\\n  x = i\\nEND\\n"}' \
    | cargo run --release -q --bin amgen-serve -- --once)
SERVE_STATUS=$?
set -e
[ "$SERVE_STATUS" -eq 1 ] || { echo "ci: serve smoke: refused session must exit 1, got $SERVE_STATUS" >&2; exit 1; }
echo "$SERVE_OUT" | grep -q 'ADMISSION_REFUSED' || { echo 'ci: serve smoke: fuel bomb not refused at admission' >&2; exit 1; }
# Wire-contract gate: docs/SERVING.md's error-code table is pinned
# row-for-row to the server's ErrorCode::ALL.
cargo test -q --test doc_protocol
# Documentation gate: every relative link in README/DESIGN/docs must
# resolve (the checker also runs as part of the workspace tests above;
# kept explicit so a docs-only change can run it alone).
cargo test -q --test doc_links
echo "ci: all checks passed"
