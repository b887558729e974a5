#!/bin/sh
# Tier-1 verification, fully offline (the main workspace has no external
# dependencies). Run from the repository root.
#
#   ./ci.sh            offline build + full workspace test suite
#   ./ci.sh network    additionally run the optional proptest/criterion
#                      suite in extras/ (needs crates.io access)
set -eu

echo "== rustfmt =="
cargo fmt --check

echo "== clippy (offline, deny warnings) =="
cargo clippy --workspace --offline -- -D warnings

echo "== rustdoc (offline, deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== build (offline) =="
cargo build --release --offline

echo "== tests (offline) =="
cargo test -q --workspace --offline

echo "== crash-consistency property suite (offline) =="
cargo test -q --offline --test salvage

echo "== tracing suite (zero perturbation + flight recorder, offline) =="
cargo test -q --offline --test tracing

# Wall-clock budget: the four storms + fixes + round-trips run in ~1.3 s
# release (budget 60 s), so the suite runs unconditionally.
echo "== storm scenario suite (four storms, golden pin, fix gates, offline) =="
cargo test -q --offline --test scenarios

echo "== integrity suite (Merkle property, exhaustive corruption sweep, scrub golden, offline) =="
cargo test -q --offline --test integrity

echo "== observability suite (series round-trips, health verdicts, console golden, offline) =="
cargo test -q --offline --test obs

echo "== bench smoke (schema + deterministic-metric gate vs BENCH_pr5.json) =="
cargo run -q -p itc-bench --release --offline --bin bench -- --smoke

echo "== scrub bench smoke (deterministic scrub metrics vs BENCH_pr9.json) =="
cargo run -q -p itc-bench --release --offline --bin bench -- scrub --smoke

echo "== corruption-sweep determinism (same seed => byte-identical scrub report) =="
SCRUB_TMP=$(mktemp -d)
cargo run -q -p itc-bench --release --offline --bin bench -- scrub --smoke | grep -v wall_ms > "$SCRUB_TMP/a"
cargo run -q -p itc-bench --release --offline --bin bench -- scrub --smoke | grep -v wall_ms > "$SCRUB_TMP/b"
diff "$SCRUB_TMP/a" "$SCRUB_TMP/b"
rm -rf "$SCRUB_TMP"

echo "== vice-top smoke (deterministic series metrics + health verdicts vs BENCH_pr10.json) =="
cargo run -q -p itc-bench --release --offline --bin bench -- top --smoke

echo "== series-export determinism (same seed => byte-identical series JSONL) =="
TOP_TMP=$(mktemp -d)
cargo run -q -p itc-bench --release --offline --bin bench -- top --export "$TOP_TMP/a" > /dev/null
cargo run -q -p itc-bench --release --offline --bin bench -- top --export "$TOP_TMP/b" > /dev/null
diff -r "$TOP_TMP/a" "$TOP_TMP/b"
rm -rf "$TOP_TMP"

echo "== parallel determinism (sequential vs --parallel 4, byte-identical) =="
PDES_TMP=$(mktemp -d)
cargo run -q -p itc-bench --release --offline --bin pdes -- day --out "$PDES_TMP/day_seq.jsonl"
cargo run -q -p itc-bench --release --offline --bin pdes -- day --parallel 4 --out "$PDES_TMP/day_par.jsonl"
diff "$PDES_TMP/day_seq.jsonl" "$PDES_TMP/day_par.jsonl"
cargo run -q -p itc-bench --release --offline --bin pdes -- login --out "$PDES_TMP/login_seq.jsonl"
cargo run -q -p itc-bench --release --offline --bin pdes -- login --parallel 4 --out "$PDES_TMP/login_par.jsonl"
diff "$PDES_TMP/login_seq.jsonl" "$PDES_TMP/login_par.jsonl"
cargo run -q -p itc-bench --release --offline --bin pdes -- series --out "$PDES_TMP/series_seq.jsonl"
cargo run -q -p itc-bench --release --offline --bin pdes -- series --parallel 4 --out "$PDES_TMP/series_par.jsonl"
diff "$PDES_TMP/series_seq.jsonl" "$PDES_TMP/series_par.jsonl"
rm -rf "$PDES_TMP"

echo "== pdes bench smoke (identity + BENCH_pr7.json schema) =="
cargo run -q -p itc-bench --release --offline --bin pdes -- bench --smoke

echo "== trace determinism (same seed => byte-identical anomaly JSONL) =="
TRACE_TMP=$(mktemp -d)
cargo run -q -p itc-bench --release --offline --bin trace -- --export "$TRACE_TMP/a" > /dev/null
cargo run -q -p itc-bench --release --offline --bin trace -- --export "$TRACE_TMP/b" > /dev/null
diff -r "$TRACE_TMP/a" "$TRACE_TMP/b"
rm -rf "$TRACE_TMP"

# The benchmark's own correctness oracle: every fetch must return a value
# its owner stored, and the post-salvage sweep must read every file's last
# store. run.py exits non-zero when either check fails.
echo "== data-path correctness oracle (bulk_share, one seed) =="
python3 perfbench/run.py --workload bulk_share --seed 7 --seconds 1 --trace 0

if [ "${1:-}" = "network" ]; then
    echo "== optional: property-based suite (networked) =="
    (cd extras/proptest-suite && cargo test -q && cargo bench --no-run)
fi

echo "ci.sh: all green"
