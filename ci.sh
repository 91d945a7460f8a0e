#!/usr/bin/env sh
# Local CI gate: formatting, lints-as-errors, docs-as-errors, full test
# suite, example smoke-runs, and a check that report_output.txt and
# report_views.txt are current.
# Run from the repository root before pushing.
set -eu

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> cargo test -q"
cargo test -q

echo "==> benchmark: nicbench builds and passes its tests against the current API"
cargo test --release --offline -q --manifest-path nicbench/Cargo.toml

echo "==> chaos invariants under pinned seeds"
HNI_CHAOS_SEEDS="20260806,1991" cargo test -q -p hni-bench --test chaos

echo "==> smoke: examples trace_waterfall / profile_bottleneck, report r-r1"
cargo run -q -p hni-bench --example trace_waterfall --release > /dev/null
cargo run -q -p hni-bench --example profile_bottleneck --release > /dev/null
cargo run -q -p hni-bench --bin report --release -- r-r1 > /dev/null

echo "==> bench smoke: report perf --fast emits a valid BENCH_PERF.json"
cargo run -q -p hni-bench --bin report --release -- perf --fast bench_perf_smoke.json > /dev/null
for key in '"schema": "hni-bench-perf/2"' '"hot_loops"' '"cells_per_sec"' \
           '"speedup"' '"cores"' '"jobs"' \
           'aal5_sar_slab' 'hec_delineation' 'rx_reassembly' 'e2e_cells' \
           'vc_lookup' 'nic_line_oc12' 'nic_line_oc48'; do
    grep -q "$key" bench_perf_smoke.json || {
        echo "BENCH_PERF schema: missing $key" >&2; exit 1; }
done

# perf_gate <hot loop> <min cells/s> <label>: the loop's fast-mode rate
# in bench_perf_smoke.json must reach the floor.
perf_gate() {
    rate=$(tr ',' '\n' < bench_perf_smoke.json \
        | sed -n "/\"name\": \"$1\"/,/\"name\"/p" \
        | sed -n 's/.*"cells_per_sec": \([0-9.e+]*\).*/\1/p' | head -n 1)
    [ -n "$rate" ] || { echo "perf gate: no $1 rate" >&2; exit 1; }
    awk -v r="$rate" -v min="$2" 'BEGIN { exit !(r + 0 >= min + 0) }' || {
        echo "perf gate: $1 $rate cells/s < $3" >&2
        exit 1; }
    echo "    $1: $rate cells/s (floor $3)"
}

echo "==> perf gate: hec_delineation sustains OC-12 line rate (1.47M cells/s)"
# The burst delineator must stay comfortably past the 622.08 Mb/s line
# cell rate (622.08e6 / 424 = 1,467,170 cells/s) even in fast mode.
perf_gate hec_delineation 1470000 "OC-12 1.47M"

echo "==> perf gate: the byte-exact Nic pair keeps up with OC-3 and OC-12"
# The whole Nic path (send, TC scrambling, SONET framing, alignment,
# parsing, delineation, descrambling, reassembly) must carry every cell
# slot of an STS-3c payload (149.76e6 / 424 = 353,207 cells/s) and of
# the 622.08 Mb/s line (1,467,170 cells/s), in fast mode.
perf_gate nic_line_oc12 353207 "OC-3 353,207"
perf_gate nic_line_oc12 1470000 "OC-12 1.47M"
rm -f bench_perf_smoke.json

echo "==> expfmt lint: live expositions pass the conformance validator"
for id in r-f1 r-f2 r-f3; do
    cargo run -q -p hni-bench --bin report --release -- promlint "$id" > /dev/null || {
        echo "promlint $id failed" >&2; exit 1; }
done

echo "==> tail anatomy: blame line present, diff exits, exemplars stable across HNI_JOBS"
# The attributor must name a dominant stage on the canonical loaded run.
cargo run -q -p hni-bench --bin report --release -- tail r-f3 > tail_smoke.txt
grep -q 'p99 excess is' tail_smoke.txt || {
    echo "report tail r-f3: blame headline missing" >&2; exit 1; }
grep -q 'hni_tail_stage_share' tail_smoke.txt || {
    echo "report tail r-f3: Prometheus stage-share family missing" >&2; exit 1; }
rm -f tail_smoke.txt
# diff against itself succeeds; a stage-schema mismatch must exit 2.
cargo run -q -p hni-bench --bin report --release -- diff r-f3 r-f3 > /dev/null || {
    echo "report diff r-f3 r-f3 should succeed" >&2; exit 1; }
if cargo run -q -p hni-bench --bin report --release -- \
    diff r-f3 r-f1 > /dev/null 2>&1; then
    echo "report diff r-f3 r-f1: schema mismatch must exit non-zero" >&2; exit 1
fi
# The always-on reservoir is part of the deterministic contract: the
# exemplar report must be byte-identical across worker counts.
HNI_JOBS=1 cargo run -q -p hni-bench --bin report --release -- \
    exemplars r-f3 > exemplars_j1.txt
HNI_JOBS=4 cargo run -q -p hni-bench --bin report --release -- \
    exemplars r-f3 > exemplars_j4.txt
cmp exemplars_j1.txt exemplars_j4.txt || {
    echo "exemplar reservoir diverged across worker counts" >&2; exit 1; }
rm -f exemplars_j1.txt exemplars_j4.txt

echo "==> sentinel smoke: fresh baseline passes, doctored baseline trips"
rm -f sentinel_smoke_history.jsonl sentinel_smoke_perf.json
# Record a baseline, then re-check against it with a generous tolerance
# (fast-mode timings are noisy; the exact 20%-at-tight-tolerance logic
# is pinned by the deterministic sentinel unit tests).
cargo run -q -p hni-bench --bin report --release -- \
    perf --fast sentinel_smoke_perf.json --history sentinel_smoke_history.jsonl > /dev/null
cargo run -q -p hni-bench --bin report --release -- \
    perf --fast sentinel_smoke_perf.json --history sentinel_smoke_history.jsonl \
    --check --tolerance 3.0 > /dev/null || {
    echo "sentinel: fresh baseline should pass --check" >&2; exit 1; }
# Doctor the baseline 100x faster than reality: the check must fail 2.
sed 's/"median_ns":\([0-9]*\)\./"median_ns":0.\1/g' \
    sentinel_smoke_history.jsonl > sentinel_smoke_doctored.jsonl
if cargo run -q -p hni-bench --bin report --release -- \
    perf --fast sentinel_smoke_perf.json --history sentinel_smoke_doctored.jsonl \
    --check --tolerance 0.2 > /dev/null 2>&1; then
    echo "sentinel: doctored baseline must trip --check" >&2; exit 1
fi
rm -f sentinel_smoke_history.jsonl sentinel_smoke_doctored.jsonl sentinel_smoke_perf.json

echo "==> sampled trace identical across HNI_JOBS (1-in-1024, pinned seed)"
HNI_JOBS=1 cargo run -q -p hni-bench --bin report --release -- \
    trace r-f1 --sample 1024 --seed 7 > sampled_trace_j1.jsonl
HNI_JOBS=4 cargo run -q -p hni-bench --bin report --release -- \
    trace r-f1 --sample 1024 --seed 7 > sampled_trace_j4.jsonl
cmp sampled_trace_j1.jsonl sampled_trace_j4.jsonl || {
    echo "sampled trace diverged across worker counts" >&2; exit 1; }
rm -f sampled_trace_j1.jsonl sampled_trace_j4.jsonl

echo "==> r-w1 smoke: closed-loop golden verdict, identical across HNI_JOBS"
# The closed-loop transport report must render its PASS verdict (EPD/PPD
# dominance sharpened at the matched congestion point, satellite 10%-loss
# goodput nonzero) and be byte-identical across worker counts.
HNI_JOBS=1 cargo run -q -p hni-bench --bin report --release -- r-w1 > rw1_j1.txt
grep -q 'golden verdict: PASS' rw1_j1.txt || {
    echo "report r-w1: golden verdict is not PASS" >&2; exit 1; }
HNI_JOBS=4 cargo run -q -p hni-bench --bin report --release -- r-w1 > rw1_j4.txt
cmp rw1_j1.txt rw1_j4.txt || {
    echo "r-w1 sweep diverged across worker counts" >&2; exit 1; }
rm -f rw1_j1.txt rw1_j4.txt

echo "==> r-s1 smoke: million-VC golden verdict, identical across HNI_JOBS"
# The scale report must render its PASS verdict (flat-ish lookup cost,
# bounded memory per idle VC, goodput that does not collapse at 1M VCs)
# and be byte-identical across worker counts.
HNI_JOBS=1 cargo run -q -p hni-bench --bin report --release -- r-s1 > rs1_j1.txt
grep -q 'golden verdict: PASS' rs1_j1.txt || {
    echo "report r-s1: golden verdict is not PASS" >&2; exit 1; }
HNI_JOBS=4 cargo run -q -p hni-bench --bin report --release -- r-s1 > rs1_j4.txt
cmp rs1_j1.txt rs1_j4.txt || {
    echo "r-s1 sweep diverged across worker counts" >&2; exit 1; }
rm -f rs1_j1.txt rs1_j4.txt

echo "==> parallel report == serial report (HNI_JOBS 1 vs 4, pinned seeds)"
HNI_JOBS=1 cargo run -q -p hni-bench --bin report --release -- r-t4 > par_eq_serial.txt
HNI_JOBS=4 cargo run -q -p hni-bench --bin report --release -- r-t4 > par_eq_par.txt
HNI_JOBS=1 cargo run -q -p hni-bench --bin report --release -- r-t3 >> par_eq_serial.txt
HNI_JOBS=4 cargo run -q -p hni-bench --bin report --release -- r-t3 >> par_eq_par.txt
cmp par_eq_serial.txt par_eq_par.txt || {
    echo "parallel sweep diverged from serial report" >&2; exit 1; }
rm -f par_eq_serial.txt par_eq_par.txt

echo "==> report_output.txt matches a fresh report all"
cargo run -q -p hni-bench --bin report --release -- all > report_output.fresh.txt
cmp -s report_output.fresh.txt report_output.txt || {
    rm -f report_output.fresh.txt
    echo "report output changed; regenerate report_output.txt deliberately" >&2
    exit 1; }
rm -f report_output.fresh.txt

echo "==> report_views.txt matches fresh renderings of every report view"
# One section per id/view pair `report list` prints (the full JSONL
# traces pinned by cksum), then a sampled trace and a self-diff.
report="cargo run -q -p hni-bench --bin report --release --"
{
    $report list | while read -r id caps; do
        for view in $(echo "$caps" | tr -d '[]'); do
            echo "### report $view $id"
            if [ "$view" = trace ]; then
                $report trace "$id" | cksum
            else
                $report "$view" "$id"
            fi
        done
    done
    echo "### report trace r-f1 --sample 1024 --seed 7"
    $report trace r-f1 --sample 1024 --seed 7
    echo "### report diff r-f3 r-f3"
    $report diff r-f3 r-f3
} > report_views.fresh.txt
cmp -s report_views.fresh.txt report_views.txt || {
    rm -f report_views.fresh.txt
    echo "report views changed; regenerate report_views.txt deliberately" >&2
    exit 1; }
rm -f report_views.fresh.txt

echo "CI OK"
