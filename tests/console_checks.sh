#!/usr/bin/env bash
# End-to-end checks of the fedmentor command line: run, sweep and report on
# small configs, and the exit codes, messages and artifacts of failed runs.
# The arguments are the command to check, for example:
#
#   bash tests/console_checks.sh fedmentor                             # installed script
#   PYTHONPATH=src bash tests/console_checks.sh python -m fedmentor.cli   # source tree
#
# Every file it writes goes into a fresh temporary directory, removed on exit.
set -euo pipefail

if [ $# -eq 0 ]; then
  echo "usage: bash tests/console_checks.sh COMMAND [ARG ...]" >&2
  exit 2
fi
cli=("$@")
fedmentor() { command "${cli[@]}" "$@"; }
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Run, report and sweep on the stock config at scale 0.02, and each strategy.
printf 'rounds: 1\ndata: {scale: 0.02}\n' > "$tmp/smoke.yaml"
fedmentor run --config "$tmp/smoke.yaml" --out "$tmp/runs"
fedmentor report "$tmp"/runs/run-seed0-* --plot-csv "$tmp/smoke-plot.csv"
test "$(head -n 1 "$tmp/smoke-plot.csv")" = "$(printf 'round,metric,value\r')"
test "$(wc -l < "$tmp/smoke-plot.csv")" -gt 1
fedmentor sweep --config "$tmp/smoke.yaml" --domain IRF --eps 0.5 1.0 --out "$tmp/sweeps"
sweep_csv=$(ls "$tmp"/sweeps/run-seed0-*/sweep.csv)
test "$(wc -l < "$sweep_csv")" -eq 3
sweep_header=$(printf 'domain,eps,final_accuracy,gate_rounds,scale_multiplier,total_comm_bytes,run_dir\r')
test "$(head -n 1 "$sweep_csv")" = "$sweep_header"
printf "rounds: 1\ndata: {scale: 0.02}\nstrategy: {kind: 'off'}\n" > "$tmp/off.yaml"
fedmentor run --config "$tmp/off.yaml" --out "$tmp/off-runs"
fedmentor report "$tmp"/off-runs/run-seed0-*
printf 'rounds: 1\ndata: {scale: 0.02}\nstrategy: {kind: static_noise, sigma: 0.008}\n' > "$tmp/static.yaml"
fedmentor run --config "$tmp/static.yaml" --out "$tmp/static-runs"
fedmentor report "$tmp"/static-runs/run-seed0-*
printf 'rounds: 1\ndata: {scale: 0.02}\nstrategy: {kind: uniform, eps_glob: 1.0}\n' > "$tmp/uniform.yaml"
fedmentor run --config "$tmp/uniform.yaml" --out "$tmp/uniform-runs"
fedmentor report "$tmp"/uniform-runs/run-seed0-*
printf 'rounds: 1\ndata: {scale: 0.02}\nstrategy: {kind: utility_threshold, tau: 0.5}\n' > "$tmp/threshold.yaml"
fedmentor run --config "$tmp/threshold.yaml" --out "$tmp/threshold-runs"
fedmentor report "$tmp"/threshold-runs/run-seed0-*

# A config error exits 2, and leaves no run directory.
printf 'rounds: 1\nstrategy: {kind: static_noise, sigma: 0.008}\nthresholds: {accuracy: 0.9}\n' > "$tmp/replaced.yaml"
status=0
fedmentor run --config "$tmp/replaced.yaml" --out "$tmp/replaced-runs" || status=$?
test "$status" -eq 2
printf 'rounds: 1\nmodel: {input_dim: 1, hidden_dim: 4, rank: 1}\n' > "$tmp/flat.yaml"
status=0
fedmentor run --config "$tmp/flat.yaml" --out "$tmp/flat-runs" || status=$?
test "$status" -eq 2
test -z "$(ls -d "$tmp"/flat-runs/run-seed0-* 2>/dev/null)"

# YAML 1.2 exponent floats load as floats.
printf 'rounds: 1\ndata: {scale: 0.02}\ncalibration: {nominal_delta: 1e-5}\n' > "$tmp/delta.yaml"
fedmentor run --config "$tmp/delta.yaml" --out "$tmp/delta-runs"

# A run that diverges in round 4 exits 3, and report names the round.
printf 'learning_rate: 50.0\ndata:\n  overrides:\n    IRF: {n_train: 5}\n' > "$tmp/diverge.yaml"
status=0
fedmentor run --config "$tmp/diverge.yaml" --out "$tmp/diverge-runs" 2> "$tmp/diverge-stderr.txt" || status=$?
cat "$tmp/diverge-stderr.txt"
test "$status" -eq 3
grep -F 'round 4' "$tmp/diverge-stderr.txt"
if grep -F RuntimeWarning "$tmp/diverge-stderr.txt"; then exit 1; fi
fedmentor report "$tmp"/diverge-runs/run-seed0-* > "$tmp/diverge-report.txt"
grep -F 'round 4' "$tmp/diverge-report.txt"

# A privatize failure in round 1 names its client and phase, and report of
# the zero-round run writes a header-only plot CSV.
printf 'rounds: 1\ndata: {scale: 0.02}\ncalibration: {early: 1.0e308}\n' > "$tmp/overflow.yaml"
status=0
fedmentor run --config "$tmp/overflow.yaml" --out "$tmp/overflow-runs" 2> "$tmp/overflow-stderr.txt" || status=$?
cat "$tmp/overflow-stderr.txt"
test "$status" -eq 3
grep -F 'privatize' "$tmp/overflow-stderr.txt"
if grep -F RuntimeWarning "$tmp/overflow-stderr.txt"; then exit 1; fi
fedmentor report "$tmp"/overflow-runs/run-seed0-* --plot-csv "$tmp/overflow-plot.csv" > "$tmp/overflow-report.txt"
cat "$tmp/overflow-report.txt"
grep -F 'privatize' "$tmp/overflow-report.txt"
grep -F "plot-ready CSV in $tmp/overflow-plot.csv" "$tmp/overflow-report.txt"
test "$(cat "$tmp/overflow-plot.csv")" = "$(printf 'round,metric,value\r')"

# A sweep whose second run fails exits 3, keeps the first run's row in
# sweep.csv, and names the failed run's directory.
printf 'rounds: 2\ndata: {scale: 0.02}\ncalibration: {early: 1.0e300}\nbudgets: {entries: {Dreaddit: 1.0e300, IRF: 0.5, MultiWD: 1.0e300}}\n' > "$tmp/sweep-fail.yaml"
status=0
fedmentor sweep --config "$tmp/sweep-fail.yaml" --domain IRF --eps 1e300 1e-10 --out "$tmp/sweep-fail" 2> "$tmp/sweep-fail-stderr.txt" || status=$?
cat "$tmp/sweep-fail-stderr.txt"
test "$status" -eq 3
sweep_csv=$(ls "$tmp"/sweep-fail/run-seed0-*/sweep.csv)
test "$(wc -l < "$sweep_csv")" -eq 2
test "$(head -n 1 "$sweep_csv")" = "$sweep_header"
grep -F "partial artifacts in $(dirname "$sweep_csv")/eps-1e-10" "$tmp/sweep-fail-stderr.txt"

echo "console checks passed"
