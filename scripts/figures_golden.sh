#!/usr/bin/env bash
# Figure golden: the paper reproduction must not move.
#
#   cargo build --release -p wsi-bench --bin figures
#   scripts/figures_golden.sh
#
# Runs target/release/figures once per subcommand (fig5, fig6, fig7, fig9,
# ablations, ssi, m1), each from its own empty temporary directory, so the
# CSV files a run writes land in that directory's results/. Every file a run
# writes is compared byte for byte with the committed copy under results/,
# and `ssi`'s printed table (less its "done in" timing line) with
# results/e1_ssi.txt. Prints one line per comparison and exits non-zero if
# any differs, or if a committed results/fig*.csv, results/ablation_*.csv or
# results/e1_ssi.txt is written by no subcommand (a golden nothing
# regenerates would go stale unseen). The simulations are seeded, so the
# figures repeat exactly.
# Takes about two and a half minutes on a 2-core host, so scripts/tier1.sh
# runs only the `ssi` comparison; run this after a change to the oracle,
# the simulator or the cluster model.
set -euo pipefail

cd "$(dirname "$0")/.."
repo=$PWD
figures=$repo/target/release/figures
[ -x "$figures" ] || {
  echo "build it first: cargo build --release -p wsi-bench --bin figures" >&2
  exit 2
}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

status=0
written=" "
compare() { # <fresh file> <committed file>
  written+="${2#"$repo"/} "
  if cmp -s "$1" "$2"; then
    echo "identical  ${2#"$repo"/}"
  else
    echo "DIFFERS    ${2#"$repo"/}"
    diff "$1" "$2" | head -n 20 || true
    status=1
  fi
}

for cmd in fig5 fig6 fig7 fig9 ablations ssi m1; do
  dir=$tmp/$cmd
  mkdir -p "$dir"
  (cd "$dir" && "$figures" "$cmd" >stdout.txt)
  if [ "$cmd" = ssi ]; then
    grep -v '^done in' "$dir/stdout.txt" >"$dir/e1_ssi.txt"
    compare "$dir/e1_ssi.txt" "$repo/results/e1_ssi.txt"
  fi
  for fresh in "$dir"/results/*; do
    [ -e "$fresh" ] || continue
    compare "$fresh" "$repo/results/$(basename "$fresh")"
  done
done

for golden in "$repo"/results/fig*.csv "$repo"/results/ablation_*.csv "$repo"/results/e1_ssi.txt; do
  [ -e "$golden" ] || continue
  case "$written" in
    *" ${golden#"$repo"/} "*) ;;
    *)
      echo "UNWRITTEN  ${golden#"$repo"/} (no subcommand writes it)"
      status=1
      ;;
  esac
done
exit $status
