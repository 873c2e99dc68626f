#!/usr/bin/env bash
# Byte sizes of the repository's prose documents.
#
#   scripts/prose.sh
#
# Prints the size of DESIGN.md, EXPERIMENTS.md, README.md and CHANGES.md,
# then their total. Informational: it gates nothing.
set -euo pipefail

cd "$(dirname "$0")/.."
wc -c DESIGN.md EXPERIMENTS.md README.md CHANGES.md
