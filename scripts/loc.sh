#!/usr/bin/env bash
# Non-test line counts of the version store crate's sources.
#
#   scripts/loc.sh [DIR]        # DIR defaults to crates/store/src
#
# Prints, per `.rs` file under DIR, the lines outside `#[cfg(test)]` items,
# then the total. A `#[cfg(test)]` attribute removes itself, any attributes
# stacked under it and the item they annotate: up to its `;` when the item
# has no body, else through the line where its braces balance. Blank lines,
# comments and doc comments count like code. Informational: it gates
# nothing.
set -euo pipefail

cd "$(dirname "$0")/.."
dir=${1:-crates/store/src}

find "$dir" -name '*.rs' | sort | while read -r file; do
  awk '
    # Outside a test item: look for its attribute.
    !skip && /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { skip = 1; depth = 0; opened = 0; next }
    skip {
      # Attributes stacked under `#[cfg(test)]` belong to the item.
      if (!opened && $0 ~ /^[[:space:]]*#\[/) next
      line = $0
      sub(/\/\/.*/, "", line)   # braces in line comments do not count
      opens = gsub(/\{/, "{", line)
      closes = gsub(/\}/, "}", line)
      depth += opens - closes
      if (opens > 0) opened = 1
      if ((opened && depth <= 0) || (!opened && line ~ /;[[:space:]]*$/)) skip = 0
      next
    }
    { n++ }
    END { printf "%6d  %s\n", n, FILENAME }
  ' "$file"
done | awk '{ print; total += $1 } END { printf "%6d  total\n", total }'
