#!/usr/bin/env bash
# Checks that the working tree joins exactly as <git-ref> does.
#
#   scripts/identity.sh HEAD~     # or any commit, branch or tag
#
# Exports <ref> with `git archive` into a temporary directory, builds its
# kjoin_cli there (Release), and builds the working tree's kjoin_cli in
# build/. Both then self-join the same generated POI workload
# (`--generate 3000`) as K-Join (--plus=false) and K-Join+ (--plus=true)
# at --threads 1 and 4. Each pair TSV, and each mode's index snapshot,
# is compared with `cmp`. Prints one line per comparison and exits
# non-zero on any difference. The temporary directory is removed on exit.
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 <git-ref>" >&2
  exit 2
fi
ref="$1"
repo="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 1)"
if (( jobs > 4 )); then jobs=4; fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

build() {  # build <source dir> <build dir> <log>
  if ! { cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Release &&
         cmake --build "$2" --target kjoin_cli -j "$jobs"; } > "$3" 2>&1; then
    tail -20 "$3" >&2
    echo "build failed in $1" >&2
    exit 2
  fi
}

echo "== building $ref"
mkdir "$tmp/ref"
git -C "$repo" archive "$ref" | tar -x -C "$tmp/ref"
build "$tmp/ref" "$tmp/ref/build" "$tmp/ref.log"

echo "== building the working tree"
build "$repo" "$repo/build" "$tmp/work.log"

different=0
compare() {  # compare <what> <ref file> <working-tree file>
  if cmp -s "$2" "$3"; then
    echo "same       $1"
  else
    echo "DIFFERENT  $1"
    different=1
  fi
}

for plus in false true; do
  for threads in 1 4; do
    for side in ref work; do
      if [[ "$side" == ref ]]; then
        cli="$tmp/ref/build/examples/kjoin_cli"
      else
        cli="$repo/build/examples/kjoin_cli"
      fi
      snapshot=()
      [[ "$threads" == 1 ]] && snapshot=(--save-snapshot "$tmp/$side-$plus.snap")
      (cd "$repo" && "$cli" --generate 3000 --plus="$plus" --threads "$threads" \
        --out "$tmp/$side-$plus-$threads.tsv" "${snapshot[@]}" > /dev/null 2>&1)
    done
    compare "pairs  --plus=$plus --threads $threads ($(wc -l < "$tmp/work-$plus-$threads.tsv") lines)" \
      "$tmp/ref-$plus-$threads.tsv" "$tmp/work-$plus-$threads.tsv"
  done
  compare "snapshot --plus=$plus" "$tmp/ref-$plus.snap" "$tmp/work-$plus.snap"
done

if (( different )); then
  echo "outputs differ from $ref" >&2
  exit 1
fi
echo "all outputs identical to $ref"
