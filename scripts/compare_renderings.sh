#!/usr/bin/env bash
# Compares the renderings of two lisa builds over the whole corpus: for every
# case and version (patched, buggy, and latest where the case has one),
# `lisa explain` stdout and its --html page must be byte-identical, and so
# must the text and the --html page of `lisa diff` between each case's buggy
# and patched ledgers.
# Each build diffs ledgers that it wrote itself, so a change to the ledger
# format alone moves nothing here. Prints one line per difference and a
# summary; exits 1 when anything differs.
#
# Usage: scripts/compare_renderings.sh <lisa-before> <lisa-after> [work-dir]
set -euo pipefail

if [[ $# -lt 2 ]]; then
  echo "usage: $0 <lisa-before> <lisa-after> [work-dir]" >&2
  exit 2
fi
before=$1
after=$2
work=${3:-$(mktemp -d)}
mkdir -p "$work/before" "$work/after"

# Runs `lisa explain` for one case and version with build $1 into side $2.
explain() {
  local lisa=$1 side=$2 case_id=$3 version=$4
  local flag=""
  [[ "$version" != patched ]] && flag="--$version"
  local out="$work/$side/$case_id.$version"
  local status=0
  "$lisa" explain "$case_id" $flag --html "$out.html" --ledger "$out.jsonl" \
    > "$out.txt" 2> /dev/null || status=$?
  echo "$status"
}

compared=0
differed=0
cases=$("$after" corpus | awk 'NR > 1 { print $1 }')
for case_id in $cases; do
  for version in patched buggy latest; do
    status_before=$(explain "$before" before "$case_id" "$version")
    status_after=$(explain "$after" after "$case_id" "$version")
    if [[ "$status_before" == 2 && "$status_after" == 2 ]]; then
      continue  # no such version of this case
    fi
    compared=$((compared + 1))
    if [[ "$status_before" != "$status_after" ]]; then
      echo "explain $case_id $version: exit $status_before -> $status_after"
      differed=$((differed + 1))
    fi
    for kind in txt html; do
      if ! cmp -s "$work/before/$case_id.$version.$kind" "$work/after/$case_id.$version.$kind"; then
        echo "explain $case_id $version: $kind differs"
        differed=$((differed + 1))
      fi
    done
  done
  for side in before after; do
    lisa=$before
    [[ "$side" == after ]] && lisa=$after
    "$lisa" diff "$work/$side/$case_id.buggy.jsonl" "$work/$side/$case_id.patched.jsonl" \
      --html "$work/$side/$case_id.diff.html" > "$work/$side/$case_id.diff.txt" 2> /dev/null || true
  done
  for kind in txt html; do
    if [[ ! -s "$work/after/$case_id.diff.$kind" ]] || \
       ! cmp -s "$work/before/$case_id.diff.$kind" "$work/after/$case_id.diff.$kind"; then
      echo "diff $case_id: $kind differs"
      differed=$((differed + 1))
    fi
  done
done
echo "compared $compared explain runs and $(wc -w <<< "$cases") ledger diffs: $differed difference(s)"
[[ "$differed" -eq 0 ]]
