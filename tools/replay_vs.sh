#!/usr/bin/env bash
# Replay every chaos plan on this tree and on <ref>, over the same root,
# and cmp the two reports of each plan — the "behaviour unchanged" proof
# a refactoring PR owes. Exit 0 only when every pair is byte-identical.
#
#   tools/replay_vs.sh <git-ref>        e.g. tools/replay_vs.sh HEAD~1
#
# <ref> is unpacked with `git archive` into a temp dir (nothing is
# registered in .git); both sides replay the working tree's plans/*.json
# (a plan's own "mode" decides whether it runs over real sockets).
set -euo pipefail

ref=${1:?usage: tools/replay_vs.sh <git-ref>}
repo=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/ref" "$work/reports"
git -C "$repo" archive "$ref" | tar -x -C "$work/ref"

status=0
for plan in "$repo"/plans/*.json; do
  name=$(basename "$plan" .json)
  for side in ref here; do
    if [ "$side" = ref ]; then src="$work/ref/src"; else src="$repo/src"; fi
    # A plan may exit non-zero on an invariant violation; what is
    # compared is the report, so keep going and let cmp decide.
    PYTHONPATH="$src" python -m repro --root "$work/db" chaos --plan "$plan" \
      --output "$work/reports/$name.$side.json" >/dev/null || true
  done
  if cmp -s "$work/reports/$name.ref.json" "$work/reports/$name.here.json"; then
    echo "identical  $name"
  else
    echo "DIFFERENT  $name"
    diff "$work/reports/$name.ref.json" "$work/reports/$name.here.json" | head -40 || true
    status=1
  fi
done
exit $status
