#!/usr/bin/env bash
# Replay every chaos plan on this tree and on <ref>, over the same root,
# and cmp the two reports of each plan — the "behaviour unchanged" proof
# a refactoring PR owes. Exit 0 only when every pair is byte-identical.
# For a pair that differs it names what moved: each JSON key path that
# differs (list indices folded to [*], with a count), then whether any
# verdict (a checks[*].ok or the top-level ok) changed.
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
    python - "$work/reports/$name.ref.json" "$work/reports/$name.here.json" <<'PY' || true
import collections, json, re, sys

ref, here = (json.load(open(path)) for path in sys.argv[1:3])
moved = collections.Counter()


def walk(a, b, path):
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                moved[f"{path}.{key} ({'added' if key in b else 'removed'})"] += 1
            else:
                walk(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for index, (x, y) in enumerate(zip(a, b)):
            walk(x, y, f"{path}[{index}]")
    elif json.dumps(a) != json.dumps(b):
        moved[path] += 1


walk(ref, here, "")
folded = collections.Counter()
for path, count in moved.items():
    folded[re.sub(r"\[\d+\]", "[*]", path)] += count
for path, count in sorted(folded.items()):
    print(f"  {count:4d}  {path}")
verdicts = lambda report: (report.get("ok"), [c.get("ok") for c in report.get("checks", [])])
(ok_ref, checks_ref), (ok_here, checks_here) = verdicts(ref), verdicts(here)
if (ok_ref, checks_ref) == (ok_here, checks_here):
    print(f"  verdicts unchanged: ok {ok_here}, {sum(map(bool, checks_here))}/{len(checks_here)} checks ok")
else:
    print(f"  VERDICT CHANGED: ok {ok_ref} -> {ok_here}, checks {checks_ref} -> {checks_here}")
PY
    status=1
  fi
done
exit $status
