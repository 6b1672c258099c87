#!/usr/bin/env bash
# Check that one lsmdp run reproduces from its manifest.
#
# Usage: scripts/rerun_check.sh OUT [--expect PREFIX] [--max-mib MIB] -- COMMAND [ARG ...]
#
# Runs `python -m lsmdp.cli COMMAND ARG ... --out OUT`, under
# scripts/peak_rss.py's limit of MIB MiB when given, and fails unless its
# stdout starts with PREFIX when given.  It then copies OUT to OUT-first,
# reruns COMMAND from OUT/manifest.ini into the same OUT, and fails unless
# the rerun rewrites every file of the first run byte for byte.
set -euo pipefail

out=$1
shift
expect=
limit=()
while [ "$1" != "--" ]; do
    case $1 in
        --expect) expect=$2 ;;
        --max-mib) limit=(python "$(dirname "$0")/peak_rss.py" --max-mib "$2" --) ;;
        *) echo "unknown option $1" >&2; exit 2 ;;
    esac
    shift 2
done
shift

stdout=$("${limit[@]}" python -m lsmdp.cli "$@" --out "$out")
echo "$stdout"
case $stdout in
    "$expect"*) ;;
    *) echo "expected stdout starting with '$expect', got: $stdout" >&2; exit 1 ;;
esac
rm -rf "$out-first"
cp -r "$out" "$out-first"
python -m lsmdp.cli "$1" --config "$out/manifest.ini" > /dev/null
for f in "$out-first"/*; do
    cmp "$f" "$out/$(basename "$f")"
done
echo "$out: the rerun from the manifest rewrote every file byte for byte"
