#!/bin/sh
# A failing tpnet_chaos campaign prints a replay line; running that
# line must rerun exactly the same campaign. --hook-skip-kills breaks
# fault recovery on purpose, so this campaign always fails.
# Usage: chaos_replay.sh <tpnet_chaos>
set -u
chaos=$1
run=$("$chaos" --campaigns 1 --seed 3 --max-cycles 8000 --k 4 \
      --hook-skip-kills)
[ $? -eq 1 ] || { echo "FAIL: the seeded campaign did not fail" >&2; exit 1; }
line=$(printf '%s\n' "$run" | sed -n 's/^    replay: tpnet_chaos //p')
[ -n "$line" ] || { echo "FAIL: no replay line in:\n$run" >&2; exit 1; }
replayed=$(eval "\"\$chaos\" $line")
a=$(printf '%s\n' "$run" | grep ' seed 3: ')
b=$(printf '%s\n' "$replayed" | grep ' seed 3: ')
echo "run:    $a"
echo "replay: tpnet_chaos $line"
echo "        $b"
if [ -z "$a" ] || [ "$a" != "$b" ]; then
    echo "FAIL: the replay line ran a different campaign" >&2
    exit 1
fi
