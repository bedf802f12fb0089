#!/bin/sh
# Smoke test of the four tools' command lines:
#   - every --help lists each option exactly once, including the
#     spellings the tools share through the SimConfig option table;
#   - the retired spellings (--K, --tailack, --hw-acks, --faults,
#     --mesh) are unknown options;
#   - malformed numbers, non-numeric --sweep entries and out-of-range
#     --fail node ids are rejected.
# Usage: smoke.sh <tpnet_cli> <tpnet_chaos> <tpnet_verify> <tpnet_trace>
set -u
cli=$1 chaos=$2 verify=$3 trace=$4
status=0
fail() { echo "FAIL: $*" >&2; status=1; }

options() { # option names in the --help of the command "$@"
    "$@" --help | sed -n 's/^  --\([A-Za-z0-9-]*\).*/\1/p'
}

# check_help "<command>" <spelling>...: each spelling listed once,
# and no option listed twice.
check_help() {
    cmd=$1
    shift
    names=$(options $cmd) || fail "$cmd --help exited nonzero"
    dups=$(printf '%s\n' "$names" | sort | uniq -d)
    [ -z "$dups" ] || fail "$cmd --help lists twice: $dups"
    for name in "$@"; do
        n=$(printf '%s\n' "$names" | grep -cx -- "$name")
        [ "$n" -eq 1 ] || fail "$cmd --help lists --$name $n times"
    done
}

check_help "$cli" protocol topology k scout-k m tail-ack hardware-acks \
    node-faults link-faults classes load seed no-event-skip
check_help "$chaos" protocol topology k scout-k tail-ack load classes \
    recovery victim verify-cwg seed
check_help "$verify" protocol topology k scout-k tail-ack hardware-acks \
    load classes recovery victim seed node-kills
check_help "$trace" protocol topology k scout-k m length
check_help "$trace record" classes recovery victim no-event-skip seed
check_help "$trace check" scout-k

for cmd in "$cli" "$chaos" "$verify" "$trace" "$trace check"; do
    for old in K tailack hw-acks faults mesh; do
        if out=$($cmd --$old 1 2>&1); then
            fail "$cmd accepted --$old"
        fi
        case $out in
          *"unknown option --$old"*) ;;
          *) fail "$cmd --$old: expected 'unknown option', got: $out" ;;
        esac
    done
done

if out=$("$cli" --sweep 0.05,abc --warmup 0 --measure 10 2>&1); then
    fail "tpnet_cli --sweep 0.05,abc succeeded"
fi
case $out in
  *"bad load 'abc'"*) ;;
  *) fail "--sweep 0.05,abc: expected the bad entry named, got: $out" ;;
esac
for bad in "--k 8abc" "--load 0.1x" "--k 3.7" "--seed -1"; do
    if "$cli" $bad --warmup 0 --measure 10 >/dev/null 2>&1; then
        fail "tpnet_cli accepted $bad"
    fi
done
for bad in 7x 100000 -1; do
    out=$($trace --protocol TP --fail "$bad" 2>&1)
    rc=$?
    [ "$rc" -eq 1 ] || fail "tpnet_trace --fail $bad exited $rc"
    case $out in
      *"is not a list of node ids"*) ;;
      *) fail "tpnet_trace --fail $bad: got: $out" ;;
    esac
done
exit $status
