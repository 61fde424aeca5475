#!/bin/sh
# Bounded backpressure: a 1-worker, 1-slot daemon whose jobs are
# floored at 400 ms must answer BUSY (not queue unboundedly) when 8
# clients submit at once — and still serve some of them.
#
# usage: service_backpressure.sh HDRD_SIM HDRD_SERVED HDRD_CLIENT
set -e
SIM=$1
SERVED=$2
CLIENT=$3

rm -rf svc_bp svc_bp.sock
mkdir -p svc_bp
"$SIM" --workload=micro.ping_pong --scale=0.05 \
       --record=svc_bp/ping.trc > /dev/null

"$SERVED" --socket=svc_bp.sock --workers=1 --queue=1 \
          --min-job-ms=400 &
pid=$!
trap 'kill "$pid" 2>/dev/null || true' EXIT

i=0
while [ ! -S svc_bp.sock ]; do
    i=$((i + 1))
    [ "$i" -le 100 ]
    sleep 0.1
done

st=0
out=$("$CLIENT" --socket=svc_bp.sock --omit-timing --parallel=8 \
                --max-attempts=1 --summary svc_bp/ping.trc) || st=$?
echo "$out"
# Exit 2 = some BUSY, no errors.
[ "$st" -eq 2 ]
ok=$(echo "$out" | sed -n 's/^ok=\([0-9]*\) .*/\1/p')
busy=$(echo "$out" | sed -n 's/.* busy=\([0-9]*\) .*/\1/p')
[ "$ok" -ge 1 ]
[ "$busy" -ge 1 ]
# A BUSY reply carries a retry hint; retrying must eventually succeed.
"$CLIENT" --socket=svc_bp.sock --omit-timing --parallel=4 \
          --max-attempts=21 --summary svc_bp/ping.trc \
    | grep -q 'busy=0 error=0'

kill -TERM "$pid"
wait "$pid"
