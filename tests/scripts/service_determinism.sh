#!/bin/sh
# Determinism across shard counts, submission orders, and submission
# styles: the same three traces submitted to a 1-worker daemon, a
# 16-worker daemon, in different orders, one-shot and pipelined over
# a single kept-alive connection, named by --socket and as a
# one-daemon --daemons fleet, and streamed chunk-wise with --stream
# (file and stdin sources) must produce byte-identical reports, each
# matching the one-shot CLI golden.
#
# usage: service_determinism.sh HDRD_SIM HDRD_SERVED HDRD_CLIENT
set -e
SIM=$1
SERVED=$2
CLIENT=$3

rm -rf svc_det svc_det_pipe svc_det.sock
mkdir -p svc_det svc_det_pipe
for w in ping_pong racy_counter locked_counter; do
    "$SIM" --workload=micro.$w --scale=0.05 \
           --record=svc_det/$w.trc > /dev/null
    "$SIM" --replay=svc_det/$w.trc \
           --report-json=svc_det/$w.golden.json > /dev/null
done

serve() {
    w=$1
    shift
    "$SERVED" --socket=svc_det.sock --workers="$w" --queue=32 "$@" &
    pid=$!
    i=0
    while [ ! -S svc_det.sock ]; do
        i=$((i + 1))
        [ "$i" -le 100 ]
        sleep 0.1
    done
}

# 1 worker, natural order.
serve 1
"$CLIENT" --socket=svc_det.sock --omit-timing --out=svc_det/agg_a.json \
    svc_det/ping_pong.trc svc_det/racy_counter.trc \
    svc_det/locked_counter.trc
# Same server, reversed order.
"$CLIENT" --socket=svc_det.sock --omit-timing --out=svc_det/agg_b.json \
    svc_det/locked_counter.trc svc_det/racy_counter.trc \
    svc_det/ping_pong.trc
# Same server named as a one-daemon fleet: a fleet of one is the
# same client path and writes the same bytes.
"$CLIENT" --daemons=svc_det.sock --omit-timing \
    --out=svc_det/agg_d.json \
    svc_det/ping_pong.trc svc_det/racy_counter.trc \
    svc_det/locked_counter.trc
kill -TERM "$pid"
wait "$pid"

# Same 1-worker world, but pipelined 8-deep over one connection.
serve 1
"$CLIENT" --socket=svc_det.sock --omit-timing --pipeline=8 \
    --out=svc_det/agg_p1.json \
    svc_det/ping_pong.trc svc_det/racy_counter.trc \
    svc_det/locked_counter.trc
kill -TERM "$pid"
wait "$pid"

# 16 workers, concurrent submission, shuffled order.
serve 16
"$CLIENT" --socket=svc_det.sock --omit-timing --out=svc_det/agg_c.json \
    --out-dir=svc_det \
    svc_det/racy_counter.trc svc_det/locked_counter.trc \
    svc_det/ping_pong.trc
# 16 workers again, pipelined shuffled batch with per-trace reports:
# out-of-order completion against many engines must not change one
# byte of any report.
"$CLIENT" --socket=svc_det.sock --omit-timing --pipeline=8 \
    --out=svc_det/agg_p16.json --out-dir=svc_det_pipe \
    svc_det/locked_counter.trc svc_det/ping_pong.trc \
    svc_det/racy_counter.trc
kill -TERM "$pid"
wait "$pid"

# Streamed submissions (HDS1.2): the same traces uploaded chunk-wise
# with --stream — from a file and from stdin — against 1- and
# 16-worker daemons. A small credit window forces many CREDIT round
# trips and a low partial interval forces live partial reports; the
# final report must still be byte-identical to the buffered golden.
for workers in 1 16; do
    serve "$workers" --stream-buffer=65536 --partial-interval=1000
    for w in ping_pong racy_counter locked_counter; do
        "$CLIENT" --socket=svc_det.sock --omit-timing \
            --stream svc_det/$w.trc \
            > svc_det/$w.stream$workers.json
        cmp svc_det/$w.golden.json svc_det/$w.stream$workers.json
        "$CLIENT" --socket=svc_det.sock --omit-timing --session=$w \
            --stream - < svc_det/$w.trc \
            > svc_det/$w.stdin$workers.json
        cmp svc_det/$w.golden.json svc_det/$w.stdin$workers.json
    done
    "$CLIENT" --daemons=svc_det.sock --omit-timing \
        --stream svc_det/ping_pong.trc \
        > svc_det/ping_pong.fleet$workers.json
    cmp svc_det/ping_pong.golden.json \
        svc_det/ping_pong.fleet$workers.json
    kill -TERM "$pid"
    wait "$pid"
done

cmp svc_det/agg_a.json svc_det/agg_b.json
cmp svc_det/agg_a.json svc_det/agg_d.json
cmp svc_det/agg_a.json svc_det/agg_c.json
cmp svc_det/agg_a.json svc_det/agg_p1.json
cmp svc_det/agg_a.json svc_det/agg_p16.json
for w in ping_pong racy_counter locked_counter; do
    cmp svc_det/$w.golden.json svc_det/$w.trc.report.json
    cmp svc_det/$w.golden.json svc_det_pipe/$w.trc.report.json
done
