#!/bin/sh
# Crash recovery of rbgp serve, driven from outside the process: onl-dynamic
# at n=256, ell=8, seed 42, over the text conversion of TRACE.
#
#   serve_crash.sh RBGP TRACE
#
# 1. Serve the first 4500 requests through a FIFO that stays open, with
#    --checkpoint-every 1000 --checkpoint-keep 3, so the server ends up
#    blocked waiting for request 4501.
# 2. Once `rbgp checkpoint` reads pos 4000, SIGKILL the server: no final
#    checkpoint is written.
# 3. `rbgp resume --skip-prefix` from that checkpoint over the whole trace
#    must print the uninterrupted run's result record.
# 4. Truncate generation 0: `rbgp checkpoint verify` must refuse it, and a
#    resume from generation 1 (pos 3000) must print the same record.
#
# Prints nothing; fails, naming the step, otherwise.  Every rbgp run is
# bounded by a 20 s kill timeout, and the wait for pos 4000 by 20 s.
set -e
rbgp=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
trace=$(cd "$(dirname "$2")" && pwd)/$(basename "$2")
tmp=$(mktemp -d)
pid=
cleanup() {
  if [ -n "$pid" ]; then kill -KILL "$pid" 2> /dev/null || true; fi
  rm -rf "$tmp"
}
trap cleanup EXIT
cd "$tmp"

fail() {
  echo "serve_crash: $*" >&2
  exit 1
}

# run ARGS...: `rbgp ARGS...` under the kill timeout, its stderr in err
run() {
  timeout -s KILL 20 "$rbgp" "$@" 2> err
}

run trace --convert "$trace" -n 256 --out trace.txt > /dev/null
set -- -n 256 --ell 8 --seed 42 --no-decisions
want=$(run serve "$@" --trace trace.txt | grep '"type":"result"') \
  || fail "the uninterrupted run printed no result: $(cat err)"

# 1: the server reads the FIFO; this shell holds it open read-write, so
# neither side blocks in open and the server never sees end of stream
mkfifo requests.fifo
exec 3<> requests.fifo
"$rbgp" serve "$@" --trace requests.fifo --checkpoint run.ckpt \
  --checkpoint-every 1000 --checkpoint-keep 3 > killed.jsonl 2> killed.err &
pid=$!
head -n 4500 trace.txt >&3

# 2: wait for the checkpoint at 4000, then kill
polls=0
until run checkpoint run.ckpt | grep -q '"pos":4000,'; do
  polls=$((polls + 1))
  [ "$polls" -le 400 ] || fail "no checkpoint at pos 4000 after 20 s"
  kill -0 "$pid" 2> /dev/null || fail "the server exited early: $(cat killed.err)"
  sleep 0.05
done
kill -KILL "$pid"
wait "$pid" 2> /dev/null || true
pid=
exec 3>&-
if grep -q '"type":"result"' killed.jsonl; then
  fail "the killed server printed a result"
fi

# 3: resume from the newest generation
got=$(run resume --from run.ckpt --trace trace.txt --skip-prefix \
  --no-decisions | grep '"type":"result"') \
  || fail "resume from generation 0 printed no result: $(cat err)"
[ "$got" = "$want" ] \
  || fail "resume from generation 0: $got, uninterrupted: $want"

# 4: a torn newest generation is refused, and the one below it resumes
head -c 100 run.ckpt > torn.ckpt
mv torn.ckpt run.ckpt
if run checkpoint verify run.ckpt > /dev/null; then
  fail "checkpoint verify accepted a torn generation 0"
fi
run checkpoint run.ckpt.1 | grep -q '"pos":3000,' \
  || fail "generation 1 is not the checkpoint at pos 3000"
got=$(run resume --from run.ckpt.1 --trace trace.txt --skip-prefix \
  --no-decisions | grep '"type":"result"') \
  || fail "resume from generation 1 printed no result: $(cat err)"
[ "$got" = "$want" ] \
  || fail "resume from generation 1: $got, uninterrupted: $want"
