#!/bin/sh
# Batch, resume and reader identity of rbgp serve for the paper's two
# algorithms, onl-dynamic and onl-static, at n=256, ell=8, seed 42.
#
#   serve_identity.sh batch RBGP TRACE N
#     per algorithm, the decision records (latency masked) and the result
#     record of `rbgp serve --batch N` over TRACE, then the result record
#     of the same run with --no-decisions (the block ingest path)
#   serve_identity.sh result RBGP TRACE
#     per algorithm, the result record of one uninterrupted run
#   serve_identity.sh resume RBGP TRACE
#     per algorithm, a run stopped after 5000 requests at a checkpoint and
#     continued by `rbgp resume --skip-prefix` over TRACE: the resumed
#     run's result record
#   serve_identity.sh foreign RBGP TRACE OTHER
#     per algorithm, `rbgp resume --skip-prefix` over OTHER from a
#     checkpoint taken on TRACE must exit 1 with one stderr line naming
#     the digest; prints nothing
#   serve_identity.sh backend RBGP TRACE on|off
#     per algorithm, the result record of a run over TRACE read through
#     `--mmap on|off`, then the cksum of the checkpoint the same reader
#     leaves after 5000 requests
#   serve_identity.sh cross RBGP TRACE FROM TO
#     per algorithm, a run stopped after 5000 requests at a checkpoint,
#     reading TRACE through `--mmap FROM`, and continued by `rbgp resume
#     --skip-prefix --mmap TO`: the resumed run's result record
#   serve_identity.sh verify RBGP TRACE
#     per algorithm, `rbgp checkpoint verify` must accept the checkpoint
#     taken after 5000 requests and refuse its first 100 bytes with exit
#     1 and one stderr line naming the torn file; prints nothing
#   serve_identity.sh metrics RBGP TRACE N
#     per algorithm, the last metrics record of a run over TRACE must
#     count N requests at a positive rps; prints nothing
#
# Fails, naming the command, when a run fails or prints no result.
set -e
mode=$1
rbgp=$2
trace=$3
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# serve_to FILE ARGS...: the stdout of `rbgp ARGS...` into FILE
serve_to() {
  out=$1
  shift
  if ! "$rbgp" "$@" > "$out" 2> "$tmp/err"; then
    echo "rbgp $*: failed" >&2
    cat "$tmp/err" >&2
    exit 1
  fi
}

# result FILE: the result record in FILE, which must hold one
result() {
  if ! grep '"type":"result"' "$1"; then
    echo "no result record ($1)" >&2
    exit 1
  fi
}

# checkpoint ALG [ARGS...]: stop a run over TRACE after 5000 requests at
# $tmp/ALG.ckpt, with ARGS added to serve's
checkpoint() {
  name=$1
  shift
  serve_to /dev/null serve -n 256 --ell 8 --seed 42 --alg "$name" \
    --trace "$trace" --no-decisions --stop-after 5000 \
    --checkpoint "$tmp/$name.ckpt" "$@"
}

for alg in onl-dynamic onl-static; do
  case $mode in
  batch)
    serve_to "$tmp/out" serve -n 256 --ell 8 --seed 42 --alg "$alg" \
      --trace "$trace" --batch "$4"
    grep '"type":"decision"' "$tmp/out" | sed 's/,"latency_ns":[0-9]*//'
    result "$tmp/out"
    serve_to "$tmp/out" serve -n 256 --ell 8 --seed 42 --alg "$alg" \
      --trace "$trace" --batch "$4" --no-decisions
    result "$tmp/out"
    ;;
  result)
    serve_to "$tmp/out" serve -n 256 --ell 8 --seed 42 --alg "$alg" \
      --trace "$trace" --no-decisions
    result "$tmp/out"
    ;;
  resume)
    checkpoint "$alg"
    serve_to "$tmp/out" resume --from "$tmp/$alg.ckpt" --trace "$trace" \
      --skip-prefix --no-decisions
    result "$tmp/out"
    ;;
  foreign)
    checkpoint "$alg"
    code=0
    "$rbgp" resume --from "$tmp/$alg.ckpt" --trace "$4" --skip-prefix \
      --no-decisions > /dev/null 2> "$tmp/err" || code=$?
    if [ "$code" -ne 1 ] || [ "$(wc -l < "$tmp/err")" -ne 1 ] \
      || ! grep -q digest "$tmp/err"; then
      echo "rbgp resume --skip-prefix over another trace ($alg): exit $code" >&2
      cat "$tmp/err" >&2
      exit 1
    fi
    ;;
  backend)
    serve_to "$tmp/out" serve -n 256 --ell 8 --seed 42 --alg "$alg" \
      --trace "$trace" --no-decisions --mmap "$4"
    result "$tmp/out"
    checkpoint "$alg" --mmap "$4"
    cksum < "$tmp/$alg.ckpt"
    ;;
  cross)
    checkpoint "$alg" --mmap "$4"
    serve_to "$tmp/out" resume --from "$tmp/$alg.ckpt" --trace "$trace" \
      --skip-prefix --no-decisions --mmap "$5"
    result "$tmp/out"
    ;;
  verify)
    checkpoint "$alg"
    serve_to /dev/null checkpoint verify "$tmp/$alg.ckpt"
    head -c 100 "$tmp/$alg.ckpt" > "$tmp/torn.ckpt"
    code=0
    "$rbgp" checkpoint verify "$tmp/torn.ckpt" > /dev/null 2> "$tmp/err" \
      || code=$?
    if [ "$code" -ne 1 ] || [ "$(wc -l < "$tmp/err")" -ne 1 ] \
      || ! grep -q torn.ckpt "$tmp/err"; then
      echo "rbgp checkpoint verify over a torn copy ($alg): exit $code" >&2
      cat "$tmp/err" >&2
      exit 1
    fi
    ;;
  metrics)
    serve_to "$tmp/out" serve -n 256 --ell 8 --seed 42 --alg "$alg" \
      --trace "$trace" --no-decisions
    last=$(grep '"type":"metrics"' "$tmp/out" | tail -n 1)
    rps=$(echo "$last" | sed -n 's/.*"rps":\([^,]*\),.*/\1/p')
    if ! echo "$last" | grep -q "\"requests\":$4," \
      || ! awk -v r="$rps" 'BEGIN { exit !(r + 0 > 0) }'; then
      echo "last metrics record ($alg): $last" >&2
      exit 1
    fi
    ;;
  *)
    echo "usage: serve_identity.sh" \
      "batch|result|resume|foreign|backend|cross|verify|metrics RBGP TRACE" \
      "[N|OTHER|on|off] [on|off]" >&2
    exit 2
    ;;
  esac
done
