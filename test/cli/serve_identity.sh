#!/bin/sh
# Batch and resume identity of rbgp serve for the paper's two algorithms,
# onl-dynamic and onl-static, at n=256, ell=8, seed 42.
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

# checkpoint ALG: stop a run over TRACE after 5000 requests at $tmp/ALG.ckpt
checkpoint() {
  serve_to /dev/null serve -n 256 --ell 8 --seed 42 --alg "$1" \
    --trace "$trace" --no-decisions --stop-after 5000 \
    --checkpoint "$tmp/$1.ckpt"
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
  *)
    echo "usage: serve_identity.sh batch|result|resume|foreign RBGP TRACE" \
      "[N|OTHER]" >&2
    exit 2
    ;;
  esac
done
