#!/bin/sh
# The registry contract between rbgp sim and rbgp serve.
#
#   registry.sh names RBGP
#     the algorithm names `rbgp serve --alg` takes, one a line, read from
#     the usage error an unknown name gets (which must exit 124)
#   registry.sh sim|serve RBGP TRACE NAMES
#     one line "<alg> <comm> <mig> <total>" per name in the file NAMES:
#     sim's cost line, or serve's result record, over TRACE at n=64,
#     ell=4, seed 5
#
# Fails, naming the command, when a run prints no cost.
set -e
mode=$1
rbgp=$2
case $mode in
names)
  code=0
  err=$("$rbgp" serve --alg '?' 2>&1 > /dev/null) || code=$?
  if [ "$code" -ne 124 ]; then
    echo "rbgp serve --alg '?': exit $code, expected 124" >&2
    exit 1
  fi
  echo "$err" | tr '\n' ' ' | sed 's/.*expected one of//' \
    | grep -o "'[a-z/-]*'" | tr -d "'"
  ;;
sim | serve)
  trace=$3
  while read -r alg; do
    if [ "$mode" = sim ]; then
      cost=$("$rbgp" sim --trace-file "$trace" --alg "$alg" -n 64 --ell 4 \
        --seed 5 | sed -n \
        's/^  cost: comm=\([0-9]*\) mig=\([0-9]*\) total=\([0-9]*\)$/\1 \2 \3/p')
    else
      cost=$("$rbgp" serve --trace "$trace" --alg "$alg" -n 64 --ell 4 \
        --seed 5 --no-decisions 2> /dev/null | sed -n \
        's/^{"type":"result".*"comm":\([0-9]*\),"mig":\([0-9]*\),"total":\([0-9]*\).*/\1 \2 \3/p')
    fi
    if [ -z "$cost" ]; then
      echo "rbgp $mode --alg $alg: no cost" >&2
      exit 1
    fi
    echo "$alg $cost"
  done < "$4"
  ;;
*)
  echo "usage: registry.sh names|sim|serve RBGP [TRACE NAMES]" >&2
  exit 2
  ;;
esac
