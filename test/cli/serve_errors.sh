#!/bin/sh
# Bad command lines and unusable inputs of rbgp, one output line per case:
# its exit code and the first line of its stderr.
#
#   serve_errors.sh RBGP TRACE
#
# Integer flags and socket addresses are checked when the command line is
# parsed, so a bad one is a usage error (exit 124) whose first stderr line
# names the flag.  Bad input and an unreachable server are run-time errors
# (exit 1) with one stderr line naming the path or address; any further
# stderr (an internal-error banner, say) adds a line "stderr: N lines".
# Each case runs under a 20 s kill timeout (exit 137) in a scratch
# directory that holds TRACE (n = 256) as flags.rbt.
set -e
rbgp=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
cp "$2" "$tmp/flags.rbt"
cd "$tmp"

# try ARGS...: run `rbgp ARGS...`; print its exit code and first stderr line
try() {
  code=0
  timeout --preserve-status -s KILL 20 "$rbgp" "$@" > /dev/null 2> err \
    || code=$?
  echo "exit $code: $(head -n 1 err)"
  lines=$(wc -l < err)
  if [ "$code" -ne 124 ] && [ "$lines" -ne 1 ]; then
    echo "stderr: $lines lines"
  fi
}

# usage errors (exit 124)
try client --connect unix:none.sock --batch 0 --tenant id=a,trace=flags.rbt
try serve -n 256 --ell 8 --trace flags.rbt --checkpoint flags.ckpt \
  --checkpoint-keep 0
try serve --listen unix:flags.sock --checkpoint-keep 0
try serve -n 256 --ell 8 --trace flags.rbt --solver-budget 1000 \
  --budget-cooloff 0
try serve --listen foo
try serve --listen tcp:localhost:notaport
try serve --listen unix:flags.sock --http bar
try client --connect nowhere --tenant id=a,trace=flags.rbt

# run-time errors (exit 1)
try client --connect unix:no_server.sock --tenant id=a,trace=flags.rbt
try serve -n 16 --ell 2 --trace /nonexistent.rbt
try serve -n 16 --ell 2 --trace /nonexistent.rbt --format bin --mmap on
try serve --listen unix:/nonexistent/dir/s.sock
try resume --from /nonexistent.ckpt
try sim -n 30 --ell 4
try trace --convert flags.rbt -n 32 --out converted.rbt
