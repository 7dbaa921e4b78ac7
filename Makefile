# Convenience targets; everything is plain dune underneath.

# a failing command fails its target even when piped into tee
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -c

.PHONY: all build test bench bench-json experiments examples lint clean

all: build

build:
	dune build @all

test:
	dune runtest

# full test log, as shipped in test_output.txt
test-log:
	dune runtest --force --no-buffer 2>&1 | tee test_output.txt

# the bench writes BENCH_8.json, prints its gate table last and exits 1
# naming every failed gate; bench/gates.ml is the one place its
# thresholds live
bench bench-json:
	dune exec bench/main.exe 2>&1 | tee bench_output.txt

experiments:
	dune exec bin/rbgp_cli.exe -- exp all | tee experiments_full.txt

# static analysis over lib/ bin/ bench/; exits 1 on any finding that is
# not justified in lint/allowlist.txt and writes the CI artifact
# (SARIF 2.1.0 for code-scanning upload)
lint:
	dune exec bin/rbgp_lint_main.exe -- lib bin bench \
	  --allowlist lint/allowlist.txt --sarif-out lint_report.sarif

examples:
	dune exec examples/quickstart.exe
	dune exec examples/ml_allreduce.exe
	dune exec examples/adversarial_ring.exe
	dune exec examples/compare_algorithms.exe
	dune exec examples/capacity_planning.exe

clean:
	dune clean
