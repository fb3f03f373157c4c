#!/usr/bin/env bash
# Records the seed-1 baseline of every workload, untraced and traced,
# into perfbench/baseline/. Run from the repository root:
#
#   bash perfbench/baseline.sh
#
# Each file holds the host line (nproc, GOMAXPROCS, Go version), the
# end-to-end figures of each pass, and the result line.
set -euo pipefail

out=perfbench/baseline
mkdir -p "$out"
for w in study flowsetup tracker; do
	for t in 0 1; do
		f=$out/seed1-$w-trace$t.txt
		bash perfbench/run.sh --workload "$w" --seed 1 --seconds 20 --trace "$t" >"$f.out" 2>"$f.err"
		{
			grep -v ' spans in ' "$f.err"
			cat "$f.out"
		} >"$f"
		rm "$f.out" "$f.err"
	done
done
