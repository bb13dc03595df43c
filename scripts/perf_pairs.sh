#!/usr/bin/env bash
# Paired campaign benchmark of the working tree against a parent
# revision. Run from the repository root:
#
#   make perf-pairs PARENT=<rev> PAIRS=8 WORKLOAD=sweep-heavy SECONDS=20
#   bash scripts/perf_pairs.sh <rev> 8 sweep-heavy 20
#
# The make target supplies the defaults PAIRS=8, WORKLOAD=sweep-heavy
# and SECONDS=20.
#
# It checks PARENT out in a detached git worktree under .bench_build/
# and runs `bash perfbench/run.sh` PAIRS times in each checkout,
# alternating which side of a pair runs first. Both sides of pair i run
# at seed i, so pair 1 also compares the seed-1 digests. It prints every
# pair's end-to-end metrics; then, per metric, each side's median and
# quartiles over all pairs and the ratio of the medians (change over
# parent); then both sides' digests. The worktree is removed on exit.
set -euo pipefail

if [ $# -ne 4 ]; then
	echo "usage: perf_pairs.sh PARENT PAIRS WORKLOAD SECONDS" >&2
	exit 2
fi
parent=$1 pairs=$2 workload=$3 seconds=$4

root=$(git rev-parse --show-toplevel)
wt="$root/.bench_build/perf-pairs-parent"
out="$root/.bench_build/perf-pairs"
cd "$root"
if [ -e "$wt" ]; then
	git worktree remove --force "$wt"
fi
git worktree add --detach --quiet "$wt" "$parent"
trap 'git -C "$root" worktree remove --force "$wt"' EXIT
rm -rf "$out"
mkdir -p "$out"

# run SIDE SEED runs the benchmark in SIDE's checkout and keeps its
# output as $out/SIDE-SEED.txt.
run() {
	local dir=$root
	if [ "$1" = parent ]; then dir=$wt; fi
	(cd "$dir" && bash perfbench/run.sh --workload "$workload" --seed "$2" \
		--seconds "$seconds" --trace 0) >"$out/$1-$2.txt"
}

# metrics FILE prints "name value" for each metric line of a run.
metrics() {
	awk 'NF == 3 && $1 != "stamp" && $1 != "digest" { print $1, $2 }' "$1"
}

for i in $(seq 1 "$pairs"); do
	if ((i % 2)); then
		first=parent second=change
	else
		first=change second=parent
	fi
	run "$first" "$i"
	run "$second" "$i"
	echo "pair $i seed=$i ($first first)"
	join <(metrics "$out/parent-$i.txt" | sort) <(metrics "$out/change-$i.txt" | sort) |
		awk '{ printf "  %-20s parent %12.6g  change %12.6g  ratio %.3f\n", $1, $2, $3, ($2 == 0 ? 0 : $3 / $2) }'
done

echo "over $pairs pairs: median [q1, q3] per side, ratio = change median / parent median"
for side in parent change; do
	for i in $(seq 1 "$pairs"); do
		metrics "$out/$side-$i.txt" | sed "s/^/$side /"
	done
done | sort -k2,2 -k1,1 -k3,3g | awk '
	function q(a, n, p,   x, k) { x = (n - 1) * p; k = int(x); return a[k] + (x - k) * (a[k + 1 < n ? k + 1 : k] - a[k]) }
	function flush() {
		if (name == "") return
		pm = q(pv, pn, 0.5); cm = q(cv, cn, 0.5)
		printf "  %-20s parent %12.6g [%.6g, %.6g]  change %12.6g [%.6g, %.6g]  ratio %.3f\n",
			name, pm, q(pv, pn, 0.25), q(pv, pn, 0.75), cm, q(cv, cn, 0.25), q(cv, cn, 0.75), (pm == 0 ? 0 : cm / pm)
	}
	$2 != name { flush(); name = $2; pn = 0; cn = 0 }
	$1 == "parent" { pv[pn++] = $3 }
	$1 == "change" { cv[cn++] = $3 }
	END { flush() }'

echo "digests"
for i in $(seq 1 "$pairs"); do
	for side in parent change; do
		echo "  $side $(grep '^digest ' "$out/$side-$i.txt" | cut -d' ' -f2-)"
	done
done
