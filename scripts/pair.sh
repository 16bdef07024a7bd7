#!/usr/bin/env bash
# Paired benchmark comparison of a git ref (the parent) against the working
# tree (the change), by the pair rule: a gain counts only with at least 10
# pairs, the change winning at least nine in ten of them (ties count for
# neither side) and the medians further apart than the parent's own
# interquartile range.
#
# Usage: scripts/pair.sh <git-ref> [--pairs N] [--workload w]... [--seconds s]
#                        [--seed n] [--claim metric]...
#
# The ref and the working tree (tracked and untracked, not ignored, files)
# are copied to .bench_build/pair/{parent,change}; each copy runs its own
# unchanged bench/run.sh, which builds into that copy's .bench_build/ (so a
# repeated run reuses its build cache). Pairs alternate the order of the
# two sides: the change runs first on odd pairs. Every workload named in
# BENCHMARK.json runs unless --workload narrows the set.
#
# Per pair it prints each end-to-end metric's relative change (negative:
# the change is better); at the end, per workload and metric, both sides'
# median and quartiles, the change's wins, and a verdict:
#   better         the pair rule holds
#   no difference  the medians are within the metric's bound, not a gain
#   unresolved     as "no difference", but the parent's spread is wider
#                  than the bound, so the runs cannot tell
#   WORSE          the change's median is worse by more than the bound
# It exits non-zero when any metric is WORSE, when a run reports
# "correct":false, when the change fails a larger share of operations, or
# when a metric named by --claim is not "better" on every workload run.
#
# It reads only BENCHMARK.json (metric names, directions and bounds) and
# the JSON lines bench/run.sh prints on stdout.
set -euo pipefail

usage() {
	echo "usage: scripts/pair.sh <git-ref> [--pairs N] [--workload w]... [--seconds s] [--seed n] [--claim metric]..." >&2
	exit 2
}

[ $# -ge 1 ] || usage
ref="$1"
shift
pairs=10 seconds=20 seed=1
workloads=() claims=()
while [ $# -gt 0 ]; do
	case "$1" in
	--pairs) pairs="$2"; shift 2 ;;
	--seconds) seconds="$2"; shift 2 ;;
	--seed) seed="$2"; shift 2 ;;
	--workload) workloads+=("$2"); shift 2 ;;
	--claim) claims+=("$2"); shift 2 ;;
	*) usage ;;
	esac
done
case "$pairs" in '' | *[!0-9]* | 0) echo "pair.sh: --pairs wants a positive count" >&2; exit 2 ;; esac

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
git rev-parse --verify --quiet "$ref^{commit}" >/dev/null ||
	{ echo "pair.sh: $ref is not a commit" >&2; exit 2; }

# BENCHMARK.json, flattened: one "name better bound" line per end-to-end
# metric, and the workload names.
spec="$(tr -d ' \t\n' <BENCHMARK.json)"
metrics="$(printf '%s' "$spec" |
	sed -n 's/.*"end_to_end":\[\([^]]*\)\].*/\1/p' | tr '}' '\n' | awk '
		function field(k,   r) {
			if (!match($0, "\"" k "\":\"?[^,\"]*")) return ""
			r = substr($0, RSTART, RLENGTH)
			sub(/^[^:]*:"?/, "", r)
			return r
		}
		field("name") != "" { print field("name"), field("better"), field("bound") }')"
if [ ${#workloads[@]} -eq 0 ]; then
	read -r -a workloads <<<"$(printf '%s' "$spec" |
		sed -n 's/.*"workloads":\[\([^]]*\)\].*/\1/p' |
		grep -o '"name":"[^"]*"' | sed 's/"name":"\(.*\)"/\1/' | tr '\n' ' ')"
fi
for c in ${claims[@]+"${claims[@]}"}; do
	printf '%s\n' "$metrics" | grep -q "^$c " ||
		{ echo "pair.sh: --claim $c is not an end-to-end metric in BENCHMARK.json" >&2; exit 2; }
done

work="$root/.bench_build/pair"
mkdir -p "$work/parent" "$work/change"
# Refresh both copies, keeping each one's .bench_build (its go caches).
for side in parent change; do
	find "$work/$side" -mindepth 1 -maxdepth 1 ! -name .bench_build -exec rm -rf {} +
done
git archive "$ref" | tar -x -C "$work/parent"
git ls-files -z --cached --others --exclude-standard |
	while IFS= read -r -d '' f; do [ -e "$f" ] && printf '%s\0' "$f"; done |
	tar -c --null -T - | tar -x -C "$work/change"
echo "# parent: $ref ($(git rev-parse --short "$ref")); change: working tree"
echo "# $pairs pair(s) x ${workloads[*]}; seed $seed, --seconds $seconds"
for side in parent change; do
	bash "$work/$side/bench/run.sh" -h >/dev/null 2>&1 ||
		{ echo "pair.sh: the $side's benchmark does not build" >&2; exit 1; }
done

results="$work/results.txt"
: >"$results"
# run SIDE PAIR WORKLOAD appends the run's metrics to $results as
# "side pair workload metric value" lines; _correct, _attempted and
# _failed carry the run's outcome.
run() {
	local out json
	out="$(bash "$work/$1/bench/run.sh" --workload "$3" --seed "$seed" \
		--seconds "$seconds" --trace 0 -json 2>/dev/null)" || true
	json="$(printf '%s\n' "$out" | grep '^{' | tail -n 1)" || true
	case "$json" in *'"correct":true'*) echo "$1 $2 $3 _correct 1" ;; *) echo "$1 $2 $3 _correct 0" ;; esac >>"$results"
	printf '%s\n' "$json" | sed -n 's/.*"attempted":\([0-9]*\).*/\1/p' | sed "s/^/$1 $2 $3 _attempted /" >>"$results"
	printf '%s\n' "$json" | sed -n 's/.*"failed":\([0-9]*\).*/\1/p' | sed "s/^/$1 $2 $3 _failed /" >>"$results"
	{ printf '%s\n' "$json" | grep -o '"[A-Za-z0-9_.]*":{"value":[^,}]*' || true; } |
		sed "s/^\"\([^\"]*\)\":{\"value\":\(.*\)$/$1 $2 $3 \1 \2/" >>"$results"
}

for p in $(seq 1 "$pairs"); do
	for w in "${workloads[@]}"; do
		if [ $((p % 2)) -eq 1 ]; then
			run change "$p" "$w"
			run parent "$p" "$w"
		else
			run parent "$p" "$w"
			run change "$p" "$w"
		fi
		awk -v p="$p" -v w="$w" '
			NR == FNR { order[++n] = $1; next }
			$2 == p && $3 == w { v[$1, $4] = $5 }
			END {
				line = sprintf("pair %d %s:", p, w)
				for (i = 1; i <= n; i++) {
					m = order[i]
					if (!(("parent", m) in v) || !(("change", m) in v)) { line = line " " m " ?"; continue }
					a = v["parent", m]; b = v["change", m]
					line = line sprintf(" %s %+.2f%%", m, a != 0 ? 100 * (b - a) / (a < 0 ? -a : a) : 0)
				}
				print line
			}' <(printf '%s\n' "$metrics") "$results"
	done
done

claimlist="${claims[*]:-}"
awk -v pairs="$pairs" -v claims="$claimlist" -v wl="${workloads[*]}" '
	function sortv(a, k,   i, j, t) {
		for (i = 2; i <= k; i++) {
			t = a[i]
			for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
			a[j + 1] = t
		}
	}
	# q returns the q-quantile of sorted a[1..k], linear interpolation.
	function q(a, k, f,   h, lo) {
		h = (k - 1) * f + 1
		lo = int(h)
		return lo >= k ? a[k] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
	}
	function abs(x) { return x < 0 ? -x : x }
	NR == FNR { name[++nm] = $1; better[$1] = $2; bound[$1] = $3; next }
	{ v[$1, $2, $3, $4] = $5 }
	END {
		nw = split(wl, ws, " ")
		nc = split(claims, cl, " ")
		for (i = 1; i <= nc; i++) claimed[cl[i]] = 1
		fail = 0
		if (pairs < 10) print "# fewer than 10 pairs: no metric can show a gain"
		printf "%-12s %-22s %14s %25s %14s %25s %8s %6s  %s\n", "workload", "metric",
			"parent med", "[q1, q3]", "change med", "[q1, q3]", "delta", "wins", "verdict"
		for (wi = 1; wi <= nw; wi++) {
			w = ws[wi]
			for (p = 1; p <= pairs; p++) {
				for (s = 1; s <= 2; s++) {
					side = s == 1 ? "parent" : "change"
					if (v[side, p, w, "_correct"] != 1) {
						printf "FAIL: %s run of pair %d on %s is not correct\n", side, p, w
						fail = 1
					}
				}
				pf[p] = v["parent", p, w, "_attempted"] > 0 ? v["parent", p, w, "_failed"] / v["parent", p, w, "_attempted"] : 0
				cf[p] = v["change", p, w, "_attempted"] > 0 ? v["change", p, w, "_failed"] / v["change", p, w, "_attempted"] : 0
			}
			sortv(pf, pairs); sortv(cf, pairs)
			if (q(cf, pairs, 0.5) > q(pf, pairs, 0.5)) {
				printf "FAIL: %s fails %.4f%% of operations, parent %.4f%%\n", w, 100 * q(cf, pairs, 0.5), 100 * q(pf, pairs, 0.5)
				fail = 1
			}
			for (mi = 1; mi <= nm; mi++) {
				m = name[mi]
				k = 0; wins = 0
				for (p = 1; p <= pairs; p++) {
					if (!(("parent", p, w, m) in v) || !(("change", p, w, m) in v)) continue
					k++
					P[k] = v["parent", p, w, m]; C[k] = v["change", p, w, m]
					d = better[m] == "lower" ? P[k] - C[k] : C[k] - P[k]
					if (d > 0) wins++
				}
				if (k == 0) { printf "%-12s %-22s no data\n", w, m; fail = 1; continue }
				sortv(P, k); sortv(C, k)
				pm = q(P, k, 0.5); cm = q(C, k, 0.5)
				piqr = q(P, k, 0.75) - q(P, k, 0.25)
				# every change run better than every parent run
				allbetter = better[m] == "lower" ? C[k] < P[1] : C[1] > P[k]
				gap = better[m] == "lower" ? pm - cm : cm - pm
				base = pm != 0 ? abs(pm) : 1
				if (-gap / base > bound[m]) {
					verdict = "WORSE"; fail = 1
				} else if (k >= 10 && wins * 10 >= 9 * k && gap > piqr) {
					verdict = "better"
				} else if (piqr / base > bound[m] && !allbetter) {
					verdict = "unresolved"
				} else {
					verdict = "no difference"
				}
				if (m in claimed && verdict != "better") {
					verdict = verdict " (claim NOT MET)"; fail = 1
				} else if (m in claimed) {
					verdict = verdict " (claim met)"
				}
				printf "%-12s %-22s %14.6g [%11.6g, %11.6g] %14.6g [%11.6g, %11.6g] %+7.2f%% %3d/%-2d  %s\n",
					w, m, pm, q(P, k, 0.25), q(P, k, 0.75), cm, q(C, k, 0.25), q(C, k, 0.75),
					100 * (cm - pm) / base, wins, k, verdict
			}
		}
		print fail ? "pair.sh: FAIL" : "pair.sh: PASS"
		exit fail
	}' <(printf '%s\n' "$metrics") "$results"
