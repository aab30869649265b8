#!/usr/bin/env bash
# Regenerates the committed perf trajectory (BENCH_<pr>.json): the full
# bench_test.go suite under both simulation engines with pinned
# -benchtime/-count so numbers stay comparable across PRs.
#
# Usage: scripts/bench.sh out.json    # e.g. BENCH_13.json, relative to the repo root
#   BENCHTIME=3x COUNT=5 scripts/bench.sh out.json    # override the pins
#
# The output path is required, so a bare run cannot overwrite a committed
# trajectory point.
#
# Per benchmark the minimum ns/op over COUNT runs is kept — the standard
# noise-robust statistic for shared machines — along with that run's
# bytes/op and allocs/op (-benchmem), which are iteration-deterministic
# and expose allocation regressions the timing noise can hide. The
# engines alternate per iteration so slow host periods skew both columns
# equally instead of whichever engine happened to run second.
set -euo pipefail

if [ "$#" -ne 1 ]; then
	echo "usage: scripts/bench.sh out.json   (e.g. BENCH_13.json)" >&2
	exit 2
fi
OUT="$1"
cd "$(dirname "$0")/.." || exit 1

BENCHTIME="${BENCHTIME:-3x}"
COUNT="${COUNT:-5}"

run() {
	RH_ENGINE="$1" go test -run '^$' -bench . -benchtime="$BENCHTIME" -benchmem -count=1 .
}

event_raw=""
cycle_raw=""
i=0
while [ "$i" -lt "$COUNT" ]; do
	event_raw+="$(run event)"$'\n'
	cycle_raw+="$(run cycle)"$'\n'
	i=$((i + 1))
done

{
	printf '{\n'
	printf '  "script": "scripts/bench.sh",\n'
	printf '  "benchtime": "%s",\n' "$BENCHTIME"
	printf '  "count": %s,\n' "$COUNT"
	printf '  "go": "%s",\n' "$(go env GOVERSION)"
	printf '  "statistic": "min ns/op over count runs; bytes/allocs from the min run",\n'
	printf '  "caveat": "ns/op is shared-machine noisy (BENCH_7 drifted up to ~50%% vs BENCH_6 on untouched benchmarks); compare trajectories on min-of-count and on the deterministic allocs_op/bytes_op columns",\n'
	printf '  "benchmarks": [\n'
	awk -v event="$event_raw" -v cycle="$cycle_raw" '
	function collect(raw, min, bytes, allocs, order,    n, lines, i, parts, name, ns) {
		n = split(raw, lines, "\n")
		for (i = 1; i <= n; i++) {
			if (lines[i] !~ /^Benchmark/) continue
			split(lines[i], parts, /[ \t]+/)
			name = parts[1]
			sub(/-[0-9]+$/, "", name)
			ns = parts[3] + 0
			if (!(name in min) || ns < min[name]) {
				if (!(name in min)) order[++order[0]] = name
				min[name] = ns
				bytes[name] = parts[5] + 0
				allocs[name] = parts[7] + 0
			}
		}
	}
	BEGIN {
		collect(event, emin, ebytes, eallocs, eorder)
		collect(cycle, cmin, cbytes, callocs, corder)
		for (i = 1; i <= eorder[0]; i++) {
			name = eorder[i]
			sep = (i < eorder[0]) ? "," : ""
			ratio = (name in cmin && emin[name] > 0) ? cmin[name] / emin[name] : 0
			printf "    {\"name\": \"%s\", \"event_ns_op\": %d, \"event_bytes_op\": %d, \"event_allocs_op\": %d, \"cycle_ns_op\": %d, \"cycle_bytes_op\": %d, \"cycle_allocs_op\": %d, \"cycle_over_event\": %.3f}%s\n", \
				name, emin[name], ebytes[name], eallocs[name], cmin[name], cbytes[name], callocs[name], ratio, sep
		}
	}'
	printf '  ]\n'
	printf '}\n'
} > "$OUT"

echo "wrote $OUT"
