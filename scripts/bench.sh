#!/usr/bin/env bash
# Regenerates the committed perf trajectory (BENCH_<pr>.json): the full
# bench_test.go suite with pinned -benchtime/-count so numbers stay
# comparable across PRs.
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
# and expose allocation regressions the timing noise can hide. Columns
# keep the event_ prefix of earlier points for comparability. The
# event engine's deficit against the cycle-by-cycle test oracle is
# measured in package sim: go test -run '^$' -bench Engine ./internal/sim
set -euo pipefail

if [ "$#" -ne 1 ]; then
	echo "usage: scripts/bench.sh out.json   (e.g. BENCH_13.json)" >&2
	exit 2
fi
OUT="$1"
cd "$(dirname "$0")/.." || exit 1

BENCHTIME="${BENCHTIME:-3x}"
COUNT="${COUNT:-5}"

raw=""
i=0
while [ "$i" -lt "$COUNT" ]; do
	raw+="$(go test -run '^$' -bench . -benchtime="$BENCHTIME" -benchmem -count=1 .)"$'\n'
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
	awk -v raw="$raw" '
	BEGIN {
		n = split(raw, lines, "\n")
		for (i = 1; i <= n; i++) {
			if (lines[i] !~ /^Benchmark/) continue
			split(lines[i], parts, /[ \t]+/)
			name = parts[1]
			sub(/-[0-9]+$/, "", name)
			ns = parts[3] + 0
			if (!(name in min) || ns < min[name]) {
				if (!(name in min)) order[++count] = name
				min[name] = ns
				bytes[name] = parts[5] + 0
				allocs[name] = parts[7] + 0
			}
		}
		for (i = 1; i <= count; i++) {
			name = order[i]
			sep = (i < count) ? "," : ""
			printf "    {\"name\": \"%s\", \"event_ns_op\": %d, \"event_bytes_op\": %d, \"event_allocs_op\": %d}%s\n", \
				name, min[name], bytes[name], allocs[name], sep
		}
	}'
	printf '  ]\n'
	printf '}\n'
} > "$OUT"

echo "wrote $OUT"
