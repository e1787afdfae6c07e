# benchgate.awk compares a head measurement file against a base one and
# exits 1 when any metric both report got more than 10% worse (higher).
#
#	awk -v unit=allocs/op -f .github/benchgate.awk base.txt head.txt
#
# Each line is "name ... value unit ...", the shape of go test -bench
# output; the value read is the field before `unit` (default ns/op).
# A name listed several times (-count N) keeps its minimum: on a shared
# runner the minimum tracks the code and the spread tracks the
# neighbours.
BEGIN { if (unit == "") unit = "ns/op" }
{
	for (i = 3; i <= NF; i++) {
		if ($i != unit) continue
		v = $(i - 1) + 0
		if (FILENAME == ARGV[1]) {
			if (!($1 in base) || v < base[$1]) base[$1] = v
		} else if (!($1 in head) || v < head[$1]) {
			head[$1] = v
		}
	}
}
END {
	for (name in head) {
		if (!(name in base) || base[name] <= 0) {
			printf "new %s: %s %s (no base value)\n", name, head[name], unit
			continue
		}
		change = (head[name] / base[name] - 1) * 100
		verdict = "ok"
		if (change > 10) {
			verdict = "REGRESSION"
			bad = 1
		}
		printf "%s %s: %s -> %s %s (%+.1f%%)\n", verdict, name, base[name], head[name], unit, change
	}
	exit bad
}
