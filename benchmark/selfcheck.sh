#!/usr/bin/env bash
# Run the whole benchmark twice on this commit and hold it to its own
# bounds, the way the acceptance driver does:
#
#   benchmark/selfcheck.sh [--seeds N] [--first-seed S] [--workload W]... [--seconds S] [--verbose]
#
# Two sets (A, B) of N runs per workload, seeds S..S+N-1 in both, the sets
# interleaved and the order within a pair alternating, so drift in the
# machine hits both alike. For every workload × end-to-end metric it
# prints the spread of each set — the distance between the first and third
# quartile as a share of the median — and how much worse B's median is than
# A's, against the bound in BENCHMARK.json. Exits non-zero if a spread
# (setup_s excepted) or a median shift exceeds its bound, or a run fails.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
exec python3 - "$@" <<'PY'
import json, statistics, subprocess, sys

args = sys.argv[1:]
seeds, first, only, seconds, verbose = 10, 1, [], None, False
while args:
    a = args.pop(0)
    if a == "--seeds": seeds = int(args.pop(0))
    elif a == "--first-seed": first = int(args.pop(0))
    elif a == "--workload": only.append(args.pop(0))
    elif a == "--seconds": seconds = args.pop(0)
    elif a == "--verbose": verbose = True
    else: sys.exit(f"unknown argument {a}")

spec = json.load(open("BENCHMARK.json"))
seconds = seconds or str(spec["run_seconds"])
workloads = [w["name"] for w in spec["workloads"] if not only or w["name"] in only]
metrics = spec["end_to_end"]

def run(workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", seconds, "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {out.returncode}\n{out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed")
    return {k: v["value"] for k, v in result["metrics"].items()}

def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)

bad = 0
for w in workloads:
    sets = {"A": [], "B": []}
    for i in range(seeds):
        for s in ("AB" if i % 2 == 0 else "BA"):
            sets[s].append(run(w, first + i))
            print(f"  {w} seed {first + i} set {s} done", file=sys.stderr)
    print(f"{w}  ({seeds} seeds from {first}, {seconds} s runs)")
    print(f"  {'metric':<18}{'median A':>14}{'median B':>14}{'spread A':>10}{'spread B':>10}"
          f"{'B worse by':>12}{'bound':>8}")
    for m in metrics:
        a = [r[m["name"]] for r in sets["A"]]
        b = [r[m["name"]] for r in sets["B"]]
        ma, mb = statistics.median(a), statistics.median(b)
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        sa, sb = (spread(a), spread(b)) if seeds >= 2 else (0.0, 0.0)
        flags = []
        if m["name"] != "setup_s" and max(sa, sb) > m["bound"]: flags.append("SPREAD")
        if worse > m["bound"]: flags.append("SHIFT")
        if m["name"] != "setup_s" and max(sa, sb) > m["bound"] / 3 and not flags:
            flags.append("(over a third)")
        bad += sum(f in ("SPREAD", "SHIFT") for f in flags)
        print(f"  {m['name']:<18}{ma:>14.6g}{mb:>14.6g}{sa:>10.2%}{sb:>10.2%}"
              f"{worse:>12.2%}{m['bound']:>8.0%}  {' '.join(flags)}")
        if verbose:
            for s in "AB":
                print(f"    {s}: " + " ".join(f"{r[m['name']]:.5g}" for r in sets[s]))
print("selfcheck:", "FAILED" if bad else "ok", f"({bad} metric × workload pairs out of bounds)")
sys.exit(1 if bad else 0)
PY
