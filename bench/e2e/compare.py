#!/usr/bin/env python3
"""Compares two results.json files written by run.py.

  python3 bench/e2e/compare.py BASE.json CHANGE.json

Prints one markdown row per workload x end-to-end metric: each side's
median and quartiles over its untraced runs, the share of run pairs the
change read better in, and a verdict. Pairs are (base[i], change[i]), so
run the two commits alternately.

  improved      at least ten pairs, the change wins at least 9/10 of them
                and the medians differ by more than the base's quartile
                distance;
  regressed     the change's median is worse than the base's by more than
                the metric's bound (share of the base median, or its
                absolute floor if larger);
  unresolved    either side's quartile distance is wider than the bound,
                unless every change run reads better than every base run;
  within bound  otherwise.

Exits 1 if any row regressed.
"""

import json
import sys

import metrics as M


def compare(base, change):
    rows = []
    for w, entry in base["workloads"].items():
        other = change["workloads"].get(w)
        if other is None:
            raise SystemExit(f"compare.py: workload {w} missing from the change's results")
        for m in M.END_TO_END:
            a = entry["end_to_end"][m.name]["samples"]
            b = other["end_to_end"][m.name]["samples"]
            rows.append((w, m, a, b, M.pairs_won(a, b, m.better), M.verdict(a, b, m)))
    return rows


def fmt(samples):
    q1, q3 = M.quartiles(samples)
    return f"{M.median(samples):.5g} [{q1:.5g}, {q3:.5g}]"


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = (json.loads(open(p).read()) for p in argv[1:])
    rows = compare(base, change)
    print("| workload | metric | unit | base median [q1, q3] | change median [q1, q3] "
          "| pairs won | verdict |")
    print("|---|---|---|---|---|---|---|")
    for w, m, a, b, won, v in rows:
        print(f"| {w} | {m.name} | {m.unit} | {fmt(a)} | {fmt(b)} | {won:.0%} | {v} |")
    return 1 if any(v == "regressed" for *_, v in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
