#!/usr/bin/env python3
"""Compare perfbench runs of a parent commit and a change.

Usage:
  perf_diff.py PARENT CHANGE [--claim METRIC]...
  perf_diff.py --selftest

PARENT and CHANGE each hold perfbench result lines, one JSON object per
run: the last stdout line of `perfbench/run.py`. Other lines (the stamp
line, blank lines) are skipped, so whole stdout captures can be
concatenated. Run i of PARENT pairs with run i of CHANGE; alternate which
side runs first when collecting them.

For every metric both sides report it prints each side's median and
quartiles, the change of the medians and the pairs the change wins (ties
count for neither side). Direction, bound and kind of each metric come from
the repository's BENCHMARK.json. It flags:

  - an end-to-end metric whose change median is worse than the parent's by
    more than its relative bound: REGRESSED;
  - an end-to-end metric whose parent runs spread (quartile distance over
    median) wider than its bound, unless every change run reads better than
    every parent run: UNRESOLVED, not unchanged;
  - a run that is not `correct`, and a median failed share
    (`failed / attempted`) above the parent's.

`--claim METRIC` checks a claimed gain: the change must win at least nine
of every ten pairs, over at least ten pairs, and its median must be better
than the parent's by more than the distance between the parent's
quartiles. The exit status is 1 if any run is incorrect, any end-to-end
metric regressed, the failed share rose or a claim is not met; else 0.
UNRESOLVED alone does not fail the check.

With --selftest the script compares the canned runs under
tools/perf_diff_fixtures/ against the repository's BENCHMARK.json and
verifies every verdict (wired up as the perf_diff_selftest ctest entry).
It reads only; nothing is written.
"""

import argparse
import io
import json
import math
import pathlib
import statistics
import sys

HERE = pathlib.Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"
FIXTURES = HERE / "perf_diff_fixtures"


def read_runs(path):
    """The result objects in `path`, one per line that holds one."""
    runs = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line.startswith("{"):
                continue
            obj = json.loads(line)
            if "correct" in obj:
                runs.append(obj)
    return runs


def read_benchmark(path):
    """{metric: (better, bound or None)}; bound is set for end-to-end ones."""
    with open(path, encoding="utf-8") as f:
        bench = json.load(f)
    specs = {}
    for m in bench.get("per_layer", []):
        specs[m["name"]] = (m["better"], None)
    for m in bench.get("end_to_end", []):
        specs[m["name"]] = (m["better"], m["bound"])
    return specs


def quartiles(xs):
    """(q1, median, q3) of a non-empty sample."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def worse_by(parent, change, better):
    """How much worse `change` is than `parent`, relative to |parent|;
    negative when better. A zero parent gives 0 if equal, else +-inf."""
    sign = 1.0 if better == "lower" else -1.0
    diff = sign * (change - parent)
    if parent == 0:
        return 0.0 if diff == 0 else math.copysign(math.inf, diff)
    return diff / abs(parent)


def is_better(a, b, better):
    return a < b if better == "lower" else a > b


def values(runs, name):
    return [r["metrics"][name]["value"] for r in runs]


def failed_share(run):
    return run["failed"] / run["attempted"] if run["attempted"] else 0.0


class Row:
    """One metric compared across the two sides."""

    def __init__(self, name, unit, parent, change, spec):
        self.name, self.unit = name, unit
        self.parent, self.change = parent, change
        self.better, self.bound = spec if spec else (None, None)
        self.p = quartiles(parent)
        self.c = quartiles(change)
        pairs = list(zip(parent, change))
        self.pairs = len(pairs)
        self.wins = None
        if self.better:
            self.wins = sum(1 for a, b in pairs if is_better(b, a, self.better))
        self.verdict = self._verdict()

    def _verdict(self):
        if self.bound is None:
            return ""
        if worse_by(self.p[1], self.c[1], self.better) > self.bound:
            return "REGRESSED"
        spread = (self.p[2] - self.p[0]) / abs(self.p[1]) if self.p[1] else 0.0
        all_better = all(is_better(c, p, self.better)
                         for c in self.change for p in self.parent)
        if spread > self.bound and not all_better:
            return "UNRESOLVED"
        return "ok"

    def claim(self):
        """(holds, reason) for a claimed gain on this metric."""
        if self.better is None:
            return False, "no direction in BENCHMARK.json"
        if self.pairs < 10:
            return False, f"{self.pairs} pairs, fewer than 10"
        if self.wins * 10 < self.pairs * 9:
            return False, f"won {self.wins}/{self.pairs} pairs, fewer than 9 in 10"
        gain = -worse_by(self.p[1], self.c[1], self.better) * abs(self.p[1])
        iqr = self.p[2] - self.p[0]
        if not gain > iqr:
            return False, f"median gain {gain:.6g} not above the parent's quartile distance {iqr:.6g}"
        return True, f"won {self.wins}/{self.pairs} pairs, median gain {gain:.6g} > quartile distance {iqr:.6g}"


def fmt(q):
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def compare(parent, change, specs):
    """The Rows of every metric both sides report, in the parent's order;
    parent[i] and change[i] are a pair."""
    rows = []
    for name, m in parent[0]["metrics"].items():
        if all(name in r["metrics"] for r in parent + change):
            rows.append(Row(name, m.get("unit", ""), values(parent, name),
                            values(change, name), specs.get(name)))
    return rows


def report(parent, change, specs, claims, out):
    """Prints the comparison; returns (failed, rows, claim results)."""
    failed = False
    if not parent or not change:
        print("perf_diff: no result lines on one side", file=out)
        return True, [], {}
    if len(parent) != len(change):
        print(f"note: {len(parent)} parent and {len(change)} change runs; "
              f"pairing the first {min(len(parent), len(change))}", file=out)
    for side, runs in (("parent", parent), ("change", change)):
        bad = sum(1 for r in runs if not r["correct"])
        if bad:
            print(f"INCORRECT: {bad} {side} run(s) report correct: false", file=out)
            failed = True
    # Pair first, then drop the pairs with an incorrect run.
    pairs = [(p, c) for p, c in zip(parent, change)
             if p["correct"] and c["correct"] and "metrics" in p and "metrics" in c]
    parent, change = [p for p, _ in pairs], [c for _, c in pairs]
    if not pairs:
        return True, [], {}

    share_p = statistics.median(failed_share(r) for r in parent)
    share_c = statistics.median(failed_share(r) for r in change)
    print(f"failed share (median): parent {share_p:.6g}, change {share_c:.6g}", file=out)
    if share_c > share_p:
        print("FAILED SHARE ROSE", file=out)
        failed = True

    rows = compare(parent, change, specs)
    print(f"{'metric':34} {'unit':6} {'parent median [q1, q3]':32} "
          f"{'change median [q1, q3]':32} {'delta':>8} {'wins':>6}  verdict", file=out)
    for row in rows:
        delta = ""
        if row.p[1]:
            delta = f"{100.0 * (row.c[1] - row.p[1]) / abs(row.p[1]):+.1f}%"
        wins = f"{row.wins}/{row.pairs}" if row.wins is not None else "-"
        print(f"{row.name:34} {row.unit:6} {fmt(row.p):32} {fmt(row.c):32} "
              f"{delta:>8} {wins:>6}  {row.verdict}", file=out)
        if row.verdict == "REGRESSED":
            failed = True

    by_name = {row.name: row for row in rows}
    results = {}
    for name in claims:
        row = by_name.get(name)
        holds, why = row.claim() if row else (False, "not reported by both sides")
        results[name] = holds
        print(f"claim {name}: {'HOLDS' if holds else 'NOT MET'} ({why})", file=out)
        failed = failed or not holds
    return failed, rows, results


def selftest():
    specs = read_benchmark(BENCHMARK)
    parent = read_runs(FIXTURES / "parent.jsonl")
    change = read_runs(FIXTURES / "change.jsonl")
    assert len(parent) == 10 and len(change) == 10, (len(parent), len(change))

    sink = io.StringIO()
    failed, rows, claims = report(parent, change, specs,
                                  ["peak_rss_mb", "setup_s", "wall_s"], sink)
    text = sink.getvalue()
    by = {r.name: r for r in rows}
    checks = [
        # 10 of 10 pairs, median 200 -> 150, parent quartiles 199.75..200.25.
        (by["peak_rss_mb"].wins == 10, "peak_rss_mb wins"),
        (by["peak_rss_mb"].p == (199.75, 200.0, 200.25), "peak_rss_mb parent quartiles"),
        (by["peak_rss_mb"].c[1] == 150.0, "peak_rss_mb change median"),
        (by["peak_rss_mb"].verdict == "ok", "peak_rss_mb verdict"),
        (claims["peak_rss_mb"] is True, "peak_rss_mb claim holds"),
        # Identical in every run: no pair won, nothing flagged.
        (by["local_p50_ms"].wins == 0 and by["local_p50_ms"].verdict == "ok", "local_p50_ms"),
        # Throughput 1000 -> 900 is 10% worse against a 5% bound.
        (by["commit_tps"].verdict == "REGRESSED", "commit_tps regressed"),
        # Parent setup_s spreads 0.05..0.15 around 0.10: wider than 25%.
        (by["setup_s"].verdict == "UNRESOLVED", "setup_s unresolved"),
        (by["setup_s"].wins == 7, "setup_s wins"),
        (claims["setup_s"] is False, "setup_s claim fails on 7 of 10 pairs"),
        # A per-layer metric has a direction and no bound.
        (by["wall_s"].verdict == "" and by["wall_s"].wins == 10, "wall_s"),
        (claims["wall_s"] is True, "wall_s claim holds"),
        (failed, "a regression fails the check"),
        ("FAILED SHARE ROSE" not in text, "failed share unchanged"),
        ("claim setup_s: NOT MET (won 7/10 pairs" in text, "claim reason printed"),
    ]
    # Reading only the fault-free end-to-end metrics, nothing fails.
    ok_specs = {k: v for k, v in specs.items() if k != "commit_tps"}
    failed_ok, _, _ = report(parent, change, ok_specs, ["peak_rss_mb"], io.StringIO())
    checks.append((not failed_ok, "no flag without the regressed metric"))
    # A change run that is not correct fails the check.
    broken = [dict(change[0], correct=False)] + change[1:]
    failed_bad, _, _ = report(parent, broken, ok_specs, [], io.StringIO())
    checks.append((failed_bad, "an incorrect run fails the check"))
    # Fewer than ten pairs can carry no claim.
    _, _, few = report(parent[:9], change[:9], ok_specs, ["peak_rss_mb"], io.StringIO())
    checks.append((few["peak_rss_mb"] is False, "nine pairs carry no claim"))

    bad = [what for ok, what in checks if not ok]
    if bad:
        print(text)
        print("perf_diff selftest FAILED: " + ", ".join(bad))
        return 1
    print(f"perf_diff selftest OK ({len(checks)} checks)")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", nargs="?", help="parent result lines")
    ap.add_argument("change", nargs="?", help="change result lines")
    ap.add_argument("--claim", action="append", default=[], metavar="METRIC",
                    help="a metric the change claims to improve (repeatable)")
    ap.add_argument("--selftest", action="store_true", help="check the canned runs")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if not args.parent or not args.change:
        ap.error("PARENT and CHANGE are required")
    failed, _, _ = report(read_runs(args.parent), read_runs(args.change),
                          read_benchmark(BENCHMARK), args.claim, sys.stdout)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
