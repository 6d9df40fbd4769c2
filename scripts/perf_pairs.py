#!/usr/bin/env python3
"""Compare two perfbench builds in alternating pairs.

Usage, from the root of the repository:

    python3 scripts/perf_pairs.py PARENT_EXE CHANGE_EXE --workload grid-alg1 \
        --pairs 10 --seconds 30 --workload-seed 1

PARENT_EXE and CHANGE_EXE are `perfbench` binaries built from two
checkouts, for example with

    CARGO_TARGET_DIR=/tmp/pb-parent cargo build --release --offline \
        --manifest-path <parent checkout>/perfbench/Cargo.toml

Each pair runs both binaries once on the same workload (`--trace 0`),
one after the other; even pairs run the parent first and odd pairs the
change, so neither side always gets the warmer or the quieter slot. The
script prints, from the one-line JSON each run ends with:

- each pair's change/parent ratio of `op_s`, the claimed metric;
- each side's median and quartiles of every end-to-end metric, and the
  change/parent ratio of the medians checked against the metric's bound
  in BENCHMARK.json; a metric whose parent spread is wider than its
  bound is reported as unresolved, unless every run of the change reads
  better than every run of the parent;
- the pairs the change won, and whether the claim rule holds: at least
  nine in ten pairs won, and the medians further apart than the
  parent's interquartile range;
- whether `rounds`, `max_awake` and `avg_awake` repeat exactly in every
  run of both sides;
- the failed operations of every run.

Exit code: 0 when every run succeeded, 1 when a run failed or printed no
result, 2 on bad arguments.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CLAIMED = "op_s"
EXACT = ("rounds", "max_awake", "avg_awake")
SIDES = ("parent", "change")


def load_bounds():
    """End-to-end metric name -> (better, bound) from BENCHMARK.json."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return {}
    return {m["name"]: (m.get("better", "lower"), m.get("bound")) for m in spec.get("end_to_end", [])}


def run_once(exe, args, seed):
    """One perfbench process; returns its parsed result line or None."""
    cmd = [
        exe,
        "--workload", args.workload,
        "--seed", str(seed),
        "--seconds", str(args.seconds),
        "--trace", "0",
        "--workload-seed", str(args.workload_seed),
        "--size", args.size,
    ]
    try:
        ran = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                             timeout=args.seconds * 4 + 300)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perf_pairs: {exe}: {e}", file=sys.stderr)
        return None
    lines = ran.stdout.strip().splitlines()
    if ran.returncode != 0 or not lines:
        print(f"perf_pairs: {exe} exited with {ran.returncode}", file=sys.stderr)
        return None
    try:
        out = json.loads(lines[-1])
    except ValueError:
        print(f"perf_pairs: {exe} printed no JSON result", file=sys.stderr)
        return None
    out["values"] = {k: v["value"] for k, v in out["metrics"].items()}
    return out


def quartiles(xs):
    """(q1, median, q3) by linear interpolation between order statistics."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="perfbench executable of the parent")
    ap.add_argument("change", help="perfbench executable of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--workload-seed", type=int, default=1)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args()
    if args.pairs < 1 or args.seconds < 0:
        ap.error("--pairs must be at least 1 and --seconds not negative")

    bounds = load_bounds()
    runs = {side: [] for side in SIDES}
    ratios = []
    ok = True
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {}
        for side in order:
            exe = args.parent if side == "parent" else args.change
            pair[side] = run_once(exe, args, i)
        if pair["parent"] is None or pair["change"] is None:
            ok = False
            print(f"pair {i}: a run failed, pair skipped")
            continue
        for side in SIDES:
            runs[side].append(pair[side])
        p, c = pair["parent"]["values"][CLAIMED], pair["change"]["values"][CLAIMED]
        ratio = c / p if p else math.nan
        ratios.append(ratio)
        print(f"pair {i} ({order[0]} first): {CLAIMED} parent {p:.4f} change {c:.4f} "
              f"ratio {ratio:.3f}", flush=True)
    if not ratios:
        print("no complete pair")
        return 1

    names = list(runs["parent"][0]["values"])
    print(f"\n{args.workload}, workload seed {args.workload_seed}, {len(ratios)} pairs of "
          f"{args.seconds:g} s")
    print(f"{'metric':<12} {'parent q1 / median / q3':>32} {'change q1 / median / q3':>32} "
          f"{'ratio':>7}  bound")
    stats = {}
    for name in names:
        xs = {side: [r["values"][name] for r in runs[side]] for side in SIDES}
        row = {side: quartiles(xs[side]) for side in SIDES}
        stats[name] = row
        (pq1, pm, pq3), (cq1, cm, cq3) = row["parent"], row["change"]
        ratio = cm / pm if pm else math.nan
        better, bound = bounds.get(name, ("lower", None))
        verdict = ""
        if bound is not None and pm:
            worse = ratio - 1 if better == "lower" else 1 - ratio
            if better == "lower":
                always_better = max(xs["change"]) < min(xs["parent"])
            else:
                always_better = min(xs["change"]) > max(xs["parent"])
            if always_better:
                verdict = "better in every run"
            elif (pq3 - pq1) / pm > bound:
                verdict = f"unresolved (parent spread {(pq3 - pq1) / pm:.3f} > {bound})"
            else:
                verdict = f"{'within' if worse <= bound else 'BEYOND'} {bound}"
        print(f"{name:<12} {pq1:>10.5g} {pm:>10.5g} {pq3:>10.5g} {cq1:>10.5g} {cm:>10.5g} "
              f"{cq3:>10.5g} {ratio:>7.3f}  {verdict}")

    # Lower op_s is better.
    won = sum(1 for r in ratios if r < 1)
    (pq1, pm, pq3), (_, cm, _) = stats[CLAIMED]["parent"], stats[CLAIMED]["change"]
    gap = pm - cm
    holds = won >= math.ceil(0.9 * len(ratios)) and gap > pq3 - pq1
    print(f"\n{CLAIMED}: change won {won} of {len(ratios)} pairs; median pair ratio "
          f"{statistics.median(ratios):.3f} (range {min(ratios):.3f}-{max(ratios):.3f}); "
          f"median gap {gap:.4f} vs parent spread {pq3 - pq1:.4f}; "
          f"claim rule {'HOLDS' if holds else 'does not hold'}")

    for name in EXACT:
        seen = {r["values"][name] for side in SIDES for r in runs[side] if name in r["values"]}
        print(f"{name}: {'identical' if len(seen) == 1 else 'DIFFERS'} "
              f"({', '.join(f'{v:g}' for v in sorted(seen))})")
    for side in SIDES:
        failed = [r["failed"] for r in runs[side]]
        attempted = sum(r["attempted"] for r in runs[side])
        print(f"{side} failed operations: {sum(failed)} of {attempted} (per run {failed})")
        ok &= sum(failed) == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
