#!/usr/bin/env python3
"""Regression gate for npr-bench/1 JSON files.

Validates the schema of both files, selects rows of one experiment by
exact name and/or prefix, and fails (exit 1) when any selected row's
measured value moved outside [min-ratio, max-ratio] relative to the
committed baseline.  A row at 0 in both files passes; a row at 0 in
only one of them fails.  Rows present in the baseline but missing from
the current run (or vice versa) fail: a renamed row must be re-baselined
deliberately, not silently dropped from the gate.

Used by CI for the perf, cluster-perf, alloc, fib, classifier and
equivalence jobs so the threshold logic lives in one place instead of
inline scripts.

A second mode, --refresh, validates a freshly measured file as a *new*
committed baseline instead of comparing it to one: the experiment must
carry "run spread" rows (the max-min fraction across its best-of-N
repetitions, emitted by bench/perf.ml and bench/cluster_perf.ml), and
the refresh is rejected when any spread exceeds --max-spread (default
10%).  A baseline captured while the host was throttling would make
every future gate comparison meaningless; this refuses to commit one.
Spread rows are never ratio-gated in compare mode — the spread of a
noisy quantity is itself noisy — but their presence is still subject to
the row-symmetry check like any other row.
"""

import argparse
import json
import sys


def load(path, experiment):
    with open(path) as f:
        d = json.load(f)
    if d.get("schema") != "npr-bench/1":
        sys.exit(f"{path}: bad schema {d.get('schema')!r}")
    exps = [e for e in d.get("experiments", []) if e.get("name") == experiment]
    if len(exps) != 1:
        sys.exit(f"{path}: expected exactly one {experiment!r} experiment, "
                 f"found {len(exps)}")
    rows = exps[0].get("rows", [])
    if not rows:
        sys.exit(f"{path}: experiment {experiment!r} has no rows")
    out = {}
    for r in rows:
        name, measured = r.get("name"), r.get("measured")
        if name is None or not isinstance(measured, (int, float)):
            sys.exit(f"{path}: malformed row {r!r}")
        if name in out:
            sys.exit(f"{path}: duplicate row {name!r}")
        out[name] = float(measured)
    return out


SPREAD_PREFIX = "run spread"


def check_refresh(cur, path, experiment, max_spread):
    spreads = {n: v for n, v in cur.items() if n.startswith(SPREAD_PREFIX)}
    if not spreads:
        sys.exit(f"{path}: experiment {experiment!r} has no "
                 f"{SPREAD_PREFIX!r} rows — refresh it with a harness that "
                 "reports per-run variance")
    failures = []
    for name, v in sorted(spreads.items()):
        verdict = "ok   "
        if v > max_spread:
            verdict = "FAIL "
            failures.append(f"{name}: spread {v:.1%} exceeds "
                            f"{max_spread:.0%} — host too noisy to baseline")
        print(f"{verdict} {name}: {v:.1%} (ceiling {max_spread:.0%})")
    if failures:
        print(f"\nrefresh rejected ({len(failures)} failure(s)):",
              file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        sys.exit(1)
    print(f"\nrefresh accepted: all {len(spreads)} spread row(s) within "
          f"{max_spread:.0%}")


def main():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--baseline", help="committed BENCH json "
                   "(required unless --refresh)")
    p.add_argument("--current", required=True, help="this run's BENCH json")
    p.add_argument("--experiment", required=True, help="experiment name")
    p.add_argument("--row", action="append", default=[],
                   help="gate this exact row name (repeatable)")
    p.add_argument("--row-prefix", action="append", default=[],
                   help="gate every row whose name starts with this prefix")
    p.add_argument("--min-ratio", type=float, default=0.85,
                   help="fail when current/baseline drops below this")
    p.add_argument("--max-ratio", type=float, default=None,
                   help="also fail when current/baseline exceeds this")
    p.add_argument("--refresh", action="store_true",
                   help="validate --current as a new committed baseline: "
                        "reject it when any 'run spread' row exceeds "
                        "--max-spread")
    p.add_argument("--max-spread", type=float, default=0.10,
                   help="refresh rejection threshold for run-spread rows")
    args = p.parse_args()

    cur = load(args.current, args.experiment)
    if args.refresh:
        check_refresh(cur, args.current, args.experiment, args.max_spread)
        return
    if not args.baseline:
        p.error("--baseline is required unless --refresh")
    base = load(args.baseline, args.experiment)

    if args.row or args.row_prefix:
        selected = [n for n in base
                    if n in args.row
                    or any(n.startswith(pre) for pre in args.row_prefix)]
        for n in args.row:
            if n not in base:
                sys.exit(f"{args.baseline}: no row named {n!r}")
    else:
        # Spread rows describe measurement noise, not performance; the
        # ratio of two spreads gates nothing.  --refresh checks them.
        selected = [n for n in base if not n.startswith(SPREAD_PREFIX)]

    failures = []
    for name in selected:
        if name not in cur:
            failures.append(f"{name}: missing from current run")
            continue
        b, c = base[name], cur[name]
        if b == 0.0 and c == 0.0:
            print(f"ok    {name}: 0 == 0")
            continue
        if b == 0.0 or c == 0.0:
            failures.append(f"{name}: baseline {b:g}, current {c:g}")
            continue
        ratio = c / b
        verdict = "ok   "
        if ratio < args.min_ratio:
            failures.append(f"{name}: regressed to {ratio:.2%} of baseline "
                            f"({b:g} -> {c:g})")
            verdict = "FAIL "
        elif args.max_ratio is not None and ratio > args.max_ratio:
            failures.append(f"{name}: moved to {ratio:.2%} of baseline "
                            f"({b:g} -> {c:g})")
            verdict = "FAIL "
        print(f"{verdict} {name}: {b:g} -> {c:g} ({ratio:.2%})")

    extra = [n for n in cur if n not in base] if not (args.row or
                                                     args.row_prefix) else []
    for name in extra:
        failures.append(f"{name}: present in current run but not in baseline "
                        "(re-baseline to admit it)")

    if not selected:
        sys.exit("no rows selected to gate")
    if failures:
        print(f"\n{len(failures)} gate failure(s):", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        sys.exit(1)
    print(f"\nall {len(selected)} gated row(s) within "
          f"[{args.min_ratio:g}, {args.max_ratio or float('inf'):g}]")


if __name__ == "__main__":
    main()
