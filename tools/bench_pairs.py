"""Alternate perfbench runs of two checkouts and summarize them pair by pair.

    python3 tools/bench_pairs.py PARENT CHANGE --workload exact --pairs 10 --seed 5201

Pair k runs `perfbench/run.py --workload W --seed S0+k` in both checkouts,
for the `run_seconds` of the change's BENCHMARK.json, one after the other:
the parent first on even k, the change first on odd k.  Per end-to-end
metric of that BENCHMARK.json it prints both medians, the parent's quartiles
and interquartile range, the change's wins (ties count for neither side) and
every pair, then each run that was not `correct`, had failed ops or printed
no result.  A metric reads `gain` when
the change won at least nine tenths of the pairs and its median beats the
parent's by more than the parent's interquartile range, and `worse` when its
median is worse than the parent's by more than the metric's bound.  Only the
standard library is used, so the tool runs beside either checkout's numpy.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """The result line of one benchmark run in tree, or None if it printed none."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def quartiles(values: list[float]) -> tuple[float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> list[dict]:
    """Per metric, the medians, parent quartiles, wins and verdict of (parent, change) pairs.

    Each pair holds the two runs' `metrics` dicts ({name: {"value", "unit"}});
    metrics lists BENCHMARK.json's end-to-end entries (name, better, bound).
    A metric missing or null in either run of a pair leaves that pair out.
    """
    rows = []
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        values = [
            (p[name]["value"], c[name]["value"])
            for p, c in pairs
            if p.get(name, {}).get("value") is not None
            and c.get(name, {}).get("value") is not None
        ]
        if not values:
            continue
        base = [p for p, _ in values]
        new = [c for _, c in values]
        wins = sum(c > p if higher else c < p for p, c in values)
        med_p, med_c = statistics.median(base), statistics.median(new)
        q1, q3 = quartiles(base) if len(base) > 1 else (med_p, med_p)
        gain = med_c - med_p if higher else med_p - med_c
        if wins >= 0.9 * len(values) and gain > q3 - q1:
            verdict = "gain"
        elif med_p and -gain / abs(med_p) > m["bound"]:
            verdict = "worse"
        else:
            verdict = "-"
        rows.append({
            "name": name, "unit": m.get("unit", ""), "parent": med_p, "change": med_c,
            "rel": (med_c - med_p) / med_p if med_p else None, "q1": q1, "q3": q3,
            "wins": wins, "n": len(values), "verdict": verdict, "pairs": values,
        })
    return rows


def format_rows(rows: list[dict]) -> str:
    out = []
    for r in rows:
        rel = "n/a" if r["rel"] is None else f"{r['rel']:+.1%}"
        out.append(
            f"{r['name']} ({r['unit']}): parent {r['parent']:.6g} -> change {r['change']:.6g} "
            f"({rel}); parent quartiles {r['q1']:.6g}-{r['q3']:.6g} "
            f"(IQR {r['q3'] - r['q1']:.3g}); change won {r['wins']} of {r['n']}; {r['verdict']}"
        )
        out.append("  pairs (parent/change): " + ", ".join(
            f"{p:.6g}/{c:.6g}" for p, c in r["pairs"]))
    return "\n".join(out)


def problems(side: str, seed: int, result: dict | None) -> list[str]:
    """Lines naming a run that printed no result, was not correct or had failed ops."""
    if result is None:
        return [f"{side} seed {seed}: no result line"]
    if result.get("correct") is not True or result.get("failed", 0) != 0:
        return [f"{side} seed {seed}: correct={result.get('correct')} "
                f"failed={result.get('failed')} of {result.get('attempted')}"]
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True, help="seed of pair 0; pair k takes seed + k")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    trees = {"parent": args.parent, "change": args.change}
    pairs, bad = [], []
    for k in range(args.pairs):
        seed = args.seed + k
        order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
        results = {side: run_once(trees[side], args.workload, seed, seconds) for side in order}
        for side in order:
            bad += problems(side, seed, results[side])
        if all(results[s] is not None for s in order):
            pairs.append((results["parent"]["metrics"], results["change"]["metrics"]))
        print(f"pair {k} (seed {seed}, {order[0]} first) done", file=sys.stderr, flush=True)
    print(f"workload {args.workload}, {len(pairs)} of {args.pairs} pairs at seeds "
          f"{args.seed}-{args.seed + args.pairs - 1}, {seconds:g} s per run")
    print(format_rows(summarize(pairs, spec["end_to_end"])))
    for line in bad:
        print("problem: " + line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
