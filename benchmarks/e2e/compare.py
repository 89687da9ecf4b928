"""Compare relm-e2e result files: a base side against a change side.

    python3 benchmarks/e2e/compare.py --base base1.json [base2.json ...] \\
                                      --change new1.json [new2.json ...]

Each file is what ``run.py --out`` wrote.  For every workload x
end-to-end metric one row is printed: both medians, the ratio with its
base, and a verdict against the bound ``BENCHMARK.json`` fixes:

* ``ok``         the change's median is no worse than the base's by more
                 than the bound;
* ``regressed``  it is worse by more than the bound;
* ``unresolved`` the metric is missing on a side, or the base's own runs
                 spread (quartile distance, or range below four runs) wider
                 than the bound — unless every change run beats every base
                 run.

``failed_share`` and ``output_digest`` (same seed only) must be exactly
equal; so must the traced count ``lm.contexts_per_op``, to 10 % on
``service_mix`` where two interleaved connections may shift what is
already cached.  Exit code 1 if any row is not ``ok``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def load(paths: list[str]) -> list[dict]:
    runs = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            runs.append(json.load(handle))
    return runs


def metric_values(runs: list[dict], workload: str, metric: str) -> list[float]:
    values = []
    for run in runs:
        entry = run["workloads"].get(workload, {}).get("metrics", {}).get(metric)
        if entry is not None and entry["value"] is not None:
            values.append(entry["value"])
    return values


def spread(values: list[float]) -> float:
    """Quartile distance (range below four runs) as a share of the median."""
    if len(values) < 2:
        return 0.0
    middle = statistics.median(values)
    if len(values) < 4:
        return (max(values) - min(values)) / abs(middle) if middle else 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(middle) if middle else 0.0


def verdict(base: list[float], change: list[float], better: str, bound: float) -> str:
    if not base or not change:
        return "unresolved"
    sign = 1.0 if better == "lower" else -1.0
    base_mid, change_mid = statistics.median(base), statistics.median(change)
    worse_by = sign * (change_mid - base_mid) / abs(base_mid) if base_mid else 0.0
    if worse_by > bound:
        return "regressed"
    if spread(base) > bound:
        wins = all(sign * c < sign * b for c in change for b in base)
        return "ok" if wins else "unresolved"
    return "ok"


def exact(base: list[dict], change: list[dict], workload: str, key: str) -> str | None:
    """``None`` when *key* is equal across every run of both sides."""
    seen = {
        json.dumps(run["workloads"].get(workload, {}).get(key), sort_keys=True)
        for run in base + change
    }
    return None if len(seen) == 1 else f"{key} differs: {sorted(seen)}"


def compare(base: list[dict], change: list[dict], contract: dict) -> tuple[list[str], int]:
    lines = [
        f"{'workload':<14} {'metric':<20} {'base':>12} {'change':>12} "
        f"{'change/base':>11} {'bound':>6}  verdict"
    ]
    bad = 0
    same_seed = len({run["seed"] for run in base + change}) == 1
    traced = all(run["traced"] for run in base + change)
    for workload in (entry["name"] for entry in contract["workloads"]):
        if not traced:
            for spec in contract["end_to_end"]:
                b = metric_values(base, workload, spec["name"])
                c = metric_values(change, workload, spec["name"])
                result = verdict(b, c, spec["better"], spec["bound"])
                bad += result != "ok"
                b_mid = statistics.median(b) if b else float("nan")
                c_mid = statistics.median(c) if c else float("nan")
                ratio = c_mid / b_mid if b and c and b_mid else float("nan")
                lines.append(
                    f"{workload:<14} {spec['name']:<20} {b_mid:>12.5g} {c_mid:>12.5g} "
                    f"{ratio:>11.4f} {spec['bound']:>6.2f}  {result}"
                )
        else:
            b = metric_values(base, workload, "lm.contexts_per_op")
            c = metric_values(change, workload, "lm.contexts_per_op")
            tolerance = 0.10 if workload == "service_mix" else 0.0
            result = verdict(b, c, "lower", tolerance)
            if result == "ok" and tolerance == 0.0 and set(b) != set(c):
                result = "regressed"
            bad += result != "ok"
            lines.append(
                f"{workload:<14} {'lm.contexts_per_op':<20} "
                f"{statistics.median(b) if b else float('nan'):>12.5g} "
                f"{statistics.median(c) if c else float('nan'):>12.5g} "
                f"{'':>11} {tolerance:>6.2f}  {result}"
            )
        keys = ["failed_share"] + (["output_digest"] if same_seed else [])
        for key in keys:
            problem = exact(base, change, workload, key)
            bad += problem is not None
            lines.append(
                f"{workload:<14} {key:<20} {'':>12} {'':>12} {'':>11} {'exact':>6}  "
                + ("ok" if problem is None else f"regressed ({problem})")
            )
    return lines, bad


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True, metavar="FILE")
    parser.add_argument("--change", nargs="+", required=True, metavar="FILE")
    args = parser.parse_args(argv)
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        contract = json.load(handle)
    lines, bad = compare(load(args.base), load(args.change), contract)
    print("\n".join(lines))
    print(f"{bad} row(s) not ok" if bad else "all rows ok")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
