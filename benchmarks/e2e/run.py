"""relm-e2e: five paper workloads, end-to-end metrics and a layer profile.

Two ways to run it, both from the repository root:

* one workload, the form the benchmark contract in ``BENCHMARK.json``
  names::

      python3 benchmarks/e2e/run.py --workload url_extract --seed 0 --seconds 12 --trace 0

  measures for ``--seconds``, checks the outputs, prints every metric by
  name with its unit and, as the last line, one JSON object
  (``correct``/``attempted``/``failed``/``metrics``).  ``--trace 0`` gives
  the end-to-end metrics, ``--trace 1`` the per-layer ones.

* the whole suite::

      python3 benchmarks/e2e/run.py [--seed N] [--workloads a,b] [--traced] [--out FILE]

  runs every workload through the command above, each in its own
  subprocess (clean ``ru_maxrss``; a crash or hang in one cannot take the
  others down), prints the results and writes them to ``--out``.

The engine under ``src/`` is imported from the checkout this file sits in
and called with default options only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Callable

import harness
from harness import HERE, REPO_ROOT

#: A workload subprocess is killed after this many times its expected
#: duration (set-ups + measurement window + checks).
TIMEOUT_FACTOR = 5
EXPECTED_OVERHEAD_S = 30.0


def _metric_lines(metrics: dict, width: int = 34) -> list[str]:
    lines = []
    for name, entry in metrics.items():
        value = entry["value"]
        shown = "null" if value is None else f"{value:.6g}"
        lines.append(f"  {name:<{width}} {shown:>14} {entry['unit']}")
    return lines


# -- one workload (the contract command) ----------------------------------------


def measure(
    make_workload: Callable[[], Any],
    seconds: float,
    trace: bool,
    setup_repeats: int,
    import_s: float = 0.0,
    trace_out: str | None = None,
) -> dict[str, Any]:
    """Set up, run repetitions for *seconds*, check the outputs and compute
    the metrics of one workload (``--trace 0``: end-to-end, ``1``: per
    layer).  Returns the contract's result object plus a ``detail`` entry.
    """
    from layers import assemble
    from tracing import Tracer

    contract = harness.load_contract()

    # Set up several times; the last one is the one that is measured.
    setup_walls: list[float] = []
    setup_stages: list[dict[str, float]] = []
    problems: list[str] = []
    workload = None
    for _ in range(setup_repeats):
        if workload is not None:
            problems += workload.teardown()
        workload = make_workload()
        stages: dict[str, float] = {}
        started = time.perf_counter()
        workload.setup(stages)
        setup_walls.append(time.perf_counter() - started)
        setup_stages.append(stages)
    assert workload is not None

    tracer = Tracer(workload.name) if trace else None
    try:
        if tracer is None:
            reps = harness.run_repetitions(workload, seconds)
            traced: list[harness.Repetition] = []
            replayed: dict[str, float | None] = {}
        else:
            workload.replay_setup(setup_stages[-1])
            reps, traced = harness.run_traced_pairs(workload, tracer, seconds)
            replayed = workload.replay_layers(tracer)
    finally:
        problems += workload.teardown()

    # -- output checks (outside the timed region) --------------------------------
    every = reps + traced
    attempted = sum(rep.ops for rep in every)
    failed = sum(rep.failed for rep in every)
    digests = {rep.digest for rep in every}
    if len(digests) != 1:
        problems.append(f"output digests differ across repetitions: {sorted(digests)}")
    problems += workload.check(reps[0])

    # -- metrics ------------------------------------------------------------------
    first_match = harness.quietest_latencies([rep.first_match_ms for rep in reps])
    values: dict[str, float | None]
    if tracer is None:
        values = {
            "setup_s": import_s + min(setup_walls),
            "throughput_ops_s": max((rep.ops - rep.failed) / rep.wall_s for rep in reps),
            "first_match_ms_p50": harness.percentile(first_match, 0.50),
            "first_match_ms_p90": harness.percentile(first_match, 0.90),
            "peak_rss_mb": harness.peak_rss_mb(),
        }
        spec = contract["end_to_end"]
    else:
        per_rep = [rep.layers for rep in traced]
        layer_values = {
            name: statistics.median(layers[name] for layers in per_rep) for name in per_rep[0]
        }
        setup_values = {"setup.import_s": import_s}
        for key in sorted({key for stages in setup_stages for key in stages}):
            setup_values[f"setup.{key}"] = min(
                stages[key] for stages in setup_stages if key in stages
            )
        overhead = min(rep.wall_s for rep in traced) / min(rep.wall_s for rep in reps)
        values = assemble(
            [entry["name"] for entry in contract["per_layer"]],
            layer_values,
            setup_values,
            replayed,
            {"trace.overhead_share": overhead - 1.0},
        )
        spec = contract["per_layer"]
        if trace_out:
            tracer.write_jsonl(trace_out)

    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
            for entry in spec
        },
        "detail": {
            "output_digest": reps[0].digest,
            "repetitions": len(reps),
            "traced_repetitions": len(traced),
            "first_match_samples": len(first_match),
            "repetition_wall_s": [rep.wall_s for rep in reps],
            "problems": problems,
        },
    }


def run_workload(args: argparse.Namespace) -> int:
    if not (REPO_ROOT / "src" / "repro").is_dir():
        print(f"relm-e2e: no engine source at {REPO_ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(REPO_ROOT / "src"))
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"relm-e2e: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    import_started = time.perf_counter()
    import layers  # noqa: F401  (the engine's imports, timed with the workload's)

    workload_class = workloads.load(args.workload)
    import_s = time.perf_counter() - import_started

    result = measure(
        lambda: workload_class(args.seed),
        args.seconds,
        bool(args.trace),
        harness.SETUP_REPEATS,
        import_s,
        args.trace_out,
    )
    detail = result.pop("detail")
    print(
        f"relm-e2e {args.workload} seed={args.seed} trace={args.trace} "
        f"repetitions={detail['repetitions']}+{detail['traced_repetitions']} "
        f"first_match_samples={detail['first_match_samples']}"
    )
    print("\n".join(_metric_lines(result["metrics"])))
    share = result["failed"] / result["attempted"]
    print(f"  failed_share {share:.6g} ({result['failed']} of {result['attempted']} ops)")
    print(f"  output_digest {detail['output_digest']}")
    for problem in detail["problems"]:
        print(f"  CHECK FAILED: {problem}")
        print(f"relm-e2e: {args.workload}: {problem}", file=sys.stderr)
    print("detail " + json.dumps(detail))
    # The contract line: a replay stage that raised reads -1, not null.
    for entry in result["metrics"].values():
        if entry["value"] is None:
            entry["value"] = -1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# -- the whole suite --------------------------------------------------------------


def run_suite(args: argparse.Namespace) -> int:
    contract = harness.load_contract()
    known = [entry["name"] for entry in contract["workloads"]]
    chosen = args.workloads.split(",") if args.workloads else known
    unknown = [name for name in chosen if name not in known]
    if unknown:
        print(f"relm-e2e: unknown workloads {unknown}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else contract["run_seconds"]
    timeout = TIMEOUT_FACTOR * (seconds + EXPECTED_OVERHEAD_S)
    cores = os.cpu_count() or 1
    result = {
        "benchmark": "relm-e2e",
        "seed": args.seed,
        "seconds": seconds,
        "traced": bool(args.traced),
        # No workload uses workers; a parallel speed-up is only ever
        # reported from a box that can show one.
        "parallel": "unmeasured" if cores < 4 else "unused",
        "workloads": {},
    }
    failures = 0
    for name in chosen:
        entry = _run_child(name, _child_command(name, args, seconds), timeout)
        result["workloads"][name] = entry
        failures += not entry["correct"]
        print(entry.pop("stdout"), end="")
        if args.out:
            _write_atomically(args.out, result)
    return 1 if failures else 0


def _child_command(name: str, args: argparse.Namespace, seconds: float) -> list[str]:
    """The contract command for one workload of the suite."""
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", name,
        "--seed", str(args.seed),
        "--seconds", str(seconds),
        "--trace", "1" if args.traced else "0",
    ]
    if args.traced and args.out:
        command += ["--trace-out", f"{args.out}.{name}.trace.jsonl"]
    return command


def _run_child(name: str, command: list[str], timeout: float) -> dict:
    """Run one workload subprocess; a crash, hang or unparsable result
    becomes ``failed_share = 1.0`` and a stderr line, never an exception."""
    failure = None
    stdout = ""
    try:
        done = subprocess.run(
            command, cwd=REPO_ROOT, capture_output=True, text=True, timeout=timeout
        )
        stdout = done.stdout
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            failure = f"exited with code {done.returncode}"
    except subprocess.TimeoutExpired as exc:
        stdout = exc.stdout if isinstance(exc.stdout, str) else ""
        failure = f"timed out after {timeout:.0f} s"
    lines = stdout.strip().splitlines()
    parsed = detail = None
    if failure is None:
        try:
            parsed = json.loads(lines[-1])
            detail = json.loads(lines[-2].removeprefix("detail "))
        except (IndexError, ValueError):
            failure = "printed no result"
    if failure is not None:
        print(f"relm-e2e: workload {name} {failure}", file=sys.stderr)
        return {
            "correct": False, "attempted": 1, "failed": 1, "failed_share": 1.0,
            "metrics": {}, "error": failure, "stdout": stdout,
        }
    assert parsed is not None and detail is not None
    parsed["failed_share"] = parsed["failed"] / parsed["attempted"]
    parsed.update(detail)
    parsed["stdout"] = "\n".join(lines[:-2]) + "\n"
    return parsed


def _write_atomically(path: str, payload: dict) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, temporary = tempfile.mkstemp(dir=directory, suffix=".tmp")
    with os.fdopen(fd, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(temporary, path)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement window per workload (default: run_seconds)")
    single = parser.add_argument_group("one workload")
    single.add_argument("--workload", help="run this workload in-process")
    single.add_argument("--trace", type=int, choices=(0, 1), default=0)
    single.add_argument("--trace-out", help="write the spans here as JSONL")
    suite = parser.add_argument_group("whole suite")
    suite.add_argument("--workloads", help="comma-separated subset (default: all)")
    suite.add_argument("--traced", action="store_true", help="per-layer run")
    suite.add_argument("--out", help="write the result JSON here")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_suite(args)
    if args.seconds is None:
        parser.error("--workload needs --seconds")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
