"""Self-test of the relm-e2e harness (outside tier-1 ``testpaths``).

Run it explicitly from the repository root::

    PYTHONPATH=src python -m pytest -q benchmarks/e2e/test_harness.py

It dry-runs all five workloads with tiny counts and checks the result
schema against ``BENCHMARK.json``, that counts and digests repeat, the
failure paths of the suite runner, and ``compare.py``'s verdicts on
doctored result files.
"""

from __future__ import annotations

import copy
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
for path in (str(REPO_ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import compare  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

#: Tiny counts: enough work to exercise every code path in seconds.
TINY = {
    "url_extract": {"matches": 60},
    "lambada_cloze": {"items_per_kind": 1, "kinds": ("easy", "stopword")},
    "bias_sample": {"samples_per_gender": 200},
    "tf_rank": {"top_n": 4},
    "service_mix": {"pool_size": 12, "queries_per_connection": 15},
}


def tiny(name: str, seed: int = 5):
    workload_class = workloads.load(name)
    return lambda: workload_class(seed, **TINY[name])


@pytest.fixture(scope="module")
def contract() -> dict:
    return harness.load_contract()


def test_contract_file_is_well_formed(contract: dict) -> None:
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert contract["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in contract["workloads"]] == list(workloads.NAMES)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in contract["workloads"])
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    names = [m["name"] for m in contract["end_to_end"] + contract["per_layer"]]
    names += list(workloads.NAMES)
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in contract["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in contract["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in contract["end_to_end"])


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_dry_run(name: str, contract: dict) -> None:
    plain = run.measure(tiny(name), seconds=0.0, trace=False, setup_repeats=1)
    assert plain["correct"], plain["detail"]["problems"]
    assert plain["failed"] == 0 and plain["attempted"] >= 1
    assert list(plain["metrics"]) == [m["name"] for m in contract["end_to_end"]]
    assert all(entry["value"] > 0 for entry in plain["metrics"].values())
    assert plain["detail"]["repetitions"] == harness.MIN_REPETITIONS

    traced = run.measure(tiny(name), seconds=0.0, trace=True, setup_repeats=1)
    assert traced["correct"], traced["detail"]["problems"]
    assert list(traced["metrics"]) == [m["name"] for m in contract["per_layer"]]
    assert all(
        isinstance(entry["value"], (int, float)) for entry in traced["metrics"].values()
    )
    # Traced and untraced runs see the same outputs, and counts repeat exactly.
    assert traced["detail"]["output_digest"] == plain["detail"]["output_digest"]
    again = run.measure(tiny(name), seconds=0.0, trace=True, setup_repeats=1)
    for counter in ("lm.contexts_per_op", "executor.matches_yielded",
                    "compiler.queries_compiled", "logits_cache.misses"):
        assert again["metrics"][counter]["value"] == traced["metrics"][counter]["value"]
    assert again["detail"]["output_digest"] == traced["detail"]["output_digest"]
    # A second seed passes its checks too (and draws other inputs where it can).
    other = run.measure(tiny(name, seed=6), seconds=0.0, trace=False, setup_repeats=1)
    assert other["correct"], other["detail"]["problems"]


def test_layer_separation_shows_in_a_tiny_run() -> None:
    url = run.measure(tiny("url_extract"), 0.0, True, 1)["metrics"]
    assert url["logits_cache.hit_ratio"]["value"] <= 0.05
    cloze = run.measure(tiny("lambada_cloze"), 0.0, True, 1)["metrics"]
    assert 0.85 <= cloze["compiler.stage_coverage"]["value"] <= 1.15
    assert cloze["compiler.compile_ms"]["value"] > 10 * cloze["executor.expand_ms"]["value"]


def test_failed_replay_stage_is_null_not_fatal(monkeypatch: pytest.MonkeyPatch) -> None:
    import layers

    def boom(*args, **kwargs):
        raise RuntimeError("replay broke")

    monkeypatch.setattr(layers, "replay_compile_stages", boom)
    result = run.measure(tiny("url_extract"), 0.0, True, 1)
    assert result["correct"]
    assert result["metrics"]["compiler.token_minimize_ms"]["value"] is None
    assert result["metrics"]["executor.expand_ms"]["value"] > 0


def test_child_failures_become_failed_share_one(capsys: pytest.CaptureFixture) -> None:
    crash = [sys.executable, "-c", "import sys; print('partial'); sys.exit(3)"]
    hang = [sys.executable, "-c", "import time; time.sleep(60)"]
    mute = [sys.executable, "-c", "print('no result here')"]
    for command, timeout, why in ((crash, 30, "code 3"), (hang, 1, "timed out"),
                                  (mute, 30, "no result")):
        entry = run._run_child("victim", command, timeout)
        assert entry["failed_share"] == 1.0 and not entry["correct"]
        assert why in entry["error"]
        assert "workload victim" in capsys.readouterr().err


def test_suite_survives_a_crashing_workload(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch, contract: dict
) -> None:
    real = run._child_command

    def command(name, args, seconds):
        if name == "bias_sample":
            return [sys.executable, "-c", "raise SystemExit(7)"]
        return real(name, args, seconds)

    monkeypatch.setattr(run, "_child_command", command)
    out = tmp_path / "result.json"
    code = run.main(["--seconds", "0", "--workloads", "bias_sample,url_extract",
                     "--out", str(out)])
    assert code != 0
    result = json.loads(out.read_text())
    assert result["workloads"]["bias_sample"]["failed_share"] == 1.0
    survivor = result["workloads"]["url_extract"]
    assert survivor["correct"] and survivor["failed_share"] == 0.0
    assert set(survivor["metrics"]) == {m["name"] for m in contract["end_to_end"]}
    assert len(survivor["output_digest"]) == 64
    assert result["parallel"] in ("unmeasured", "unused")
    assert not list(tmp_path.glob("*.tmp"))


def _result(contract: dict, scale: float = 1.0, seed: int = 0) -> dict:
    metrics = {
        m["name"]: {"value": 100.0 * (scale if m["name"] == "throughput_ops_s" else 1.0),
                    "unit": m["unit"]}
        for m in contract["end_to_end"]
    }
    entry = {"correct": True, "attempted": 10, "failed": 0, "failed_share": 0.0,
             "metrics": metrics, "output_digest": "abc"}
    return {
        "benchmark": "relm-e2e", "seed": seed, "seconds": 10, "traced": False,
        "parallel": "unmeasured",
        "workloads": {name: copy.deepcopy(entry) for name in workloads.NAMES},
    }


def test_compare_verdicts_on_doctored_files(contract: dict) -> None:
    base = _result(contract)
    lines, bad = compare.compare([base], [copy.deepcopy(base)], contract)
    assert bad == 0 and all("regressed" not in line for line in lines)

    slower = _result(contract, scale=0.5)
    lines, bad = compare.compare([base], [slower], contract)
    rows = [line for line in lines if "throughput_ops_s" in line]
    assert bad == len(workloads.NAMES) and all(row.endswith("regressed") for row in rows)

    faster = _result(contract, scale=2.0)
    assert compare.compare([base], [faster], contract)[1] == 0

    doctored = copy.deepcopy(base)
    doctored["workloads"]["tf_rank"]["output_digest"] = "xyz"
    doctored["workloads"]["bias_sample"]["failed_share"] = 0.1
    del doctored["workloads"]["url_extract"]["metrics"]["peak_rss_mb"]
    lines, bad = compare.compare([base], [doctored], contract)
    assert bad == 3
    assert any("tf_rank" in line and "output_digest" in line and "regressed" in line
               for line in lines)
    assert any("url_extract" in line and "peak_rss_mb" in line and "unresolved" in line
               for line in lines)

    # A base whose own runs spread wider than the bound resolves nothing,
    # unless every change run beats every base run.
    noisy = [_result(contract, scale=s) for s in (0.7, 1.0, 1.3, 1.6)]
    lines, bad = compare.compare(noisy, [_result(contract, scale=1.1)], contract)
    assert all(row.endswith("unresolved") for row in lines if "throughput_ops_s" in row)
    lines, bad = compare.compare(noisy, [_result(contract, scale=2.0)], contract)
    assert all(row.endswith("ok") for row in lines if "throughput_ops_s" in row)
