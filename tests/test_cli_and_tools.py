"""Tests for the CLI, DOT export, result logging, and the case-fold
preprocessor."""

from __future__ import annotations

import json

import pytest

from repro.automata.visualize import dfa_to_dot, token_automaton_to_dot
from repro.cli import build_parser, main
from repro.core.api import prepare, search
from repro.core.logging import MatchWriter, read_matches, tee_matches
from repro.core.preprocessors import CaseFoldPreprocessor
from repro.core.query import SearchQuery
from repro.regex import compile_dfa


class TestDotExport:
    def test_char_dfa_dot(self):
        dot = dfa_to_dot(compile_dfa("ab|ac"))
        assert dot.startswith("digraph")
        assert "doublecircle" in dot
        assert 'label="a"' in dot
        assert dot.endswith("}")

    def test_parallel_edges_collapsed(self):
        dot = dfa_to_dot(compile_dfa("[a-z]"), max_edges_per_pair=3)
        assert "…" in dot  # 26 parallel edges truncated

    def test_space_rendered_visibly(self):
        dot = dfa_to_dot(compile_dfa("a b"))
        assert "Ġ" in dot

    def test_token_automaton_dot(self, model, tokenizer):
        from repro.core.compiler import GraphCompiler

        compiled = GraphCompiler(tokenizer).compile(
            SearchQuery("The cat", prefix="The")
        )
        dot = token_automaton_to_dot(compiled.token_automaton, tokenizer)
        assert "digraph" in dot
        assert "lightgrey" in dot  # prefix region shaded


class TestMatchLogging:
    def test_write_and_read_roundtrip(self, model, tokenizer, tmp_path):
        path = tmp_path / "matches.jsonl"
        with MatchWriter(path) as writer:
            for match in search(model, tokenizer, SearchQuery("The ((cat)|(dog))")):
                writer.write(match)
        loaded = read_matches(path)
        assert {m.text for m in loaded} == {"The cat", "The dog"}
        assert all(isinstance(m.tokens, tuple) for m in loaded)

    def test_records_are_json_lines(self, model, tokenizer, tmp_path):
        path = tmp_path / "m.jsonl"
        with MatchWriter(path) as writer:
            for match in search(model, tokenizer, SearchQuery("The cat")):
                writer.write(match)
        lines = path.read_text().splitlines()
        record = json.loads(lines[0])
        assert record["text"] == "The cat"
        assert "logprob" in record and "canonical" in record

    def test_tee_passes_through(self, model, tokenizer, tmp_path):
        writer = MatchWriter(tmp_path / "tee.jsonl")
        matches = list(
            tee_matches(search(model, tokenizer, SearchQuery("The ((cat)|(dog))")), writer)
        )
        writer.close()
        assert len(matches) == 2
        assert writer.count == 2

    def test_append_mode(self, model, tokenizer, tmp_path):
        path = tmp_path / "a.jsonl"
        for _ in range(2):
            with MatchWriter(path) as writer:
                for match in search(model, tokenizer, SearchQuery("The cat")):
                    writer.write(match)
        assert len(read_matches(path)) == 2


class TestCliLogRoundTrip:
    """Matches written via ``--log`` load back bit-identical through
    ``read_matches`` in both CLI modes (single query and multi-pattern
    scheduler), covering tokens, logprobs, and the canonical flag."""

    @staticmethod
    def _reference(patterns):
        from repro.experiments.common import get_environment

        env = get_environment(scale="test")
        out = []
        for pattern in patterns:
            out.extend(
                search(
                    env.model("xl"),
                    env.tokenizer,
                    SearchQuery(pattern, seed=0),
                    max_expansions=50_000,
                )
            )
        return out

    @staticmethod
    def _assert_identical(loaded, reference):
        assert len(loaded) == len(reference)
        for got, want in zip(loaded, reference):
            assert got.tokens == want.tokens
            assert got.text == want.text
            assert got.logprob == want.logprob
            assert got.total_logprob == want.total_logprob
            assert got.canonical == want.canonical
            assert got.prefix_text == want.prefix_text

    def test_single_query_mode(self, capsys, tmp_path):
        log = tmp_path / "single.jsonl"
        assert main(["query", "The ((cat)|(dog))", "--log", str(log)]) == 0
        capsys.readouterr()
        self._assert_identical(read_matches(log), self._reference(["The ((cat)|(dog))"]))

    def test_multi_pattern_scheduler_mode(self, capsys, tmp_path):
        log = tmp_path / "multi.jsonl"
        assert main(["query", "The cat", "The dog", "--log", str(log)]) == 0
        capsys.readouterr()
        self._assert_identical(read_matches(log), self._reference(["The cat", "The dog"]))


class TestCaseFold:
    def test_expands_cases(self):
        out = CaseFoldPreprocessor().apply(compile_dfa("ab"))
        for s in ["ab", "Ab", "aB", "AB"]:
            assert out.accepts_string(s), s
        assert not out.accepts_string("ac")

    def test_in_query_pipeline(self, model, tokenizer):
        query = SearchQuery("the cat", preprocessors=(CaseFoldPreprocessor(),))
        session = prepare(model, tokenizer, query, max_expansions=4000)
        texts = {r.text for r in session}
        assert "The cat" in texts  # the corpus casing is reachable


class TestCLI:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize("flag", ["--pipeline", "--compile-ahead"])
    def test_removed_drive_loop_flags_are_usage_errors(self, flag, capsys):
        """The scheduler has one drive loop; its old alternatives are gone."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["query", "The cat", flag])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_removed_fairness_flag_is_a_usage_error(self, capsys):
        """A capped round always rotates round-robin; there is no policy
        to pick."""
        with pytest.raises(SystemExit) as exc:
            main(["query", "The cat", "--fairness", "round_robin"])
        assert exc.value.code == 2
        assert "--fairness" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["query", "serve"])
    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--workers", "2"),
            ("--max-retries", "1"),
            ("--shard-timeout", "5"),
            ("--inject-fault", "crash:0:0"),
        ],
    )
    def test_removed_pool_flags_are_usage_errors(self, command, flag, value, capsys):
        """One process evaluates the model: the pool's flags are gone."""
        argv = [command, flag, value]
        if command == "query":
            argv.insert(1, "The cat")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err.splitlines()[-1]

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("query", "--deadline", "nan"),
            ("query", "--deadline", "inf"),
            ("query", "--deadline", "0"),
            ("query", "--max-lm-calls", "0"),
            ("query", "--max-matches", "0"),
            ("query", "--max-matches", "-1"),
            ("query", "--concurrency", "0"),
            ("query", "--checkpoint-every", "0"),
            ("submit", "--deadline", "-2"),
            ("submit", "--max-matches", "0"),
            ("submit", "--max-lm-calls", "x"),
            ("serve", "--concurrency", "0"),
            ("serve", "--checkpoint-every", "0"),
            ("serve", "--max-inflight", "0"),
            ("serve", "--window", "0"),
            ("serve", "--progress-every", "0"),
            ("serve", "--lm-calls-per-minute", "0"),
            ("serve", "--admission-max-cost", "-1"),
            ("submit", "--window", "0"),
            ("query", "--top-k", "0"),
            ("submit", "--top-k", "-3"),
            ("query", "--edits", "-1"),
            ("query", "--edits", "x"),
            ("submit", "--edits", "-2"),
            ("lint", "--edits", "-1"),
            ("query", "--samples", "0"),
            ("query", "--samples", "-2"),
            ("submit", "--samples", "0"),
            ("query", "--kv-cache-mb", "nan"),
            ("query", "--kv-cache-mb", "0"),
            ("query", "--kv-cache-mb", "-1"),
            ("serve", "--kv-cache-mb", "inf"),
            ("explain", "--sequence-length", "-3"),
            ("lint", "--sequence-length", "0"),
        ],
    )
    def test_bad_budget_and_scheduler_flags_are_usage_errors(
        self, command, flag, value, capsys
    ):
        """A budget no query can honour and a scheduler setting the
        scheduler refuses are rejected before any engine is built, naming
        the flag, without a traceback."""
        argv = [command, flag, value]
        if command in ("query", "submit"):
            argv.insert(1, "The cat")
        if command == "submit":
            argv += ["--port", "1"]
        if flag == "--checkpoint-every":
            argv += ["--checkpoint", "unused.ckpt"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}:" in err.splitlines()[-1] and "Traceback" not in err

    @pytest.mark.parametrize("command", ["query", "submit"])
    def test_beam_strategy_is_a_usage_error(self, command, capsys):
        """Two traversals, the paper's: ``--strategy beam`` is gone."""
        argv = [command, "The cat", "--strategy", "beam"]
        if command == "submit":
            argv += ["--port", "1"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "argument --strategy:" in capsys.readouterr().err.splitlines()[-1]

    def test_query_command(self, capsys):
        code = main(["query", "The ((cat)|(dog))", "--max-matches", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "The cat" in out or "The dog" in out

    def test_query_random_strategy(self, capsys):
        code = main(
            ["query", "The ((cat)|(dog))", "--strategy", "random", "--samples", "4"]
        )
        assert code == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 4

    def test_query_with_log(self, capsys, tmp_path):
        log = tmp_path / "out.jsonl"
        code = main(["query", "The cat", "--log", str(log)])
        assert code == 0
        assert read_matches(log)

    def test_dot_command(self, capsys):
        code = main(["dot", "ab|ac"])
        assert code == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_dot_tokens_command(self, capsys):
        code = main(["dot", "The", "--tokens"])
        assert code == 0
        assert "digraph" in capsys.readouterr().out

    def test_experiment_encodings(self, capsys):
        code = main(["experiment", "encodings"])
        assert code == 0
        assert "non-canonical" in capsys.readouterr().out

    def test_experiment_bias(self, capsys):
        code = main(["experiment", "bias"])
        assert code == 0
        assert "chi2" in capsys.readouterr().out


class TestLintCommand:
    def test_lint_clean_pattern_exits_zero(self, capsys):
        code = main(["lint", "The cat", "--tokenization", "canonical"])
        assert code == 0
        err = capsys.readouterr().err
        assert "0 error" in err

    def test_lint_syntax_error_exits_nonzero(self, capsys):
        code = main(["lint", "[unclosed"])
        assert code == 1
        assert "RLM000" in capsys.readouterr().out

    def test_lint_json_payload(self, capsys):
        code = main(["lint", "The ((cat)|(dog))", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload, list) and len(payload) == 1
        assert payload[0]["verdict"] in ("ok", "warning")
        assert "cost" in payload[0]

    def test_lint_multiple_patterns(self, capsys):
        code = main(["lint", "The cat", "[bad", "--json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        verdicts = {entry["query"]: entry["verdict"] for entry in payload}
        assert verdicts["[bad"] == "error"

    def test_lint_requires_target(self, capsys):
        assert main(["lint"]) == 2

    def test_lint_experiment_set(self, capsys):
        code = main(["lint", "--set", "memorization", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert any(entry["name"] == "memorization/urls" for entry in payload)

    def test_lint_json_pure_error_batch(self, capsys):
        # A batch where *every* query fails to parse must still emit one
        # valid JSON document (and exit 1), not crash half-way through.
        code = main(["lint", "[bad", "(worse[", "--json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload, list) and len(payload) == 2
        assert all(entry["verdict"] == "error" for entry in payload)
        assert all(any(f["code"] == "RLM000" for f in entry["findings"]) for entry in payload)

    def test_lint_json_survives_compiler_crash(self, capsys, monkeypatch):
        from repro.core.compiler import GraphCompiler

        def boom(self, query):
            raise RuntimeError("synthetic compiler crash")

        monkeypatch.setattr(GraphCompiler, "compile", boom)
        code = main(["lint", "The cat", "--json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["verdict"] == "error"
        findings = payload[0]["findings"]
        assert any("synthetic compiler crash" in f["message"] for f in findings)

    def test_lint_set_flag_adds_cross_query_section(self, capsys):
        code = main(["lint", "--set", "bias", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload, list)
        cross = [entry for entry in payload if entry["name"] == "<cross-query>"]
        assert len(cross) == 1
        section = cross[0]["set"]
        assert set(section["queries"]) == {
            entry["name"] for entry in payload if entry["name"] != "<cross-query>"
        }
        assert len(section["matrix"]) == len(section["queries"])
        # The bias templates contain man/woman ⊂ (man|woman) pairs.
        assert section["subsumptions"]
        assert code in (0, 1)


class TestLintSetCommand:
    def test_requires_two_compilable_queries(self, capsys):
        assert main(["lint-set"]) == 2
        assert main(["lint-set", "The cat"]) == 2
        assert main(["lint-set", "The cat", "[bad"]) == 2

    def test_duplicates_drive_exit_code(self, capsys):
        code = main(["lint-set", "The ((cat)|(dog))", "The ((dog)|(cat))", "--json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["duplicate_groups"] == [["The ((cat)|(dog))", "The ((dog)|(cat))"]]
        assert any(f["code"] == "RLM007" for f in payload["findings"])

    def test_clean_set_exits_zero(self, capsys):
        code = main(["lint-set", "The cat", "The dog", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["duplicate_groups"] == []
        assert payload["skipped"] == []

    def test_skipped_queries_are_listed(self, capsys):
        code = main(["lint-set", "The cat", "The dog", "[bad", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["skipped"] == ["[bad"]
        assert len(payload["queries"]) == 2

    def test_text_rendering(self, capsys):
        code = main(["lint-set", "The cat", "The ((cat)|(dog))"])
        assert code == 0
        out = capsys.readouterr().out
        assert "duplicate group(s)" in out
        assert "RLM008" in out  # subset fires as a warning, not exit 1

    def test_state_budget_flag_degrades_to_unknown(self, capsys):
        code = main(
            ["lint-set", "The cat", "The ((cat)|(dog))", "--state-budget", "1", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["unknown_pairs"] == 1
        assert payload["subsumptions"] == {}
        assert any(f["code"] == "RLM011" for f in payload["findings"])

    def test_builtin_bias_set_has_no_duplicates(self, capsys):
        # The CI gate: built-in query sets must stay RLM007-free.
        code = main(["lint-set", "--set", "bias", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["duplicate_groups"] == []


class TestExplainCommand:
    def test_explain_text_output(self, capsys):
        code = main(["explain", "The ((cat)|(dog))"])
        out = capsys.readouterr().out
        assert code == 0
        assert "language" in out
        assert "verdict" in out

    def test_explain_json(self, capsys):
        code = main(["explain", "The cat", "--sequence-length", "8", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cost"]["horizon"] == 8

    def test_explain_error_exits_nonzero(self, capsys):
        code = main(["explain", "[unclosed"])
        assert code == 1


class TestDeterminismLinter:
    @pytest.fixture()
    def lint(self):
        import importlib.util
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[1]
        spec = importlib.util.spec_from_file_location(
            "lint_determinism", root / "tools" / "lint_determinism.py"
        )
        module = importlib.util.module_from_spec(spec)
        import sys

        sys.modules[spec.name] = module  # dataclasses resolve annotations here
        spec.loader.exec_module(module)
        return module

    def _codes(self, lint, tmp_path, source, name="repro/core/mod.py"):
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
        return [f.code for f in lint.lint_file(path, tmp_path)]

    def test_unseeded_random_flagged(self, lint, tmp_path):
        codes = self._codes(
            lint, tmp_path, "import random\nr = random.Random()\n"
        )
        assert codes == ["DET001"]

    def test_seeded_random_ok(self, lint, tmp_path):
        codes = self._codes(
            lint, tmp_path, "import random\nr = random.Random(0)\n"
        )
        assert codes == []

    def test_global_random_call_flagged(self, lint, tmp_path):
        codes = self._codes(
            lint, tmp_path, "import random\nx = random.choice([1, 2])\n"
        )
        assert codes == ["DET001"]

    def test_legacy_numpy_random_flagged(self, lint, tmp_path):
        source = "import numpy as np\nx = np.random.rand(3)\n"
        assert self._codes(lint, tmp_path, source) == ["DET001"]
        ok = "import numpy as np\nrng = np.random.default_rng(0)\n"
        assert self._codes(lint, tmp_path, ok) == []

    def test_wall_clock_flagged_only_in_core(self, lint, tmp_path):
        source = "import time\nt = time.time()\n"
        assert self._codes(lint, tmp_path, source) == ["DET002"]
        assert self._codes(lint, tmp_path, source, name="repro/experiments/m.py") == []

    def test_monotonic_ok_in_core(self, lint, tmp_path):
        source = "import time\nt = time.monotonic()\n"
        assert self._codes(lint, tmp_path, source) == []

    def test_set_iteration_flagged(self, lint, tmp_path):
        assert self._codes(lint, tmp_path, "for x in {1, 2}:\n    pass\n") == ["DET003"]
        assert self._codes(lint, tmp_path, "xs = list(set([1, 2]))\n") == ["DET003"]
        assert self._codes(lint, tmp_path, "s = ','.join({'a', 'b'})\n") == ["DET003"]

    def test_sorted_set_ok(self, lint, tmp_path):
        assert self._codes(lint, tmp_path, "xs = sorted(set([1, 2]))\n") == []

    def test_pragma_suppresses(self, lint, tmp_path):
        source = "import random\nr = random.Random()  # det: ok\n"
        assert self._codes(lint, tmp_path, source) == []

    def test_syntax_error_reported_not_raised(self, lint, tmp_path):
        assert self._codes(lint, tmp_path, "def broken(:\n") == ["DET000"]

    def test_src_tree_is_clean(self, lint):
        import pathlib

        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        assert lint.lint_paths([src]) == []

    def test_shm_alloc_without_cleanup_flagged(self, lint, tmp_path):
        source = (
            "from multiprocessing import shared_memory\n"
            "def alloc(n):\n"
            "    return shared_memory.SharedMemory(create=True, size=n)\n"
        )
        assert self._codes(lint, tmp_path, source) == ["DET004"]
        # Outside repro/core/ the allocation is not this linter's business.
        assert self._codes(lint, tmp_path, source, name="repro/experiments/m.py") == []

    def test_shm_alloc_with_cleanup_in_scope_ok(self, lint, tmp_path):
        source = (
            "from multiprocessing import shared_memory\n"
            "def alloc(n):\n"
            "    shm = shared_memory.SharedMemory(create=True, size=n)\n"
            "    shm.close()\n"
            "    shm.unlink()\n"
        )
        assert self._codes(lint, tmp_path, source) == []

    def test_shm_alloc_in_try_finally_ok(self, lint, tmp_path):
        source = (
            "from multiprocessing import shared_memory\n"
            "def alloc(n):\n"
            "    try:\n"
            "        shm = shared_memory.SharedMemory(create=True, size=n)\n"
            "    finally:\n"
            "        pass\n"
        )
        assert self._codes(lint, tmp_path, source) == []

    def test_shm_try_without_finally_still_flagged(self, lint, tmp_path):
        source = (
            "from multiprocessing import shared_memory\n"
            "def alloc(n):\n"
            "    try:\n"
            "        return shared_memory.SharedMemory(create=True, size=n)\n"
            "    except OSError:\n"
            "        return None\n"
        )
        assert self._codes(lint, tmp_path, source) == ["DET004"]

    def test_shm_direct_class_import_flagged(self, lint, tmp_path):
        source = (
            "from multiprocessing.shared_memory import SharedMemory\n"
            "def alloc(n):\n"
            "    return SharedMemory(create=True, size=n)\n"
        )
        assert self._codes(lint, tmp_path, source) == ["DET004"]

    def test_shm_pragma_suppresses(self, lint, tmp_path):
        source = (
            "from multiprocessing import shared_memory\n"
            "def alloc(n):\n"
            "    return shared_memory.SharedMemory(create=True, size=n)  # det: ok\n"
        )
        assert self._codes(lint, tmp_path, source) == []

    def test_cli_json_and_exit_codes(self, lint, tmp_path, capsys):
        bad = tmp_path / "repro" / "core" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\nx = random.random()\n")
        code = lint.main([str(tmp_path), "--json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["code"] == "DET001"
        assert lint.main([str(tmp_path / "missing")]) == 2
