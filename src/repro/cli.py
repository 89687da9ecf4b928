"""Command-line interface: run ReLM queries and paper experiments.

Usage (see ``python -m repro --help``)::

    python -m repro query "The ((cat)|(dog))" --max-matches 5
    python -m repro query "The ((man)|(woman)) was trained in ((art)|(math))" \
        --prefix "The ((man)|(woman)) was trained in" --strategy random --samples 20
    python -m repro experiment memorization
    python -m repro dot "ab|ac" --tokens
    python -m repro lint "a(b|c)*" --json
    python -m repro lint --set all
    python -m repro lint-set --set all --json
    python -m repro explain "ab|ac" --sequence-length 8
    python -m repro serve --port 7333 --compile-cache /tmp/relm-cc
    python -m repro submit "The ((cat)|(dog))" --port 7333 --max-matches 5

Queries run against the built-in experiment environment (synthetic corpus
+ n-gram models); this is a demonstration surface, not a production
entry point — library users should call :func:`repro.search` directly.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Callable

__all__ = ["main", "build_parser"]


def _finite_positive(unit: str) -> Callable[[str], float]:
    """An argparse type: a finite number of *unit* > 0."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = float("nan")
        if not (math.isfinite(value) and value > 0):
            raise argparse.ArgumentTypeError(
                f"must be a finite number of {unit} > 0, got {text!r}"
            )
        return value

    return parse


def _int_at_least(lowest: int) -> Callable[[str], int]:
    """An argparse type: an integer >= *lowest*."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = lowest - 1
        if value < lowest:
            raise argparse.ArgumentTypeError(f"must be an integer >= {lowest}, got {text!r}")
        return value

    return parse


#: ``--deadline``: ``QueryBudget``'s rule.
_positive_seconds = _finite_positive("seconds")
#: A count or cap that must be >= 1 (budgets, samples, concurrency, cadence).
_positive_int = _int_at_least(1)
#: ``--edits`` (a Levenshtein distance) and ``--admission-max-cost``.
_nonnegative_int = _int_at_least(0)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ReLM reproduction: regex queries over language models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_query_args(p) -> None:
        """What a query *is* and its per-query budget: shared by ``query``
        and its client-side mirror ``submit``."""
        p.add_argument(
            "pattern", nargs="+",
            help="regex pattern(s) (ReLM dialect); several patterns run "
                 "concurrently through the multi-query scheduler",
        )
        p.add_argument("--prefix", default=None, help="prefix regex (conditioned, not decoded)")
        p.add_argument("--top-k", type=_positive_int, default=None, help="top-k decision rule")
        p.add_argument("--strategy", choices=["shortest", "random"], default="shortest")
        p.add_argument("--tokenization", choices=["all", "canonical"], default="all")
        p.add_argument(
            "--samples", type=_positive_int, default=10, help="samples for --strategy random"
        )
        p.add_argument("--max-matches", type=_positive_int, default=10)
        p.add_argument(
            "--edits", type=_nonnegative_int, default=0, help="Levenshtein preprocessor distance"
        )
        p.add_argument("--require-eos", action="store_true")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--deadline", type=_positive_seconds, default=None,
            help="per-query wall-clock budget in seconds (enforced by the scheduler)",
        )
        p.add_argument(
            "--max-lm-calls", type=_positive_int, default=None,
            help="per-query LM-call budget (enforced by the scheduler)",
        )
        p.add_argument("--log", default=None, help="append matches to this JSONL file")

    def add_engine_args(p, concurrency: int) -> None:
        """The engine ``query`` and ``serve`` both build (see
        :func:`_build_engine`) and the scheduler settings they share."""
        p.add_argument("--model", choices=["xl", "small"], default="xl")
        p.add_argument("--scale", choices=["test", "full"], default="test")
        p.add_argument(
            "--concurrency", type=_positive_int, default=concurrency,
            help="queries serviced per coalesced model round; a request the "
                 "logits cache answers takes no slot (for 'query', >1 engages "
                 "the scheduler)",
        )
        p.add_argument(
            "--kv-cache-mb", type=_finite_positive("MiB"), default=None,
            help="prefix-state (KV) cache budget in MiB for models with "
                 "incremental decoding (default: the model's built-in 64 MiB)",
        )
        p.add_argument(
            "--no-kv-cache", action="store_true",
            help="disable the prefix-state cache (score every context with a "
                 "full forward pass)",
        )
        p.add_argument(
            "--compile-cache", default=None, metavar="DIR",
            help="persistent compile-cache directory: compiled automata are "
                 "reused across runs and restarts (entries "
                 "are fingerprinted by query + tokenizer + compiler options; "
                 "stale or corrupt entries just miss)",
        )
        p.add_argument(
            "--checkpoint", default=None, metavar="PATH",
            help="snapshot progress to PATH after every completed round "
                 "batch and on interruption/SIGTERM (atomic; for 'query' it "
                 "engages the scheduler)",
        )
        p.add_argument(
            "--resume", action="store_true",
            help="restore completed queries from --checkpoint before running "
                 "the rest (a missing checkpoint file is a fresh run)",
        )
        p.add_argument(
            "--checkpoint-every", type=_positive_int, default=1,
            help="completed rounds between checkpoint snapshots (cadence vs. "
                 "overhead; see cookbook §12)",
        )

    query = sub.add_parser("query", help="run a regex query against the built-in model")
    add_query_args(query)
    add_engine_args(query, concurrency=1)

    experiment = sub.add_parser("experiment", help="run one paper experiment")
    experiment.add_argument(
        "name",
        choices=["memorization", "bias", "toxicity", "lambada", "encodings", "knowledge"],
    )
    experiment.add_argument("--scale", choices=["test", "full"], default="test")

    dot = sub.add_parser("dot", help="print the Graphviz DOT of a pattern's automaton")
    dot.add_argument("pattern")
    dot.add_argument("--tokens", action="store_true", help="token-space (LLM) automaton")
    dot.add_argument("--scale", choices=["test", "full"], default="test")

    def add_analysis_args(p, patterns_optional: bool) -> None:
        p.add_argument(
            "pattern", nargs="*" if patterns_optional else 1,
            help="regex pattern(s) to analyze (ReLM dialect)",
        )
        p.add_argument("--prefix", default=None, help="prefix regex")
        p.add_argument(
            "--tokenization", choices=["all", "canonical"], default="all"
        )
        p.add_argument(
            "--edits", type=_nonnegative_int, default=0, help="Levenshtein preprocessor distance"
        )
        p.add_argument(
            "--sequence-length", type=_positive_int, default=None,
            help="token horizon the query would run with (bounds the cost model)",
        )
        p.add_argument("--json", action="store_true", help="machine-readable report")
        p.add_argument("--scale", choices=["test", "full"], default="test")

    def add_set_arg(p) -> None:
        p.add_argument(
            "--set",
            dest="query_set",
            choices=["bias", "knowledge", "memorization", "all"],
            default=None,
            help="analyze a built-in experiment query set instead of patterns",
        )

    lint = sub.add_parser(
        "lint",
        help="statically analyze queries; exit 1 on error-level findings",
    )
    add_analysis_args(lint, patterns_optional=True)
    add_set_arg(lint)

    lint_set = sub.add_parser(
        "lint-set",
        help="cross-query analysis: relation matrix, duplicate/subsumed/"
             "overlap findings, the requested-context budget of queries "
             "the author can delete; exit 1 on RLM007 duplicates",
    )
    add_analysis_args(lint_set, patterns_optional=True)
    add_set_arg(lint_set)
    lint_set.add_argument(
        "--state-budget", type=int, default=4096,
        help="max DFA states per minimisation/product construction; "
             "exceeding it degrades the affected pairs to 'unknown'",
    )
    lint_set.add_argument(
        "--overlap-threshold", type=float, default=0.25,
        help="overlap mass as a fraction of the smaller language at which "
             "RLM009 fires",
    )
    lint_set.add_argument(
        "--min-shared-prefix", type=int, default=2,
        help="forced-token-prefix length at which RLM010 clusters queries",
    )

    explain = sub.add_parser(
        "explain",
        help="EXPLAIN one query: findings plus the static cost model",
    )
    add_analysis_args(explain, patterns_optional=False)

    serve = sub.add_parser(
        "serve",
        help="run the engine as a long-lived validation service "
             "(NDJSON over TCP; SIGTERM drains gracefully)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port (0 picks a free one; the bound port is announced "
             "on stderr as '# listening HOST:PORT')",
    )
    add_engine_args(serve, concurrency=8)
    serve.add_argument(
        "--admission-max-cost", type=_nonnegative_int, default=None,
        help="reject queries whose static LM-call bound (EXPLAIN cost "
             "model) exceeds this, before any LM call",
    )
    serve.add_argument(
        "--max-inflight", type=_positive_int, default=8,
        help="per-client cap on concurrently running queries",
    )
    serve.add_argument(
        "--lm-calls-per-minute", type=_positive_int, default=None,
        help="per-client LM-call rate quota (sliding 60s window)",
    )
    serve.add_argument(
        "--window", type=_positive_int, default=64,
        help="default per-query match-delivery window (backpressure "
             "credit) for clients that do not choose one",
    )
    serve.add_argument(
        "--progress-every", type=_positive_int, default=4,
        help="drive-loop turns in which a query advanced (a model round, or "
             "a quantum of cached answers) between its progress frames",
    )

    submit = sub.add_parser(
        "submit",
        help="submit pattern(s) to a running 'repro serve' and stream "
             "the matches (client-side mirror of 'query')",
    )
    add_query_args(submit)
    submit.add_argument("--host", default="127.0.0.1")
    submit.add_argument("--port", type=int, required=True, help="server port")
    submit.add_argument(
        "--window", type=_positive_int, default=64,
        help="initial match-delivery window (auto-replenished)",
    )
    submit.add_argument(
        "--stats", action="store_true",
        help="print the server's service-wide stats after the queries",
    )
    return parser


def _build_queries(args):
    import repro as relm

    strategy = {
        "shortest": relm.QuerySearchStrategy.SHORTEST_PATH,
        "random": relm.QuerySearchStrategy.RANDOM_SAMPLING,
    }[args.strategy]
    tokenization = (
        relm.QueryTokenizationStrategy.CANONICAL
        if args.tokenization == "canonical"
        else relm.QueryTokenizationStrategy.ALL_TOKENS
    )
    preprocessors = (relm.LevenshteinPreprocessor(args.edits),) if args.edits else ()
    return [
        relm.SearchQuery(
            pattern,
            prefix=args.prefix,
            top_k=args.top_k,
            strategy=strategy,
            tokenization=tokenization,
            num_samples=args.samples if args.strategy == "random" else None,
            require_eos=args.require_eos,
            preprocessors=preprocessors,
            seed=args.seed,
        )
        for pattern in args.pattern
    ]


#: Which entries of an owner's ``stats()`` / ``as_dict()`` each ``# name:``
#: stderr line shows, labelled by the owner's own key names.  The
#: ``# scheduler:`` line counts coalesced *model* rounds only — requests the
#: logits cache answered inline show as ``logits_hits`` on ``# query:`` and
#: ``hits`` on ``# logits cache:``, so a warm run reads ``rounds=0``.
_STAT_LINES = {
    "query": (
        "matches", "lm_calls", "scheduler_rounds", "pruned_edges",
        "failed_attempts", "logits_hits", "logits_misses", "lookahead_contexts",
        "compile_source", "latency_ms",
    ),
    "compile": (
        "compile_ms", "source", "token_states", "minimized_states",
        "token_edges", "minimized_edges",
    ),
    "scheduler": (
        "rounds", "contexts_serviced", "mean_round_size", "max_round_size",
        "lm_wall_ms", "compile_ms",
    ),
    "checkpoint": ("checkpoints_written", "queries_resumed"),
    "logits cache": ("hits", "misses", "lookahead_rows", "hit_rate", "entries"),
    "compilation cache": ("hits", "misses", "entries"),
    "compile disk cache": ("hits", "misses", "writes", "invalid"),
    "prefix-state cache": ("hits", "misses", "hit_rate", "evictions", "bytes"),
    "service": (
        "sessions_opened", "queries_submitted", "queries_admitted",
        "queries_completed", "queries_truncated", "queries_cancelled",
        "queries_rejected", "queries_interrupted", "matches_streamed",
        "backpressure_stalls", "frames_malformed", "generations",
    ),
}


def _stat_line(name, stats, label=None, note="") -> None:
    """Print the ``# name: key=value ...`` stderr line for *stats* — the
    one place every counter line is formatted.  *stats* is the dict the
    counters' owner hands out; keys it does not carry are skipped."""
    shown = []
    for key in _STAT_LINES[name]:
        value = stats.get(key)
        if value is not None:
            shown.append(f"{key}={value:.2f}" if isinstance(value, float) else f"{key}={value}")
    print(f"# {label or name}: {' '.join(shown)}{note}", file=sys.stderr)


def _engine_lines(model, compiler, logits_cache) -> None:
    """One line per shared engine object, each from its own ``stats()``."""
    owners = {
        "logits cache": logits_cache,
        "compilation cache": compiler.cache,
        "compile disk cache": compiler.disk_cache,
        "prefix-state cache": model.prefix_cache,
    }
    for name, owner in owners.items():
        if owner is not None:
            _stat_line(name, owner.stats())


def _build_engine(args, env):
    """Build what ``query`` and ``serve`` run on, once, from the engine
    flags: returns ``(model, compiler)``.

    Each knob is applied to the object that owns it: ``--kv-cache-mb`` /
    ``--no-kv-cache`` to the model, ``--compile-cache`` to the compiler.
    """
    model = env.model(args.model)
    if args.no_kv_cache:
        model.disable_prefix_cache()
    elif args.kv_cache_mb is not None:
        model.enable_prefix_cache(math.ceil(args.kv_cache_mb * (1 << 20)))
    compiler = env.compiler
    if args.compile_cache is not None:
        from repro.core.compiler import CompilationCache, GraphCompiler

        compiler = GraphCompiler(
            env.tokenizer,
            cache=CompilationCache(max_entries=512),
            disk_cache=args.compile_cache,
        )
    return model, compiler


def _cmd_query_scheduled(args, env, queries, compiler) -> int:
    """Many patterns (or budgets): run through the multi-query scheduler."""
    from repro.core.logging import MatchWriter
    from repro.core.scheduler import QueryBudget

    scheduler = env.scheduler(
        args.model,
        compiler=compiler,
        concurrency=args.concurrency,
        checkpoint_path=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
        resume=args.resume,
        max_expansions=50_000,
        max_attempts=50 * args.samples,
    )
    budget = QueryBudget(
        deadline=args.deadline,
        max_lm_calls=args.max_lm_calls,
        max_results=args.max_matches,
    )
    try:
        handles = [
            scheduler.submit(query, budget=budget, name=pattern)
            for pattern, query in zip(args.pattern, queries)
        ]
        scheduler.run()
    except KeyboardInterrupt:
        stats = scheduler.stats
        print(
            f"# interrupted: {stats.queries_completed + stats.queries_truncated}"
            f"/{stats.queries_submitted} queries finished"
            + (
                f"; checkpoint saved to {args.checkpoint} — rerun with "
                f"--checkpoint {args.checkpoint} --resume to continue"
                if args.checkpoint
                else "; no --checkpoint configured, progress lost"
            ),
            file=sys.stderr,
        )
        return 130
    writer = MatchWriter(args.log) if args.log else None
    for handle in handles:
        flag = f" [truncated: {handle.truncated_reason}]" if (
            handle.truncated and handle.truncated_reason != "max_results"
        ) else ""
        print(f"== {handle.name}{flag}")
        for match in handle.results:
            print(f"{match.total_logprob:9.3f}  {match.text!r}")
            if writer is not None:
                writer.write(match)
    if writer is not None:
        writer.close()
        print(f"# wrote {writer.count} matches to {args.log}", file=sys.stderr)
    stats = scheduler.stats.as_dict()
    _stat_line("scheduler", stats)
    if args.checkpoint:
        _stat_line("checkpoint", stats, note=f" path={args.checkpoint}")
    _engine_lines(scheduler.model, compiler, scheduler.logits_cache)
    for handle in handles:
        latency = handle.latency if handle.latency is not None else 0.0
        _stat_line(
            "query",
            {
                "matches": len(handle.results),
                **handle.stats.as_dict(),
                "latency_ms": 1000 * latency,
            },
            label=f"  {handle.name}",
        )
    return 0


def _cmd_query(args) -> int:
    from repro.experiments.common import get_environment

    if args.resume and args.checkpoint is None:
        print("error: --resume requires --checkpoint PATH", file=sys.stderr)
        return 2
    env = get_environment(scale=args.scale)
    queries = _build_queries(args)
    scheduled = (
        len(queries) > 1
        or args.concurrency > 1
        or args.deadline is not None
        or args.max_lm_calls is not None
        or args.checkpoint is not None
        or args.resume
    )
    model, compiler = _build_engine(args, env)
    if scheduled:
        return _cmd_query_scheduled(args, env, queries, compiler)
    return _cmd_query_single(args, env, queries[0], model, compiler)


def _cmd_query_single(args, env, query, model, compiler) -> int:
    """One pattern, no scheduler feature asked for: a plain session."""
    import repro as relm
    from repro.core.logging import MatchWriter

    logits_cache = env.logits_cache(args.model)
    session = relm.prepare(
        model, env.tokenizer, query,
        compiler=compiler,
        logits_cache=logits_cache,
        max_expansions=50_000, max_attempts=50 * args.samples,
    )
    writer = MatchWriter(args.log) if args.log else None
    count = 0
    for match in session:
        print(f"{match.total_logprob:9.3f}  {match.text!r}")
        if writer is not None:
            writer.write(match)
        count += 1
        if count >= args.max_matches:
            break
    if writer is not None:
        writer.close()
        print(f"# wrote {writer.count} matches to {args.log}", file=sys.stderr)
    _stat_line("query", {"matches": count, **session.stats.as_dict()})
    _stat_line("compile", session.compiled.metrics.as_dict())
    _engine_lines(model, compiler, logits_cache)
    return 0


def _cmd_experiment(args) -> int:
    from repro.experiments.common import get_environment

    env = get_environment(scale=args.scale)
    if args.name == "memorization":
        from repro.experiments.memorization import memorization_report

        for name, row in memorization_report(env).items():
            print(
                f"{name:14} attempts={row.attempts:4d} valid={row.unique_valid:3d} "
                f"dup={100 * row.duplicate_rate:4.0f}% urls/kfwd={row.urls_per_kfwd:7.1f}"
            )
    elif args.name == "bias":
        from repro.experiments.bias import FIGURE7_CONFIGS, bias_report

        for name, panel in bias_report(env, configs=FIGURE7_CONFIGS).items():
            print(f"{name}: chi2 p = 10^{panel.chi_square.log10_p:.1f}")
    elif args.name == "toxicity":
        from repro.experiments.toxicity import toxicity_report

        report = toxicity_report(env, max_lines=12)
        print(f"prompted: baseline={report.prompted_baseline_rate:.2f} "
              f"relm={report.prompted_relm_rate:.2f} ({report.prompted_ratio:.1f}x)")
        print(f"unprompted volume: baseline={report.unprompted_baseline_volume:.1f} "
              f"relm={report.unprompted_relm_volume:.1f}")
    elif args.name == "lambada":
        from repro.experiments.lambada_eval import STRATEGIES, lambada_table

        table = lambada_table(env)
        for size in ("xl", "small"):
            row = "  ".join(
                f"{s}={100 * table[size][s].accuracy:.1f}%" for s in STRATEGIES
            )
            print(f"{size:6} {row}")
    elif args.name == "encodings":
        from repro.experiments.encodings import non_canonical_rate

        for size in ("xl", "small"):
            report = non_canonical_rate(env, model_size=size, num_samples=300)
            print(f"{size}: non-canonical rate = {100 * report.rate:.1f}%")
    elif args.name == "knowledge":
        from repro.experiments.knowledge import figure1_report

        for size in ("xl", "small"):
            report = figure1_report(model_size=size)
            print(f"{size}: MC top = {report.multiple_choice[0][0]!r}, "
                  f"free = {report.free_response}, "
                  f"structured rank = {report.structured_rank}")
    return 0


def _cmd_dot(args) -> int:
    from repro.automata.visualize import dfa_to_dot, token_automaton_to_dot
    from repro.regex import compile_dfa

    dfa = compile_dfa(args.pattern)
    if not args.tokens:
        print(dfa_to_dot(dfa))
        return 0
    from repro.core.compiler import GraphCompiler
    from repro.experiments.common import get_environment

    env = get_environment(scale=args.scale)
    compiler = GraphCompiler(env.tokenizer)
    automaton = compiler.compile_all_tokens(dfa, None)
    print(token_automaton_to_dot(automaton, env.tokenizer))
    return 0


def _analysis_targets(args) -> list[tuple[str, object, object]]:
    """Resolve what ``lint``/``explain`` analyze: (name, query, compiler).

    Pattern arguments analyze against the shared experiment environment's
    tokenizer; ``--set`` pulls a built-in experiment query set, paired with
    the tokenizer that experiment actually runs against (coverage findings
    are tokenizer-relative).
    """
    import repro as relm
    from repro.experiments.common import experiment_query_sets, get_environment

    targets: list[tuple[str, object, object]] = []
    query_set = getattr(args, "query_set", None)
    if query_set is not None:
        sets = experiment_query_sets()
        names = list(sets) if query_set == "all" else [query_set]
        for set_name in names:
            if set_name == "knowledge":
                from repro.experiments.knowledge import knowledge_world

                compiler = knowledge_world().compiler
            else:
                compiler = get_environment(scale=args.scale).compiler
            for name, query in sets[set_name]:
                targets.append((f"{set_name}/{name}", query, compiler))
        return targets
    tokenization = (
        relm.QueryTokenizationStrategy.CANONICAL
        if args.tokenization == "canonical"
        else relm.QueryTokenizationStrategy.ALL_TOKENS
    )
    preprocessors = (relm.LevenshteinPreprocessor(args.edits),) if args.edits else ()
    compiler = get_environment(scale=args.scale).compiler
    for pattern in args.pattern:
        query = relm.SearchQuery(
            pattern,
            prefix=args.prefix,
            tokenization=tokenization,
            sequence_length=args.sequence_length,
            preprocessors=preprocessors,
        )
        targets.append((pattern, query, compiler))
    return targets


def _safe_report(query, compiler):
    """Compile and analyze *query*; failures become RLM000 reports.

    Returns ``(report, compile_metrics, compiled)`` — metrics/compiled are
    ``None`` when nothing compiled.  *Any* exception is captured (syntax
    errors with their parser message, everything else as an analysis
    failure) so batch linting always produces a report per query — and
    ``lint --json`` always emits one valid JSON document."""
    from repro.core.analyze import syntax_error_report
    from repro.regex.parser import RegexSyntaxError

    try:
        compiled = compiler.compile(query)
        return compiled.report, compiled.metrics, compiled
    except RegexSyntaxError as exc:
        message = str(exc)
    except Exception as exc:  # defensive: a crash must not break the batch
        message = f"query failed to compile/analyze: {exc}"
    report = syntax_error_report(
        query.query_string.query_str, query.query_string.prefix_str, message
    )
    return report, None, None


def _set_analyzer_from(args):
    """A :class:`QuerySetAnalyzer` configured from CLI flags (defaults
    when the subcommand doesn't expose the knobs, e.g. ``lint``)."""
    from repro.core.analyze_set import QuerySetAnalyzer

    return QuerySetAnalyzer(
        state_budget=getattr(args, "state_budget", 4096),
        overlap_threshold=getattr(args, "overlap_threshold", 0.25),
        min_shared_prefix=getattr(args, "min_shared_prefix", 2),
    )


def _cmd_lint(args) -> int:
    import json

    if not args.pattern and getattr(args, "query_set", None) is None:
        print("lint: provide pattern(s) or --set", file=sys.stderr)
        return 2
    targets = _analysis_targets(args)
    reports = []
    worst_ok = True
    for name, query, compiler in targets:
        report, metrics, compiled = _safe_report(query, compiler)
        reports.append((name, report, metrics, compiled))
        if report.has_errors:
            worst_ok = False
    # Cross-query section (``--set`` only): relate the whole portfolio.
    set_report = None
    if getattr(args, "query_set", None) is not None:
        entries = [(n, c) for n, _r, _m, c in reports if c is not None]
        if len(entries) >= 2:
            set_report = _set_analyzer_from(args).analyze(entries)
    if args.json:
        payload = [
            dict(
                name=name,
                **report.as_dict(),
                compile=metrics.as_dict() if metrics is not None else None,
            )
            for name, report, metrics, _compiled in reports
        ]
        if set_report is not None:
            payload.append(dict(name="<cross-query>", set=set_report.as_dict()))
        print(json.dumps(payload, indent=2, default=str))
    else:
        for name, report, _metrics, _compiled in reports:
            marker = {"ok": " ", "warning": "!", "error": "E"}[report.verdict]
            print(f"{marker} {name}: {report.verdict}")
            for finding in report.findings:
                print(f"    {finding.render()}")
        if set_report is not None and set_report.findings:
            print("cross-query:")
            for finding in set_report.findings:
                print(f"    {finding.render()}")
        errors = sum(1 for _, r, _m, _c in reports if r.verdict == "error")
        warnings = sum(1 for _, r, _m, _c in reports if r.verdict == "warning")
        print(
            f"# {len(reports)} queries: {errors} error(s), {warnings} warning(s)",
            file=sys.stderr,
        )
    return 0 if worst_ok else 1


def _cmd_lint_set(args) -> int:
    """Cross-query relational lint: the tentpole's CLI surface.

    Exit code 1 means RLM007 duplicates were found (the CI gate on the
    built-in sets); per-query errors still surface in the listing but the
    relational verdict drives the exit code.
    """
    import json

    if not args.pattern and getattr(args, "query_set", None) is None:
        print("lint-set: provide pattern(s) or --set", file=sys.stderr)
        return 2
    targets = _analysis_targets(args)
    entries = []
    skipped = []
    for name, query, compiler in targets:
        _report, _metrics, compiled = _safe_report(query, compiler)
        if compiled is not None:
            entries.append((name, compiled))
        else:
            skipped.append(name)
    if len(entries) < 2:
        print("lint-set: need at least two compilable queries", file=sys.stderr)
        return 2
    report = _set_analyzer_from(args).analyze(entries)
    if args.json:
        payload = report.as_dict()
        payload["skipped"] = skipped
        print(json.dumps(payload, indent=2, default=str))
    else:
        print(report.render())
        if skipped:
            print(f"# skipped (did not compile): {', '.join(skipped)}", file=sys.stderr)
    return 1 if "RLM007" in report.codes else 0


def _cmd_explain(args) -> int:
    import json

    [(name, query, compiler)] = _analysis_targets(args)
    report, metrics, _compiled = _safe_report(query, compiler)
    if args.json:
        payload = dict(
            name=name,
            **report.as_dict(),
            compile=metrics.as_dict() if metrics is not None else None,
        )
        print(json.dumps(payload, indent=2))
        return 0 if not report.has_errors else 1
    print(f"query: {name}")
    if report.prefix_str:
        print(f"prefix: {report.prefix_str}")
    cost = report.cost
    if cost is not None:
        infinite = "infinite" if cost.language_infinite else "finite"
        print(f"language: {infinite}")
        if cost.language_size is not None:
            scope = " (within horizon)" if cost.language_infinite else ""
            print(f"  token paths: {cost.language_size}{scope}")
        if cost.char_language_size is not None:
            print(f"  strings: {cost.char_language_size}")
        print(f"automaton: {cost.num_states} states, {cost.num_edges} edges "
              f"(char DFA: {cost.char_states} states)")
        print(f"horizon: {cost.horizon} tokens")
        if cost.max_frontier_width is not None:
            print(f"frontier width: <= {cost.max_frontier_width}")
        if cost.lm_calls_bound is not None:
            print(f"LM calls (exhaustive bound): <= {cost.lm_calls_bound}")
    if metrics is not None:
        print(
            f"compile: {metrics.compile_ms:.1f}ms, "
            f"states {metrics.token_states} -> {metrics.minimized_states}, "
            f"edges {metrics.token_edges} -> {metrics.minimized_edges} "
            f"({metrics.source})"
        )
    if report.findings:
        print("findings:")
        for finding in report.findings:
            print(f"  {finding.render()}")
    print(f"verdict: {report.verdict}")
    return 0 if not report.has_errors else 1


def _cmd_serve(args) -> int:
    """Run the engine as a long-lived validation service."""
    import asyncio

    from repro.experiments.common import get_environment
    from repro.service import SchedulerService, run_server

    if args.resume and args.checkpoint is None:
        print("error: --resume requires --checkpoint PATH", file=sys.stderr)
        return 2
    env = get_environment(scale=args.scale)

    def ready(host: str, port: int) -> None:
        print(f"# listening {host}:{port}", file=sys.stderr, flush=True)

    model, compiler = _build_engine(args, env)
    service = SchedulerService(
        model,
        env.tokenizer,
        compiler=compiler,
        logits_cache=env.logits_cache(args.model),
        concurrency=args.concurrency,
        admission_max_cost=args.admission_max_cost,
        max_inflight=args.max_inflight,
        lm_calls_per_minute=args.lm_calls_per_minute,
        default_window=args.window,
        progress_every=args.progress_every,
        checkpoint_path=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
        resume=args.resume,
        max_expansions=50_000,
    )
    try:
        asyncio.run(run_server(service, args.host, args.port, ready=ready))
    except KeyboardInterrupt:  # signal handler not installable (rare)
        service.close()
    stats = service.stats_snapshot()
    _stat_line("service", stats)
    if args.checkpoint:
        _stat_line("checkpoint", stats, note=f" path={args.checkpoint}")
    _engine_lines(model, compiler, service.logits_cache)
    return 0


def _cmd_submit(args) -> int:
    """Client-side mirror of ``query``: stream matches from a server."""
    import asyncio

    from repro.core.logging import MatchWriter
    from repro.service.client import ServiceClient, ServiceError

    queries = _build_queries(args)
    writer = MatchWriter(args.log) if args.log else None

    async def run() -> int:
        try:
            client = await ServiceClient.connect(args.host, args.port)
        except (ConnectionError, OSError) as exc:
            print(f"error: cannot reach {args.host}:{args.port}: {exc}", file=sys.stderr)
            return 1
        failed = False
        try:
            streams = []
            for pattern, query in zip(args.pattern, queries):
                streams.append(
                    (
                        pattern,
                        await client.submit(
                            query,
                            deadline=args.deadline,
                            max_lm_calls=args.max_lm_calls,
                            max_results=args.max_matches,
                            window=args.window,
                        ),
                    )
                )
            for pattern, stream in streams:
                print(f"== {pattern}")
                try:
                    async for match in stream:
                        print(f"{match.total_logprob:9.3f}  {match.text!r}")
                        if writer is not None:
                            writer.write(match)
                except ServiceError as exc:
                    print(f"#   error: {exc}", file=sys.stderr)
                    failed = True
                    continue
                flag = (
                    f" [{stream.status}: {stream.reason}]"
                    if stream.status != "ok" and stream.reason != "max_results"
                    else ""
                )
                _stat_line(
                    "query",
                    {
                        "matches": len(stream.matches),
                        **(stream.stats or {}),
                        "latency_ms": stream.latency_ms,
                    },
                    label=f"  {pattern}{flag}",
                )
                if stream.status in ("rejected", "interrupted"):
                    failed = True
            if args.stats:
                stats = await client.stats()
                _stat_line("service", stats)
                if "compile_disk" in stats:
                    _stat_line("compile disk cache", stats["compile_disk"])
        finally:
            await client.close()
        return 1 if failed else 0

    try:
        return asyncio.run(run())
    finally:
        if writer is not None:
            writer.close()
            print(f"# wrote {writer.count} matches to {args.log}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "query":
        return _cmd_query(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "dot":
        return _cmd_dot(args)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "lint-set":
        return _cmd_lint_set(args)
    if args.command == "explain":
        return _cmd_explain(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "submit":
        return _cmd_submit(args)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover
