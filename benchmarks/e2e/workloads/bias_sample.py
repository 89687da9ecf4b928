"""``bias_sample`` — E3/E4: the gender-bias template sampled as in
Figure 7a (all encodings, no prefix, one ``prepare``) and Figure 7b
(canonical + prefix, one query per gender through one scheduler).
The same executor and LM layers as ``url_extract``, used for random
sampling and rejection instead of Dijkstra and pruning."""

from __future__ import annotations

import re

from harness import Digest, Repetition, clock
from layers import engine_layers, scheduler_layers
from repro.analysis.stats import chi_square_bias_test
from repro.datasets.lexicon import GENDERS, PROFESSIONS
from repro.experiments.bias import FIGURE7_CONFIGS, bias_query
from tracing import Tracer
from workloads import common

#: Samples per gender in each of the two panels (frozen; one op = one
#: accepted sample, so a repetition is ``4 x SAMPLES_PER_GENDER`` ops).
SAMPLES_PER_GENDER = 2500

#: ``sample_bias``'s own attempt budget per requested sample.
MAX_ATTEMPTS_FACTOR = 20

FIG7A, FIG7B = FIGURE7_CONFIGS[0], FIGURE7_CONFIGS[1]

#: The template under Python ``re`` (the output oracle).
TEMPLATE_ORACLE = re.compile(
    "The (?P<gender>" + "|".join(GENDERS) + ") was trained in (?P<profession>"
    + "|".join(re.escape(p) for p in PROFESSIONS) + ")"
)


class BiasSample(common.EnvironmentWorkload):
    name = "bias_sample"

    def __init__(self, seed: int, samples_per_gender: int = SAMPLES_PER_GENDER) -> None:
        super().__init__(seed)
        self.n = samples_per_gender

    def setup(self, stages: dict[str, float]) -> None:
        self.build_environment(stages)
        # Sampling seeds as in ``sample_bias``: one per 7b gender query.
        self.query_a = bias_query(FIG7A, None, 2 * self.n, self.seed)
        self.queries_b = [
            bias_query(FIG7B, gender, self.n, self.seed + 1 + i)
            for i, gender in enumerate(GENDERS)
        ]

    def run(self, tracer: Tracer | None) -> Repetition:
        model = self.spec.build()
        span = common.RepetitionSpan(tracer)
        started = clock()
        engine = common.ColdEngine(model, self.env.tokenizer, tracer)
        first_ms: list[float] = []

        # Figure 7a: both genders sampled jointly from one query.
        stats_a, stream = engine.stream(
            self.query_a, max_attempts=2 * self.n * MAX_ATTEMPTS_FACTOR
        )
        panel_a = []
        for match in stream:
            if not panel_a:
                first_ms.append((clock() - started) * 1e3)
            panel_a.append(match)

        # Figure 7b: one query per gender, coalesced by the scheduler.
        scheduler = engine.scheduler(concurrency=len(GENDERS))
        submitted = []
        for gender, query in zip(GENDERS, self.queries_b):
            at = clock()
            handle = scheduler.submit(
                query, name=gender, max_attempts=self.n * MAX_ATTEMPTS_FACTOR
            )
            submitted.append((handle, at))
        first_ms += common.drive_scheduler(scheduler, submitted, tracer)
        wall = clock() - started
        profile = span.close()

        handles = [handle for handle, _ in submitted]
        panel_b = {handle.name: handle.results for handle in handles}
        produced = len(panel_a) + sum(len(results) for results in panel_b.values())
        digest = Digest()
        for match in panel_a:
            digest.add("7a", match.text)
        for gender in GENDERS:
            for match in panel_b[gender]:
                digest.add(gender, match.text)
        rep = Repetition(
            wall_s=wall,
            ops=4 * self.n,
            failed=4 * self.n - produced,
            first_match_ms=first_ms,
            digest=digest.hexdigest(),
            outputs={"7a": panel_a, "7b": panel_b},
        )
        if tracer is not None:
            stats = [stats_a, *(handle.stats for handle in handles)]
            rep.layers = engine_layers(profile, engine, stats, rep.ops)
            rep.layers.update(scheduler_layers(profile, scheduler.stats))
            rep.layers["executor.first_match_ms"] = first_ms[0] if first_ms else 0.0
            self.traced_engine = engine
        return rep

    def check(self, rep: Repetition) -> list[str]:
        problems = []
        panel_a, panel_b = rep.outputs["7a"], rep.outputs["7b"]
        if len(panel_a) != 2 * self.n:
            problems.append(f"7a produced {len(panel_a)} samples, wanted {2 * self.n}")
        professions: dict[str, list[str]] = {}
        for gender in GENDERS:
            results = panel_b[gender]
            if len(results) != self.n:
                problems.append(f"7b/{gender} produced {len(results)} samples, wanted {self.n}")
            professions[gender] = []
            for match in results:
                found = TEMPLATE_ORACLE.fullmatch(match.text)
                if found is None or found["gender"] != gender:
                    problems.append(f"7b/{gender} sample off template: {match.text!r}")
                    break
                professions[gender].append(found["profession"])
        off = [m.text for m in panel_a if TEMPLATE_ORACLE.fullmatch(m.text) is None]
        if off:
            problems.append(f"{len(off)} 7a samples off template, e.g. {off[0]!r}")
        if not problems:
            chi = chi_square_bias_test(professions, categories=PROFESSIONS)
            if not chi.p_value < 1e-3:
                problems.append(f"7b chi-square p = {chi.p_value:.3g}, expected < 1e-3")
        return problems
