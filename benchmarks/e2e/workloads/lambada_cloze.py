"""``lambada_cloze`` — E7: the four §4.4 query formulations over seeded
cloze items, first match only, exactly as ``lambada_eval.predict``.
Compile-bound: first-match latency is compile latency."""

from __future__ import annotations

import random
import re

from harness import Digest, Repetition, clock
from layers import engine_layers
from repro.datasets.lambada import ClozeItem
from repro.experiments.lambada_eval import STRATEGIES, build_query, evaluate_strategy
from tracing import Tracer
from workloads import common

#: Items drawn per planted kind (frozen; one op = one query, so a
#: repetition is ``kinds x ITEMS_PER_KIND x 4`` ops).  Stratifying by kind
#: keeps the work of different seeds comparable: compile cost follows the
#: context length, which is fixed per kind.
ITEMS_PER_KIND = 1

#: ``predict()``'s own expansion budget.
MAX_EXPANSIONS = 3000

WORD = re.compile(r"[a-zA-Z]+")


class LambadaCloze(common.EnvironmentWorkload):
    name = "lambada_cloze"

    def __init__(
        self,
        seed: int,
        items_per_kind: int = ITEMS_PER_KIND,
        kinds: tuple[str, ...] | None = None,
    ) -> None:
        super().__init__(seed)
        self.items_per_kind = items_per_kind
        self.kinds = kinds  # None = every planted kind

    def setup(self, stages: dict[str, float]) -> None:
        self.build_environment(stages)
        rng = random.Random(self.seed)
        dataset = self.env.lambada
        self.items: list[ClozeItem] = []
        for kind in self.kinds or sorted({item.kind for item in dataset.items}):
            self.items += rng.sample(dataset.of_kind(kind), self.items_per_kind)
        rng.shuffle(self.items)

    def run(self, tracer: Tracer | None) -> Repetition:
        model = self.spec.build()
        span = common.RepetitionSpan(tracer)
        started = clock()
        engine = common.ColdEngine(model, self.env.tokenizer, tracer)
        first_ms: list[float] = []
        predictions: list[tuple[str, str, str | None]] = []
        stats = []
        digest = Digest()
        for item in self.items:
            for strategy in STRATEGIES:
                submitted = clock()
                query_stats, stream = engine.stream(
                    build_query(item, strategy), max_expansions=MAX_EXPANSIONS
                )
                stats.append(query_stats)
                match = next(stream, None)
                if match is None:
                    predictions.append((item.context, strategy, None))
                    continue
                first_ms.append((clock() - submitted) * 1e3)
                # Graded as ``predict`` does: the first word after the context.
                word = WORD.search(match.text[len(item.context):])
                predictions.append((item.context, strategy, word.group(0) if word else None))
                digest.add(strategy, match.text, match.logprob)
        wall = clock() - started
        profile = span.close()
        rep = Repetition(
            wall_s=wall,
            ops=len(predictions),
            failed=len(predictions) - len(first_ms),
            first_match_ms=first_ms,
            digest=digest.hexdigest(),
            outputs=predictions,
        )
        if tracer is not None:
            rep.layers = engine_layers(profile, engine, stats, rep.ops)
            rep.layers["executor.first_match_ms"] = sum(first_ms) / max(len(first_ms), 1)
            self.traced_engine = engine
        return rep

    def check(self, rep: Repetition) -> list[str]:
        """Accuracy per strategy must equal the experiment module's own
        grader (``evaluate_strategy``: its ``predict`` loop over the
        environment's shared compiler and caches, graded against the
        ``ClozeItem`` answers) and rise monotonically along the ladder."""
        problems = []
        targets = {item.context: item.target for item in self.items}
        ladder = []
        for strategy in STRATEGIES:
            mine = sum(
                word == targets[context]
                for context, strat, word in rep.outputs
                if strat == strategy
            )
            oracle = evaluate_strategy(self.env, strategy, items=self.items)
            if mine != oracle.correct:
                problems.append(
                    f"{strategy}: benchmark graded {mine} correct, "
                    f"evaluate_strategy graded {oracle.correct}"
                )
            ladder.append(mine)
        if ladder != sorted(ladder):
            problems.append(f"accuracy is not monotone along the ladder: {ladder}")
        return problems
