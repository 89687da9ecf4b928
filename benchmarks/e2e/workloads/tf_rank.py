"""``tf_rank`` — E10 on a transformer: the four ``birthdate_query``
structured queries ranked to the top :data:`TOP_N` each through one
``QueryScheduler``.  Model-forward-bound (coalesced rounds, KV prefix
cache); n-gram-only changes must not move it."""

from __future__ import annotations

import random
import re

from harness import Digest, Repetition, clock
from layers import engine_layers, scheduler_layers
from repro.core.scheduler import QueryBudget
from repro.experiments.knowledge import FACTS, MONTHS, birthdate_query, knowledge_world
from repro.lm.transformer import TransformerConfig, TransformerModel
from tracing import Tracer
from workloads import common

#: Ranked matches per subject (frozen; one op = one ranked match).
TOP_N = 200

#: The NumPy GPT of the ROADMAP's "transformer-backed E10" gate.
N_LAYER, N_HEAD, N_EMBD, BLOCK_SIZE, KV_CACHE_MB = 4, 4, 64, 32, 64.0

#: Fit recipe: 120 Adam steps over the planted fact sentences.  Batch 4 at
#: lr 5e-3 is the cheapest setting found that ranks all four planted dates
#: first, each by a margin above 2.5 nats.
FIT_STEPS, FIT_BATCH, FIT_LR, FIT_REPEATS = 120, 4, 5e-3, 12

#: The Figure 1c date language under Python ``re`` (the output oracle).
DATE_ORACLE = re.compile("(" + "|".join(MONTHS) + r") [0-9]{1,2}, [0-9]{4}")


class TfRank(common.EngineWorkload):
    name = "tf_rank"

    def __init__(self, seed: int, top_n: int = TOP_N, fit_steps: int = FIT_STEPS) -> None:
        super().__init__(seed)
        self.top_n = top_n
        self.fit_steps = fit_steps

    def setup(self, stages: dict[str, float]) -> None:
        started = clock()
        knowledge_world.cache_clear()
        self.tokenizer = knowledge_world(0).tokenizer
        stages["environment_s"] = clock() - started
        started = clock()
        model = TransformerModel(
            TransformerConfig(
                vocab_size=len(self.tokenizer), block_size=BLOCK_SIZE,
                n_layer=N_LAYER, n_head=N_HEAD, n_embd=N_EMBD,
            ),
            eos_id=self.tokenizer.eos_id, seed=0, kv_cache_mb=KV_CACHE_MB,
        )
        facts = [f"{subject} was born on {date}." for subject, date in FACTS]
        model.fit(
            [self.tokenizer.encode(line) for line in facts] * FIT_REPEATS,
            steps=self.fit_steps, batch_size=FIT_BATCH, lr=FIT_LR, seed=0,
        )
        stages["transformer_fit_s"] = clock() - started
        self.spec = model.spec()
        # The seed orders the submissions (who opens each coalesced round).
        self.subjects = [subject for subject, _ in FACTS]
        random.Random(self.seed).shuffle(self.subjects)

    def run(self, tracer: Tracer | None) -> Repetition:
        model = self.spec.build()
        span = common.RepetitionSpan(tracer)
        started = clock()
        engine = common.ColdEngine(model, self.tokenizer, tracer)
        scheduler = engine.scheduler(concurrency=len(self.subjects))
        submitted = []
        for subject in self.subjects:
            at = clock()
            handle = scheduler.submit(
                birthdate_query(subject), name=subject,
                budget=QueryBudget(max_results=self.top_n),
            )
            submitted.append((handle, at))
        first_ms = common.drive_scheduler(scheduler, submitted, tracer)
        wall = clock() - started
        profile = span.close()

        rankings = {handle.name: handle.results for handle, _ in submitted}
        digest = Digest()
        for subject, _ in FACTS:
            for match in rankings[subject]:
                digest.add(subject, match.text, match.logprob)
        ops = self.top_n * len(self.subjects)
        rep = Repetition(
            wall_s=wall,
            ops=ops,
            failed=ops - sum(len(results) for results in rankings.values()),
            first_match_ms=first_ms,
            digest=digest.hexdigest(),
            outputs=rankings,
        )
        if tracer is not None:
            stats = [handle.stats for handle, _ in submitted]
            rep.layers = engine_layers(profile, engine, stats, ops)
            rep.layers.update(scheduler_layers(profile, scheduler.stats))
            # max_results is each query's own budget, not a failure.
            rep.layers["scheduler.queries_truncated"] = sum(
                handle.truncated and handle.truncated_reason != "max_results"
                for handle, _ in submitted
            )
            rep.layers["executor.first_match_ms"] = sum(first_ms) / max(len(first_ms), 1)
            self.traced_engine = engine
        return rep

    def check(self, rep: Repetition) -> list[str]:
        problems = []
        for subject, date in FACTS:
            results = rep.outputs[subject]
            lead = f"{subject} was born on "
            if len(results) != self.top_n:
                problems.append(f"{subject}: {len(results)} matches, wanted {self.top_n}")
                continue
            if results[0].text != lead + date:
                problems.append(f"{subject}: top-1 is {results[0].text!r}, planted {date!r}")
            if any(b.logprob > a.logprob for a, b in zip(results, results[1:])):
                problems.append(f"{subject}: logprob increases along the ranking")
            off = [
                m.text for m in results
                if not m.text.startswith(lead)
                or DATE_ORACLE.fullmatch(m.text[len(lead):]) is None
            ]
            if off:
                problems.append(f"{subject}: {len(off)} matches off the date language")
        return problems
