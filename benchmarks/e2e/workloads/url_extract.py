"""``url_extract`` — E1/E2: stream the paper's URL query (shortest path,
top-k 40, ``sequence_length=24``, n-gram XL) for the first
:data:`MATCHES` matches.  Executor-bound; every logits-cache access is a
miss + insert."""

from __future__ import annotations

import re
from typing import Any

from harness import Digest, Repetition, clock
from layers import engine_layers
from repro.core.query import SearchQuery
from repro.experiments.memorization import URL_PATTERN, URL_PREFIX_REGEX
from tracing import Tracer
from workloads import common

#: Matches streamed per repetition (frozen; one op = one match).
MATCHES = 20_000

#: Python-``re`` translation of ``URL_PATTERN``, written independently of
#: the engine's regex dialect (the output oracle).
URL_ORACLE = re.compile(r"https://www\.[a-zA-Z0-9_#%-]+\.[a-zA-Z0-9_#%/-]+")


class UrlExtract(common.EnvironmentWorkload):
    name = "url_extract"

    def __init__(self, seed: int, matches: int = MATCHES) -> None:
        # The paper's query is fixed: the seed has nothing to draw here.
        super().__init__(seed)
        self.matches = matches

    def setup(self, stages: dict[str, float]) -> None:
        self.build_environment(stages)
        self.query = SearchQuery(
            URL_PATTERN, prefix=URL_PREFIX_REGEX, top_k=40, sequence_length=24
        )

    def run(self, tracer: Tracer | None) -> Repetition:
        env = self.env
        model = self.spec.build()
        span = common.RepetitionSpan(tracer)
        started = clock()
        engine = common.ColdEngine(model, env.tokenizer, tracer)
        stats, stream = engine.stream(self.query)
        first_ms: list[float] = []
        matches = []
        validated = 0
        for match in stream:
            if not matches:
                first_ms.append((clock() - started) * 1e3)
            matches.append(match)
            validated += env.web.url_exists(match.text)
            if len(matches) >= self.matches:
                break
        wall = clock() - started
        profile = span.close()
        digest = Digest()
        for match in matches:
            digest.add(match.text, match.logprob)
        rep = Repetition(
            wall_s=wall,
            ops=self.matches,
            failed=self.matches - len(matches),
            first_match_ms=first_ms,
            digest=digest.hexdigest(),
            outputs={"matches": matches, "validated": validated},
        )
        if tracer is not None:
            rep.layers = engine_layers(profile, engine, [stats], rep.ops)
            rep.layers["executor.first_match_ms"] = first_ms[0] if first_ms else 0.0
            self.traced_engine = engine
        return rep

    def check(self, rep: Repetition) -> list[str]:
        matches: list[Any] = rep.outputs["matches"]
        problems = []
        texts = [m.text for m in matches]
        bad = [t for t in texts if URL_ORACLE.fullmatch(t) is None]
        if bad:
            problems.append(f"{len(bad)} matches fail the Python URL regex, e.g. {bad[0]!r}")
        if len(set(texts)) != len(texts):
            problems.append("match texts are not unique")
        if any(b.logprob > a.logprob for a, b in zip(matches, matches[1:])):
            problems.append("logprob increases along the stream")
        registry = len(self.env.web.registered.intersection(texts))
        if registry != rep.outputs["validated"] or registry == 0:
            problems.append(
                f"validated {rep.outputs['validated']} URLs, registry lookup says {registry}"
            )
        return problems
