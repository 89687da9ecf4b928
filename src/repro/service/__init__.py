"""Validation-as-a-service: the engine as a long-lived daemon.

Every other entry point in this repository is one-shot: compile, run,
exit — and the compile cache, prefix-state (KV) cache and logits cache
are torn down with the process.  The paper frames validation
as queries against a shared executor (§3.1), and the natural deployment
shape for that executor is a *service*: a persistent process that keeps
all of the PR 1–8 machinery warm and answers many concurrent clients.

Layers (bottom up):

* :mod:`repro.service.protocol` — the versioned NDJSON wire protocol
  (HELLO/SUBMIT/MATCH/PROGRESS/DONE/ERROR/CANCEL/WINDOW/STATS frames),
  length-checked and fuzz-tolerant.
* :mod:`repro.service.sessions` — :class:`SchedulerService`, the bridge
  between the synchronous :class:`~repro.core.scheduler.QueryScheduler`
  (driven round-by-round in a dedicated engine thread, over a warm
  :class:`~repro.core.compiler.GraphCompiler` + shared
  :class:`~repro.lm.base.LogitsCache`) and per-client delivery callbacks
  with windowed backpressure, admission quotas, and graceful drain.
* :mod:`repro.service.server` — :class:`ValidationServer`, the asyncio
  TCP frontend, plus :func:`run_server` (SIGTERM-aware; what
  ``repro serve`` runs).
* :mod:`repro.service.client` — :class:`ServiceClient`, the typed async
  client (``connect()`` / ``submit()`` / async-iterate matches /
  ``cancel()``), used by ``repro submit``.
"""

from repro.service.client import QueryStream, ServiceClient, ServiceError
from repro.service.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    decode_frame,
    encode_frame,
    match_from_wire,
    match_to_wire,
    query_from_wire,
    query_to_wire,
)
from repro.service.server import ValidationServer, run_server
from repro.service.sessions import ClientSession, SchedulerService, ServiceStats

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "encode_frame",
    "decode_frame",
    "query_to_wire",
    "query_from_wire",
    "match_to_wire",
    "match_from_wire",
    "SchedulerService",
    "ClientSession",
    "ServiceStats",
    "ValidationServer",
    "run_server",
    "ServiceClient",
    "QueryStream",
    "ServiceError",
]
