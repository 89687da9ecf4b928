#!/usr/bin/env python
"""CI smoke driver for the validation service (``repro serve``).

End-to-end exercise of the daemon from the outside, the way an operator
would run it:

1. Start ``repro serve`` on a random port with a persistent compile
   cache and an admission cost cap; the server evaluates the model
   in-process.
2. Run three concurrent clients against it: one streams a query to
   completion, one cancels mid-stream with a one-match window, and one
   submits a query whose statically-bounded LM cost exceeds the
   admission cap (must be rejected with zero LM calls).
3. SIGTERM the server and require a clean exit (code 0) that leaves
   **zero** new ``/dev/shm`` segments behind (nothing the server runs may
   leak shared memory).
4. Restart the server against the same ``--compile-cache`` directory and
   re-run the streamed query: the warm run must recompile nothing (disk
   cache misses == 0) and return bit-identical matches.

Exit status 0 iff every gate holds.  Usage::

    python tools/service_smoke.py [--keep-tmp]
"""

from __future__ import annotations

import argparse
import asyncio
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from repro.core.query import SearchQuery  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402

STREAM_PATTERN = "The ((cat)|(dog))"  # admitted: lm-call bound 36
REJECT_PATTERN = "The [a-z]{2}"  # rejected: lm-call bound 144 > cap 100
ADMISSION_CAP = 100
LISTENING = re.compile(r"^# listening (\S+):(\d+)$")


def shm_segments() -> set[str]:
    shm = Path("/dev/shm")
    return {entry.name for entry in shm.iterdir()} if shm.is_dir() else set()


class Server:
    """A ``repro serve`` subprocess plus its captured stderr."""

    def __init__(self, *extra_args: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", *extra_args],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            cwd=str(ROOT),
        )
        self.stderr_lines: list[str] = []
        self._ready = threading.Event()
        self.host, self.port = "", 0
        self._drain = threading.Thread(target=self._pump, daemon=True)
        self._drain.start()
        if not self._ready.wait(timeout=120):
            self.proc.kill()
            raise RuntimeError(
                "server never announced a listening port; stderr so far:\n"
                + "".join(self.stderr_lines)
            )

    def _pump(self) -> None:
        assert self.proc.stderr is not None
        for line in self.proc.stderr:
            self.stderr_lines.append(line)
            found = LISTENING.match(line.strip())
            if found:
                self.host, self.port = found.group(1), int(found.group(2))
                self._ready.set()
        self._ready.set()  # EOF without announcement: fail fast in __init__

    def stop(self, *, timeout: float = 120.0) -> int:
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            raise RuntimeError("server did not exit within timeout after SIGTERM")
        self._drain.join(timeout=10)
        return code


def check(condition: bool, label: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {label}")
    print(f"ok: {label}")


async def steady_client(host: str, port: int) -> list:
    async with await ServiceClient.connect(host, port) as client:
        stream = await client.submit(SearchQuery(STREAM_PATTERN), max_results=10)
        matches = await stream.collect()
        check(stream.status == "ok", f"steady client finished ok ({len(matches)} matches)")
        check(len(matches) == 2, "steady client streamed both matches")
        return [(m.tokens, m.text, m.logprob, m.total_logprob, m.canonical) for m in matches]


async def cancelling_client(host: str, port: int) -> None:
    async with await ServiceClient.connect(host, port) as client:
        stream = await client.submit(
            SearchQuery(STREAM_PATTERN), max_results=10, window=1, auto_grant=False
        )
        first = await stream.__anext__()  # exactly one credit granted
        check(first is not None, "cancelling client received its first match")
        await stream.cancel()
        await stream.collect()
        check(stream.status == "cancelled", "mid-stream cancel acknowledged as cancelled")
        check(len(stream.matches) == 1, "cancelled stream delivered only the windowed match")


async def rejected_client(host: str, port: int) -> None:
    async with await ServiceClient.connect(host, port) as client:
        stream = await client.submit(SearchQuery(REJECT_PATTERN), max_results=10)
        matches = await stream.collect()
        check(
            stream.status == "rejected" and stream.reason == "rejected_cost",
            f"admission control rejected the over-budget query ({stream.reason})",
        )
        check(matches == [], "rejected query produced no matches")
        check(
            (stream.stats or {}).get("lm_calls", -1) == 0,
            "rejected query cost zero LM calls",
        )


async def cold_phase(host: str, port: int) -> list:
    results, _, _ = await asyncio.gather(
        steady_client(host, port),
        cancelling_client(host, port),
        rejected_client(host, port),
    )
    return results


async def warm_phase(host: str, port: int) -> tuple[list, dict]:
    async with await ServiceClient.connect(host, port) as client:
        stream = await client.submit(SearchQuery(STREAM_PATTERN), max_results=10)
        matches = await stream.collect()
        check(stream.status == "ok", "warm re-run finished ok")
        stats = await client.stats()
        return (
            [(m.tokens, m.text, m.logprob, m.total_logprob, m.canonical) for m in matches],
            stats,
        )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--keep-tmp", action="store_true", help="leave the scratch dir behind")
    args = parser.parse_args()

    tmp = Path(tempfile.mkdtemp(prefix="service-smoke-"))
    compile_cache = tmp / "compile-cache"
    shm_before = shm_segments()
    try:
        server = Server(
            "--compile-cache", str(compile_cache),
            "--admission-max-cost", str(ADMISSION_CAP),
            "--scale", "test",
        )
        print(f"# cold server on {server.host}:{server.port}")
        cold = asyncio.run(cold_phase(server.host, server.port))
        check(server.stop() == 0, "cold server exited 0 on SIGTERM")
        leaked = shm_segments() - shm_before
        check(not leaked, f"zero leaked /dev/shm segments (found {sorted(leaked)})")
        check(compile_cache.is_dir() and any(compile_cache.iterdir()),
              "compile cache populated on disk")

        warm_server = Server(
            "--compile-cache", str(compile_cache),
            "--admission-max-cost", str(ADMISSION_CAP),
            "--scale", "test",
        )
        print(f"# warm server on {warm_server.host}:{warm_server.port}")
        warm, stats = asyncio.run(warm_phase(warm_server.host, warm_server.port))
        check(warm_server.stop() == 0, "warm server exited 0 on SIGTERM")
        check(warm == cold, "warm matches bit-identical to cold run")
        disk = stats.get("compile_disk", {})
        check(disk.get("misses", -1) == 0,
              f"warm server recompiled nothing (disk hits={disk.get('hits')}, misses=0)")
        check(disk.get("hits", 0) >= 1, "warm server served compiles from the disk cache")
        leaked = shm_segments() - shm_before
        check(not leaked, "zero leaked /dev/shm segments after warm run")
    finally:
        if not args.keep_tmp:
            shutil.rmtree(tmp, ignore_errors=True)
    print("service smoke: all gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
