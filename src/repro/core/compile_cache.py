"""Persistent cross-run compile cache: compilations survive the process.

The in-process :class:`~repro.core.compiler.CompilationCache` makes
templated query loops cheap *within* one run, but every fresh process —
a new CLI invocation, a ``--resume`` after an interrupt, a restarted
service — pays cold compilation again, and
the bench shows cold compilation dominates cold-start cost.  Outlines-style
guided generation (Willard & Louf) precomputes the FSM–vocabulary index
once and reuses it across runs; this module is the same move for ReLM's
compiled queries.

Entries are keyed by a content fingerprint of everything compilation
depends on (regex + prefix strings, tokenization strategy, preprocessor
signatures, tokenizer fingerprint) plus the on-disk format version, so a cache directory can be shared by
concurrent runs and survives tokenizer or code changes safely: anything
stale simply misses.  Writes are atomic (``mkstemp`` + ``fsync`` +
``os.replace``, the :mod:`repro.core.checkpoint` pattern) so a crashed or
concurrent writer can never leave a torn entry; unreadable or
version-mismatched entries are ignored with a warning, never an error.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Hashable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (compiler imports us)
    from repro.automata.dfa import DFA
    from repro.core.compiler import CompiledQuery, CompileMetrics, TokenAutomaton
    from repro.core.findings import QueryReport

__all__ = ["CompileCacheEntry", "CompileDiskCache", "COMPILE_CACHE_VERSION"]

#: On-disk format version.  Bump on any change to what entries contain or
#: how fingerprints are derived; it is hashed into every fingerprint, so old
#: entries are plain misses, never read.  Version 2: a proven-minimal
#: automaton's rows persist as its char product.  Version 3: a canonical
#: query is its canonical product (version 2 held a large or cyclic one as
#: the bare all-encodings automaton, which the executor used to prune).
COMPILE_CACHE_VERSION = 3


@dataclass
class CompileCacheEntry:
    """One persisted compilation: the automata, minus the array lowering.

    The :class:`~repro.core.arrays.AutomatonArrays` lowering is stripped
    before pickling (rows lower on first touch after loading), and lazy
    :class:`~repro.core.compiler.TokenRows` pickle as the char product they
    walk, not as rows or the vocabulary trie; the compiler re-binds its
    trie on load, and its tokenizer to a
    :class:`~repro.core.compiler.CanonicalRows` product.  The query object itself is *not* stored — entries
    are rebound to the incoming query, exactly like in-memory cache hits,
    so runtime fields (seed, sample counts, decoding rules) stay per-query.
    """

    version: int
    fingerprint: str
    char_dfa: "DFA"
    prefix_dfa: "DFA | None"
    prefix_closure: "DFA | None"
    token_automaton: "TokenAutomaton"
    report: "QueryReport | None"
    metrics: "CompileMetrics | None"
    #: ``CompiledQuery.char_infinite`` if an analysis had decided it (the
    #: class-level default also serves entries pickled before the field).
    char_infinite: bool | None = None

    @classmethod
    def from_compiled(cls, compiled: "CompiledQuery") -> "CompileCacheEntry":
        """Snapshot *compiled* for persistence (array lowering stripped).

        The report is persisted only if somebody has already read it — a
        snapshot never computes one; loading re-analyzes from ``None``.
        """
        return cls(
            version=COMPILE_CACHE_VERSION,
            fingerprint="",
            char_dfa=compiled.char_dfa,
            prefix_dfa=compiled.prefix_dfa,
            prefix_closure=compiled.prefix_closure,
            token_automaton=replace(compiled.token_automaton, _arrays=None),
            report=compiled._report,
            metrics=compiled.metrics,
            char_infinite=compiled._char_infinite,
        )


class CompileDiskCache:
    """A directory of atomically-written, fingerprint-named compilations.

    One file per entry (``<fingerprint>.relmc``), so concurrent runs
    sharing a directory never contend beyond the filesystem's atomic
    rename.  Counters: ``hits`` / ``misses`` (lookups), ``writes``
    (entries persisted), ``invalid`` (entries ignored as corrupt or
    version-mismatched — always also counted as misses).
    """

    def __init__(self, directory: str | os.PathLike[str]) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.invalid = 0

    @staticmethod
    def fingerprint(key: Hashable) -> str:
        """Content fingerprint of a compilation-cache key.

        The key already captures every compilation input (see
        :meth:`~repro.core.compiler.GraphCompiler.cache_key`); hashing its
        repr plus the format version yields a stable cross-process name.
        """
        payload = repr((COMPILE_CACHE_VERSION, key)).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()[:32]

    def path_for(self, fingerprint: str) -> Path:
        """The entry file backing *fingerprint*."""
        return self.directory / f"{fingerprint}.relmc"

    def get(self, fingerprint: str) -> CompileCacheEntry | None:
        """Load the entry for *fingerprint*, or ``None`` on any miss.

        A missing file is a plain miss; an unreadable, truncated, wrongly
        typed, or version-mismatched file is an *invalid* miss — reported
        with a warning and otherwise ignored, so a corrupted cache can
        never break a run (it just recompiles).
        """
        path = self.path_for(fingerprint)
        try:
            with open(path, "rb") as handle:
                loaded = pickle.load(handle)
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception as exc:
            warnings.warn(
                f"ignoring corrupted compile-cache entry {path}: {exc!r}",
                RuntimeWarning,
                stacklevel=2,
            )
            self.invalid += 1
            self.misses += 1
            return None
        if (
            not isinstance(loaded, CompileCacheEntry)
            or loaded.version != COMPILE_CACHE_VERSION
            or loaded.fingerprint != fingerprint
        ):
            found = getattr(loaded, "version", None)
            warnings.warn(
                f"ignoring compile-cache entry {path}: "
                f"version/type mismatch (found version {found!r}, "
                f"expected {COMPILE_CACHE_VERSION})",
                RuntimeWarning,
                stacklevel=2,
            )
            self.invalid += 1
            self.misses += 1
            return None
        self.hits += 1
        return loaded

    def put(self, fingerprint: str, entry: CompileCacheEntry) -> None:
        """Atomically persist *entry* under *fingerprint*.

        Written to a temp file in the same directory, flushed, fsynced,
        then renamed over the target — readers see either the old entry or
        the complete new one, never a torn write.
        """
        entry.fingerprint = fingerprint
        path = self.path_for(fingerprint)
        fd, tmp_path = tempfile.mkstemp(
            dir=self.directory, prefix=".compile-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(entry, handle, protocol=pickle.HIGHEST_PROTOCOL)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
            raise
        self.writes += 1

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.relmc"))

    def stats(self) -> dict[str, int]:
        """Plain-dict counter view for logging/reporting."""
        return {
            "entries": len(self),
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "invalid": self.invalid,
        }
