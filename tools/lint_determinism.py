#!/usr/bin/env python
"""Determinism sanitizer: AST lint for reproducibility hazards in ``src/``.

The repo's correctness story leans on bit-identical behaviour: the
differential suites assert that the scheduler's interleavings, the arrays
backend, and the KV cache never change a single log-probability, and the
property suites re-run seeded corpora expecting byte-stable results.  Three
code patterns quietly break that:

``DET001`` **unseeded randomness** — ``random.Random()`` with no seed,
    module-level ``random.random()``/``random.choice()``/... calls (which
    use the process-global generator), and legacy ``np.random.*`` calls
    (global-state API).  ``np.random.default_rng(seed)`` /
    ``np.random.Generator`` are fine.
``DET002`` **wall-clock dependence in core/lm paths** — ``time.time()``,
    ``time.time_ns()``, ``datetime.now()``/``utcnow()``/``today()`` inside
    ``repro/core/`` or ``repro/lm/``, where results must not depend on
    when they were computed.  (``time.monotonic``/``perf_counter`` as
    *measurement* are allowed; deadlines take an injectable clock.)
``DET003`` **set iteration feeding ordering** — ``for x in {...}``,
    ``list(set(...))``, ``sorted`` is exempt — iterating a set in a
    context that fixes an output ordering is hash-seed-dependent.
``DET004`` **unreclaimed shared memory in core paths** — a
    ``multiprocessing.shared_memory.SharedMemory`` allocation inside
    ``repro/core/`` whose enclosing scope neither calls
    ``close()``/``unlink()`` nor sits in a ``try``/``finally``: segments
    that outlive their owner leak OS handles (and under spawn, whole
    blocks) on error paths, which later runs observe as cross-run
    nondeterminism.

Suppression: append ``# det: ok`` to the offending line, or extend
``ALLOWLIST`` below with ``path::line-pattern`` entries (kept explicit so
the CI gate documents every accepted hazard).

Usage::

    python tools/lint_determinism.py src/            # human output, exit 1 on findings
    python tools/lint_determinism.py src/ --json     # machine-readable report

Run as a blocking CI gate (see ``.github/workflows/ci.yml``).
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

#: Accepted hazards: ``(path-suffix, substring-of-line)`` pairs.  A finding
#: whose file ends with the suffix and whose source line contains the
#: substring is suppressed.  Keep each entry justified.
ALLOWLIST: tuple[tuple[str, str], ...] = (
    # Scheduler deadlines default to a monotonic clock but take an
    # injectable ``clock=`` (the deadline tests pin a fake one).
    ("core/scheduler.py", "clock=time.monotonic"),
)

#: Module-level ``random.*`` functions that use the process-global RNG.
GLOBAL_RANDOM_FUNCS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "gauss",
        "betavariate",
        "expovariate",
        "seed",
        "getrandbits",
    }
)

#: Legacy ``np.random.*`` global-state API (the seeded ``default_rng`` /
#: ``Generator`` / ``SeedSequence`` objects are the sanctioned path).
NP_RANDOM_OK = frozenset({"default_rng", "Generator", "SeedSequence"})

#: Wall-clock calls that make results depend on when they ran.
WALL_CLOCK_TIME = frozenset({"time", "time_ns"})
WALL_CLOCK_DATETIME = frozenset({"now", "utcnow", "today"})

#: Paths (relative, substring match) where wall-clock dependence is a
#: finding.  Outside these, timing is measurement (benchmarks, experiment
#: latency logs) and allowed.
CORE_PATH_MARKERS = ("repro/core/", "repro/lm/")

#: Paths where shared-memory allocations must be paired with reclamation
#: (DET004): nothing in the engine allocates shared memory today, and any
#: future use there must reclaim what it allocates.
SHM_PATH_MARKERS = ("repro/core/",)

#: Attribute calls that count as shared-memory reclamation.
SHM_CLEANUP_ATTRS = frozenset({"close", "unlink"})


@dataclass(frozen=True)
class DetFinding:
    """One determinism hazard."""

    code: str
    path: str
    line: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.code} {self.message}"


def _qualified_name(node: ast.AST) -> str | None:
    """Dotted name of a call target, e.g. ``np.random.default_rng``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_set_expr(node: ast.AST) -> bool:
    """Whether *node* evaluates to a set with iteration-order hazards."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = _qualified_name(node.func)
        if name == "set":
            return True
        # set arithmetic on a set() call, e.g. ``set(a) - set(b)``
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.Sub, ast.BitOr, ast.BitAnd, ast.BitXor)
    ):
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


class _Visitor(ast.NodeVisitor):
    """Collects determinism findings for one module."""

    def __init__(self, path: str, rel: str, lines: list[str]) -> None:
        self.path = path
        self.rel = rel
        self.lines = lines
        self.findings: list[DetFinding] = []
        self.in_core = any(marker in rel.replace("\\", "/") for marker in CORE_PATH_MARKERS)
        self.in_shm_core = any(
            marker in rel.replace("\\", "/") for marker in SHM_PATH_MARKERS
        )
        #: names bound by ``import numpy as np`` / ``import numpy``
        self.numpy_aliases: set[str] = set()
        self.random_module_aliases: set[str] = set()
        self.time_aliases: set[str] = set()
        self.datetime_names: set[str] = set()
        #: names bound to the ``shared_memory`` module / ``SharedMemory`` class
        self.shm_module_aliases: set[str] = set()
        self.shm_class_names: set[str] = set()
        self.multiprocessing_aliases: set[str] = set()
        #: innermost enclosing function per DET004 check
        self._scope_stack: list[ast.AST] = []
        self._finally_depth = 0
        #: set by :func:`lint_file`; module-level allocations check the
        #: whole module for reclamation calls
        self.tree: ast.AST | None = None

    # -- imports -------------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name in ("numpy", "numpy.random"):
                self.numpy_aliases.add(bound)
            elif alias.name == "random":
                self.random_module_aliases.add(bound)
            elif alias.name == "time":
                self.time_aliases.add(bound)
            elif alias.name == "datetime":
                self.datetime_names.add(bound)
            elif alias.name.split(".")[0] == "multiprocessing":
                self.multiprocessing_aliases.add(bound)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "datetime":
            for alias in node.names:
                if alias.name == "datetime":
                    self.datetime_names.add(alias.asname or alias.name)
        if node.module == "multiprocessing":
            for alias in node.names:
                if alias.name == "shared_memory":
                    self.shm_module_aliases.add(alias.asname or alias.name)
        if node.module == "multiprocessing.shared_memory":
            for alias in node.names:
                if alias.name == "SharedMemory":
                    self.shm_class_names.add(alias.asname or alias.name)
        if node.module == "random":
            for alias in node.names:
                if alias.name in GLOBAL_RANDOM_FUNCS:
                    self._add(
                        "DET001",
                        node.lineno,
                        f"from random import {alias.name}: module-level random "
                        "functions use the process-global RNG; construct a "
                        "seeded random.Random instead",
                    )
        self.generic_visit(node)

    # -- scopes (DET004 context) ----------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._scope_stack.append(node)
        self.generic_visit(node)
        self._scope_stack.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._scope_stack.append(node)
        self.generic_visit(node)
        self._scope_stack.pop()

    def visit_Try(self, node: ast.Try) -> None:
        if not node.finalbody:
            self.generic_visit(node)
            return
        # Children under the try (body/handlers/orelse) are protected by
        # the ``finally``; the finalbody itself is not.
        self._finally_depth += 1
        for child in [*node.body, *node.handlers, *node.orelse]:
            self.visit(child)
        self._finally_depth -= 1
        for child in node.finalbody:
            self.visit(child)

    # -- calls ---------------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        name = _qualified_name(node.func)
        if name:
            self._check_call(name, node)
        self.generic_visit(node)

    def _is_shm_constructor(self, parts: list[str]) -> bool:
        root = parts[0]
        if parts[-1] != "SharedMemory":
            return False
        if len(parts) == 1:
            return root in self.shm_class_names
        if len(parts) == 2:
            return parts[0] in self.shm_module_aliases or parts[0] == "shared_memory"
        return parts[-2] == "shared_memory" and root in self.multiprocessing_aliases

    def _check_shm_allocation(self, name: str, node: ast.Call) -> None:
        """DET004: a SharedMemory allocation must have reclamation in reach —
        a ``close()``/``unlink()`` call in its enclosing scope, or a
        ``try``/``finally`` around the allocation site."""
        if self._finally_depth > 0:
            return
        scope: ast.AST | None = self._scope_stack[-1] if self._scope_stack else self.tree
        if scope is not None:
            for sub in ast.walk(scope):
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr in SHM_CLEANUP_ATTRS
                ):
                    return
        self._add(
            "DET004",
            node.lineno,
            f"{name}() allocates a shared-memory segment with no "
            "close()/unlink() in its enclosing scope and no try/finally; "
            "segments leak on error paths — reclaim them, or annotate the "
            "owner that does",
        )

    def _check_call(self, name: str, node: ast.Call) -> None:
        parts = name.split(".")
        root = parts[0]
        # shared-memory allocation without reclamation in reach
        if self.in_shm_core and self._is_shm_constructor(parts):
            self._check_shm_allocation(name, node)
            return
        # random.Random() with no arguments -> OS-entropy seeded
        if parts[-2:] == ["random", "Random"] or (
            root in self.random_module_aliases and parts[-1] == "Random"
        ):
            if not node.args and not node.keywords:
                self._add(
                    "DET001",
                    node.lineno,
                    "random.Random() without a seed draws OS entropy; pass an "
                    "explicit seed",
                )
            return
        # module-level random.<fn>()
        if root in self.random_module_aliases and len(parts) == 2:
            if parts[1] in GLOBAL_RANDOM_FUNCS:
                self._add(
                    "DET001",
                    node.lineno,
                    f"{name}() uses the process-global RNG; use a seeded "
                    "random.Random instance",
                )
            return
        # np.random.<fn>() legacy global-state API
        if (
            len(parts) >= 3
            and root in self.numpy_aliases
            and parts[1] == "random"
            and parts[2] not in NP_RANDOM_OK
        ):
            self._add(
                "DET001",
                node.lineno,
                f"{name}() is numpy's global-state random API; use "
                "np.random.default_rng(seed)",
            )
            return
        # wall clock in core/lm
        if self.in_core:
            if root in self.time_aliases and len(parts) == 2 and parts[1] in WALL_CLOCK_TIME:
                self._add(
                    "DET002",
                    node.lineno,
                    f"{name}() wall-clock read in a core path; inject a clock "
                    "or use a monotonic timer at the boundary",
                )
            elif (
                len(parts) >= 2
                and parts[-1] in WALL_CLOCK_DATETIME
                and parts[-2] == "datetime"
                and (root in self.datetime_names or root == "datetime")
            ):
                self._add(
                    "DET002",
                    node.lineno,
                    f"{name}() wall-clock read in a core path; pass timestamps in",
                )

    # -- set-iteration ordering ----------------------------------------------
    def visit_For(self, node: ast.For) -> None:
        if _is_set_expr(node.iter):
            self._add(
                "DET003",
                node.lineno,
                "iterating a set: order is hash-seed-dependent; sort or use a "
                "list/dict",
            )
        self.generic_visit(node)

    def _check_ordering_call(self, node: ast.Call) -> None:
        name = _qualified_name(node.func)
        if name in ("list", "tuple", "enumerate") and node.args:
            if _is_set_expr(node.args[0]):
                self._add(
                    "DET003",
                    node.lineno,
                    f"{name}(<set>) fixes a hash-seed-dependent order; wrap in "
                    "sorted(...)",
                )
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "join"
            and node.args
            and _is_set_expr(node.args[0])
        ):
            self._add(
                "DET003",
                node.lineno,
                "str.join over a set: output order is hash-seed-dependent; "
                "sort first",
            )

    def generic_visit(self, node: ast.AST) -> None:
        if isinstance(node, ast.Call):
            self._check_ordering_call(node)
        super().generic_visit(node)

    # -- helpers --------------------------------------------------------------
    def _add(self, code: str, lineno: int, message: str) -> None:
        line = self.lines[lineno - 1] if lineno - 1 < len(self.lines) else ""
        if "# det: ok" in line:
            return
        rel = self.rel.replace("\\", "/")
        for suffix, needle in ALLOWLIST:
            if rel.endswith(suffix) and needle in line:
                return
        self.findings.append(DetFinding(code=code, path=self.rel, line=lineno, message=message))


def lint_file(path: Path, root: Path) -> list[DetFinding]:
    """All determinism findings for one Python file."""
    rel = str(path.relative_to(root)) if path.is_relative_to(root) else str(path)
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:  # surface, don't crash the gate
        return [
            DetFinding(
                code="DET000",
                path=rel,
                line=exc.lineno or 0,
                message=f"file does not parse: {exc.msg}",
            )
        ]
    visitor = _Visitor(str(path), rel, source.splitlines())
    visitor.tree = tree
    visitor.visit(tree)
    return sorted(visitor.findings, key=lambda f: (f.path, f.line, f.code))


def lint_paths(paths: list[Path]) -> list[DetFinding]:
    """Lint every ``.py`` file under *paths* (files or directories)."""
    findings: list[DetFinding] = []
    for target in paths:
        root = target if target.is_dir() else target.parent
        files = sorted(target.rglob("*.py")) if target.is_dir() else [target]
        for file in files:
            findings.extend(lint_file(file, root))
    return findings


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Lint Python sources for determinism hazards "
        "(unseeded RNGs, wall-clock reads in core paths, set-iteration "
        "ordering, unreclaimed shared memory)."
    )
    parser.add_argument("paths", nargs="+", type=Path, help="files or directories to lint")
    parser.add_argument("--json", action="store_true", help="machine-readable report")
    args = parser.parse_args(argv)
    for path in args.paths:
        if not path.exists():
            print(f"lint_determinism: no such path: {path}", file=sys.stderr)
            return 2
    findings = lint_paths(args.paths)
    if args.json:
        print(json.dumps([asdict(f) for f in findings], indent=2))
    else:
        for finding in findings:
            print(finding.render())
        print(
            f"# {len(findings)} determinism finding(s)",
            file=sys.stderr,
        )
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
