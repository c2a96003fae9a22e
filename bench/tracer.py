"""Spans and counters recorded around the public functions of matpolyeq.

The wrappers are installed from outside the package: every module attribute
that refers to a traced function is replaced for the duration of a
``with tracer.installed():`` block, so calls made through module globals
(``solver`` calling ``det_poly_univariate``, ``cli`` calling
``solve_univariate``) are caught as well.  Spans are kept in memory as
``(name, start, end, parent, op)`` tuples and written out by the harness
once the run is over.  A layer's busy time is its self time: the span's
duration minus the durations of its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from collections import Counter, defaultdict

# Functions that open a span: module, attribute, hook run on the result.
# A hook receives (counters, result, args) and adds counts.
SPANNED = (
    ("instances", "plant_instance", None),
    ("io", "load_document", None),
    ("io", "equation_from_document", None),
    ("io", "solution_from_document", None),
    ("io", "equation_to_document", None),
    ("io", "solution_to_document", None),
    ("io", "dump_document", lambda c, r, a: c.update({"io.doc_bytes": _size(a)})),
    ("cli", "main", lambda c, r, a: c.update({f"cli.exit_{r}": 1})),
    ("cli", "cmd_solve", None),
    ("cli", "cmd_verify", None),
    ("polymatrix", "det_poly_univariate", None),
    ("polymatrix", "poly_roots", lambda c, r, a: c.update({"polymatrix.roots_found": len(r)})),
    (
        "polymatrix",
        "null_vectors_at",
        lambda c, r, a: c.update({"polymatrix.nullvec_hits": 1 if r else 0}),
    ),
    (
        "polymatrix",
        "sample_variety",
        lambda c, r, a: c.update({"polymatrix.variety_points": len(r)}),
    ),
    ("solver", "solve_univariate", lambda c, r, a: c.update(_class_counts(r))),
    (
        "solver",
        "solve_multivariate",
        lambda c, r, a: c.update({"solver.families": len(r.families)}),
    ),
    ("solver", "family_from_points", None),
    ("solver", "verify_residual", None),
    ("linalg", "inverse", None),
)

# Functions too small and too frequent for a span of their own; only their
# calls are counted, and their time stays in the caller's self time.
COUNTED = (
    ("polymatrix", "evaluate", "polymatrix.evaluate_calls"),
    ("polymatrix", "fix_all_but", "polymatrix.slices"),
)


def _size(args) -> int:
    path = args[1] if len(args) > 1 else None
    return os.path.getsize(path) if path else 0


def _class_counts(result) -> dict:
    tried = len(result.families) + sum(
        d.label.startswith("class (") for d in result.diagnostics
    )
    return {"solver.families": len(result.families), "solver.classes_tried": tried}


class Tracer:
    """In-memory span recorder for one phase of a benchmark run."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.counters: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []

    def _span(self, name, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.counters[f"{name}!{type(exc).__name__}"] += 1
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.op)
            if hook is not None:
                hook(self.counters, result, args)
            return result

        return wrapper

    def _count(self, key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Route every reference to a traced function through a wrapper."""
        package = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "matpolyeq" or name.startswith("matpolyeq.")
        }
        replacements = []
        for modname, attr, hook in SPANNED:
            fn = getattr(package[f"matpolyeq.{modname}"], attr)
            replacements.append((fn, self._span(f"{modname}.{attr}", fn, hook)))
        for modname, attr, key in COUNTED:
            fn = getattr(package[f"matpolyeq.{modname}"], attr)
            replacements.append((fn, self._count(key, fn)))
        patched = []
        for fn, wrapper in replacements:
            for mod in package.values():
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        patched.append((mod, attr, fn))
        try:
            yield self
        finally:
            for mod, attr, fn in patched:
                setattr(mod, attr, fn)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        child = defaultdict(float)
        for span in self.spans:
            name, start, end, parent, _ = span
            if parent >= 0:
                child[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += (end - start) - child[index]
        return total

    def calls(self) -> Counter:
        return Counter(span[0] for span in self.spans)
