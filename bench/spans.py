"""Spans and exact work counts for the traced benchmark pass.

The traced pass replaces, for its own interpreter only, the module
attributes through which one layer of sympgrass calls the next (for
example ``sympgrass.codes.rref``, which ``build_code`` calls), plus the
entry points the benchmark itself calls.  Each wrapped call records a span
with its parent span, so layer times nest the way the calls do.  Nothing in
``src/`` changes, and the untraced pass installs no wrapper at all.

Span durations are summed per metric key (``<span name>_s`` plus any extra
keys the span carries); counts are exact work done, taken from the
arguments or results of the wrapped calls.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

# Sweep table rows are capped at this many combinations; mirrors the rule in
# sympgrass.codes so that codes.table_bytes can be computed, not measured.
# The rule and the operation count are restated here rather than imported
# from private helpers, so that a refactor of the sweep engine that keeps its
# public functions does not break the benchmark that measures it.
SWEEP_TABLE_ROWS = 8192


class NullTracer:
    """Stand-in used by untraced passes: records nothing."""

    enabled = False
    phase = "setup"

    def span(self, name, keys=()):
        return nullcontext()

    def count(self, key, n):
        pass


class Tracer:
    """In-memory span recorder with exact counters."""

    enabled = True

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.peaks: dict[str, int] = defaultdict(int)
        self.phase = "setup"
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, keys=()):
        rec = {
            "name": name,
            "keys": [f"{name}_s", *keys],
            "parent": self._stack[-1] if self._stack else None,
            "phase": self.phase,
            "start": time.perf_counter(),
        }
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def current(self) -> str | None:
        return self.spans[self._stack[-1]]["name"] if self._stack else None

    def count(self, key: str, n: int) -> None:
        self.counts[key] += int(n)

    def wrap(self, module, attr: str, name: str, keys=None, counts=None) -> None:
        """Record a span around every call made through ``module.attr``.

        keys(*args, **kw) gives extra metric keys for the span; counts(result,
        *args, **kw) gives exact counts to add once the call returns.
        """
        orig = getattr(module, attr)

        def wrapper(*args, **kwargs):
            with self.span(name, keys(*args, **kwargs) if keys else ()):
                result = orig(*args, **kwargs)
            if counts:
                for key, n in counts(result, *args, **kwargs).items():
                    self.count(key, n)
            return result

        setattr(module, attr, wrapper)

    def metrics(self, jobs_wall: float) -> dict[str, float]:
        """Per-layer totals, rates and the job-phase coverage of top-level spans."""
        totals: dict[str, float] = defaultdict(float)
        top = 0.0
        for s in self.spans:
            d = s["end"] - s["start"]
            for key in s["keys"]:
                totals[key] += d
            if s["parent"] is None and s["phase"] == "jobs":
                top += d
        out: dict[str, float] = {**totals, **self.counts, **self.peaks}

        def rate(count_key, time_key):
            t = totals.get(time_key, 0.0)
            return self.counts.get(count_key, 0) / t if t > 0 else 0.0

        out["grassmann.enum_points_per_s"] = rate("grassmann.enum_points", "grassmann.enum_s")
        out["grassmann.plucker_minors_per_s"] = rate(
            "grassmann.plucker_minors", "grassmann.plucker_s"
        )
        out["linalg.rref_cells_per_s"] = rate("linalg.rref_cells", "linalg.rref_s")
        out["forms.lines_per_s"] = rate("forms.lines_scanned", "forms.eta_s")
        for arith in ("prime", "ext", "packed"):
            out[f"codes.ops_per_s.{arith}"] = rate(
                f"codes.symbol_ops.{arith}", f"codes.sweep_{arith}_s"
            )
        out["trace.coverage"] = top / jobs_wall if jobs_wall > 0 else 0.0
        return out

    def dump(self) -> list[dict]:
        return [dict(s) for s in self.spans]


def sweep_arith(field) -> str:
    """Which arithmetic path the sweep engine takes for this field."""
    if field.q == 2:
        return "packed"
    return "ext" if field.e > 1 else "prime"


def sweep_ops(q: int, big_k: int, big_n: int, method: str) -> int:
    """Symbol updates of an exhaustive sweep: codewords visited times length."""
    visited = q**big_k if method == "codeword" else (q**big_k - 1) // (q - 1)
    return visited * big_n


def sweep_table_bytes(q: int, big_k: int, big_n: int, method: str) -> int:
    """Bytes of the sweep's combination table (computed from the table rule)."""
    rows = big_k if method == "codeword" else max(big_k - 1, 1)
    t = 1
    while t + 1 <= rows and q ** (t + 1) <= SWEEP_TABLE_ROWS:
        t += 1
    size = q**t * big_n
    if q == 2:
        size += q**t * ((big_n + 63) // 64) * 8
    return size


def install(tr: Tracer) -> None:
    """Wrap the layer boundaries used by the four workloads."""
    from sympgrass import cli, codes, forms, gf, grassmann

    def enum_keys(n, k, field):
        return ("grassmann.enum_ext_s",) if field.e > 1 else ()

    def sweep_keys(code, method="codeword", **_):
        return (f"codes.sweep_{sweep_arith(code.field)}_s", f"codes.sweep_{method}_s")

    def sweep_counts(_result, code, method="codeword", **_):
        q = code.field.q
        ops = sweep_ops(q, code.K, code.N, method)
        key = "codes.table_bytes"
        tr.peaks[key] = max(tr.peaks[key], sweep_table_bytes(q, code.K, code.N, method))
        return {"codes.symbol_ops": ops, f"codes.symbol_ops.{sweep_arith(code.field)}": ops}

    tr.wrap(codes, "isotropic_stack", "grassmann.enum", keys=enum_keys)
    tr.wrap(cli, "count_isotropic", "grassmann.enum", keys=enum_keys)
    tr.wrap(codes, "plucker_batch", "grassmann.plucker",
            counts=lambda out, f, mats: {"grassmann.plucker_minors": out.size})
    tr.wrap(codes, "rref", "linalg.rref",
            counts=lambda out, f, m: {"linalg.rref_cells": m.size})
    for mod in (codes, cli):
        tr.wrap(mod, "build_code", "codes.build")
        tr.wrap(mod, "weight_enumerator", "codes.sweep", keys=sweep_keys, counts=sweep_counts)
    for mod in (forms, cli):
        tr.wrap(mod, "count_n1", "forms.n1")
        tr.wrap(mod, "count_common_isotropic_lines", "forms.eta")
    for mod in (gf, cli):
        tr.wrap(mod, "GF", "gf.tables")

    # Rows yielded by the isotropic enumeration, credited to the span that
    # consumes them: points for an enumeration, lines scanned for eta.
    orig_iter = grassmann.iter_isotropic_batches
    row_keys = {"grassmann.enum": "grassmann.enum_points", "forms.eta": "forms.lines_scanned"}

    def counted(*args, **kwargs):
        key = row_keys.get(tr.current())
        for batch in orig_iter(*args, **kwargs):
            if key:
                tr.count(key, batch.shape[0])
            yield batch

    grassmann.iter_isotropic_batches = counted
