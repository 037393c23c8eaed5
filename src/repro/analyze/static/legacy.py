"""PGAS001-004: the original AST rules on the static framework (one walker).

* PGAS001 — simulated code must not read wall clocks (``time.time()``,
  ``datetime.now()``...); use ``upc.wtime()`` / ``sim.now``.  The
  harness and the host sampler time real execution and are exempt.
* PGAS002 — a bare call to a costed generator (``arr.read_elem(upc, i)``)
  drops the generator: the access silently never happens.
* PGAS003 — metric names passed to a ``*stats``/``*profiler`` emitter
  must be :mod:`repro.obs.names` constants, not string literals.
* PGAS004 — ``SharedArray._data`` is private to its accessors; touching
  it elsewhere bypasses cost charging and the sanitizer.

Emits :class:`~repro.analyze.findings.StaticFinding` like every other
pass, so the noqa mechanism, report and baseline are shared.
"""

from __future__ import annotations

import ast
from typing import List

from repro.analyze.findings import StaticFinding
from repro.analyze.static.loader import ModuleInfo

__all__ = ["run"]

#: module-level callables that read the host's wall clock
_WALLCLOCK_TIME = {"time", "monotonic", "perf_counter", "process_time", "time_ns",
                   "monotonic_ns", "perf_counter_ns"}
_WALLCLOCK_DATETIME = {"now", "utcnow", "today"}

#: methods returning simulated generators whose bare call is a no-op
_COSTED_GENERATORS = {
    "read_elem", "write_elem", "get_block", "put_block",
    "barrier", "barrier_notify", "barrier_wait",
    "compute", "compute_flops", "local_stream", "stream_from",
    "charge_shared_accesses", "memput", "memget", "am_roundtrip",
}

#: StatsCollector emitters whose first argument is a metric name
_STATS_EMITTERS = {"count", "add", "record"}

#: path suffixes (posix) where the wall clock is legitimate: the harness
#: measures wall time by design, and the host sampler's whole job is to
#: read ``process_time`` around simulated code.
_WALLCLOCK_ALLOWED = ("repro/harness/", "repro/obs/profile/host.py")

#: path suffixes allowed to touch SharedArray._data
_DATA_ALLOWED = ("repro/upc/shared.py",)


def _is_stats_receiver(expr: ast.expr) -> bool:
    """``stats.count(...)``, ``self.stats.add(...)``, ``profiler.record(...)``.

    Profiler receivers (``repro.obs.profile``) emit under the same
    registered-name discipline as StatsCollector, so a literal metric
    name through either is the same lint error.
    """
    if isinstance(expr, ast.Name):
        return (expr.id in ("stats", "profiler")
                or expr.id.endswith(("_stats", "_profiler")))
    if isinstance(expr, ast.Attribute):
        return (expr.attr in ("stats", "profiler")
                or expr.attr.endswith(("_stats", "_profiler")))
    return False


def run(module: ModuleInfo) -> List[StaticFinding]:
    findings: List[StaticFinding] = []
    posix = module.path
    allow_wallclock = any(suffix in posix for suffix in _WALLCLOCK_ALLOWED)
    allow_data = any(posix.endswith(suffix) for suffix in _DATA_ALLOWED)

    def add(node: ast.AST, rule: str, message: str) -> None:
        findings.append(StaticFinding(
            path=module.path, line=node.lineno, col=node.col_offset,
            rule=rule, symbol=module.function_at(node.lineno),
            message=message,
        ))

    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call):
            func = node.func
            # PGAS001 ----------------------------------------------------
            if (not allow_wallclock and isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)):
                mod, attr = func.value.id, func.attr
                if (mod == "time" and attr in _WALLCLOCK_TIME) or (
                    mod in ("datetime", "date") and attr in _WALLCLOCK_DATETIME
                ):
                    add(node, "PGAS001",
                        f"wall-clock call {mod}.{attr}() in simulated code "
                        "(use upc.wtime() / sim.now)")
            # PGAS003 ----------------------------------------------------
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _STATS_EMITTERS
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
                and _is_stats_receiver(func.value)
            ):
                add(node, "PGAS003",
                    f"metric name {node.args[0].value!r} is a string literal; "
                    "use a constant from repro.obs.names")
        elif isinstance(node, ast.Expr):
            # PGAS002 ----------------------------------------------------
            call = node.value
            if (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr in _COSTED_GENERATORS
            ):
                add(node, "PGAS002",
                    f"bare call to costed generator .{call.func.attr}(...): "
                    "the generator is dropped and the operation never "
                    "happens; drive it with 'yield from'")
        elif isinstance(node, ast.Attribute):
            # PGAS004 ----------------------------------------------------
            if node.attr == "_data" and not allow_data:
                add(node, "PGAS004",
                    "._data accessed outside SharedArray's accessors "
                    "(bypasses cost charging and the sanitizer)")
    return findings
