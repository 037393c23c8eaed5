"""Curated profile-site registry: frames → stable subsystem identifiers.

Both profilers (:mod:`repro.obs.profile.host` and
:mod:`repro.obs.profile.cost`) attribute work to **sites** — short,
stable identifiers for the engine subsystems a performance change
targets — rather than to raw code frames.  Raw frames churn with
every refactor and differ between Python versions; the curated registry
is what makes a profile from revision N diffable against revision N+10.

Resolution is by code object, keyed on ``co_filename`` (version-portable:
``co_qualname`` does not exist on 3.10) plus ``co_name`` for the engine's
own functions, where one module spans several subsystems (heap push,
coroutine switch, combinators).  Three outcomes:

* a site id (``"engine.switch"``, ``"gasnet"``, ``"app.uts"``, ...);
* ``None`` — the frame is *transparent*: import machinery, stdlib and
  third-party code do not open a site of their own, their time accrues
  to the innermost enclosing site (so a numpy helper inside FT stays
  FT time and two runs with different ``.pyc`` states rank the same);
* :data:`SITE_OTHER` for host frames outside the repo when nothing
  encloses them.

Every site this registry can produce is enumerated in
:data:`KNOWN_SITES`, which the profile schema validator checks against.
"""

from __future__ import annotations

from typing import Dict, Optional

__all__ = [
    "KNOWN_SITES",
    "SITE_OTHER",
    "site_for_code",
    "site_for_callable",
]

#: Host frames that belong to no repo layer and have no enclosing site.
SITE_OTHER = "host.other"

#: repro.sim.engine spans several subsystems; split it by function name.
_ENGINE_SITES = {
    "run": "engine.run",
    "step": "engine.run",
    "schedule_at": "engine.heap.push",
    "schedule_after": "engine.heap.push",
    "_step": "engine.switch",
    "_wait_for": "engine.wait",
    "_resume": "engine.wait",
    "_complete": "engine.wait",
    "add_callback": "engine.wait",
    "_fire": "engine.wait",
    "_child_done": "engine.combinator",
}
_ENGINE_DEFAULT = "engine.other"

#: Ordered (path fragment, site) rules; first match wins, so the more
#: specific fragments come before their containing package.
_LAYER_RULES = (
    ("repro/sim/resources", "sim.cost"),
    ("repro/sim/trace", "sim.stats"),
    ("repro/sim/", "sim.other"),
    ("repro/obs/tracer", "obs.tracer"),
    ("repro/obs/", "obs.other"),
    ("repro/analyze/", "analyze.sanitizer"),
    ("repro/network/", "fabric"),
    ("repro/gasnet/", "gasnet"),
    ("repro/upc/", "upc"),
    ("repro/mpi/", "mpi"),
    ("repro/subthreads/", "subthreads"),
    ("repro/machine/", "machine"),
    ("repro/faults/", "faults"),
    ("repro/apps/uts", "app.uts"),
    ("repro/apps/ft", "app.ft"),
    ("repro/apps/stream", "app.stream"),
    ("repro/apps/microbench", "app.microbench"),
    ("repro/apps/randomaccess", "app.gups"),
    ("repro/apps/", "app.other"),
    ("repro/harness/", "harness"),
)

#: Every site id resolution can produce (validators check against this).
KNOWN_SITES = tuple(sorted(
    set(_ENGINE_SITES.values())
    | {site for _, site in _LAYER_RULES}
    | {_ENGINE_DEFAULT, SITE_OTHER}
))

#: (co_filename, co_name) -> site id (or None for transparent frames).
#: Resolution depends on exactly those two fields, so they are the cache
#: key — code objects themselves compare equal across *different*
#: filenames (``compile("pass", a) == compile("pass", b)``), which would
#: let one exec'd snippet poison the cache for another.
_CACHE: Dict[object, Optional[str]] = {}


def _resolve(code) -> Optional[str]:
    filename = code.co_filename
    if filename.startswith("<"):
        return None  # frozen importlib / exec'd strings: transparent
    path = filename.replace("\\", "/")
    if "repro/sim/engine" in path:
        return _ENGINE_SITES.get(code.co_name, _ENGINE_DEFAULT)
    for fragment, site in _LAYER_RULES:
        if fragment in path:
            return site
    return None  # stdlib / third-party: transparent


def site_for_code(code) -> Optional[str]:
    """The site of one code object, or None for a transparent frame."""
    key = (code.co_filename, code.co_name)
    try:
        return _CACHE[key]
    except KeyError:
        site = _resolve(code)
        _CACHE[key] = site
        return site


def site_for_callable(fn) -> str:
    """The site of a callback (bound method or function); never None.

    Engine heap entries hold bound methods (``Process._step``,
    ``Delay._fire``); anything without Python code (C callables) falls
    back to :data:`SITE_OTHER`.
    """
    func = getattr(fn, "__func__", fn)
    code = getattr(func, "__code__", None)
    if code is None:
        return SITE_OTHER
    return site_for_code(code) or SITE_OTHER
