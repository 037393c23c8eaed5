"""The one layer map: which layer of the repro package a frame belongs to.

Both profiler modes charge work to these layers: the host sampler
(:mod:`~repro.obs.profile.host`) its CPU samples, the cost profiler
(:mod:`~repro.obs.profile.cost`) its scheduled events and context
switches.  A layer is named after the module that holds the code:
``sim.engine`` is ``repro/sim/engine.py``, ``gasnet`` is the whole
``repro/gasnet`` package.  Two host layers sit beside them:
``host.import`` (the sample landed while a module was being imported)
and ``host.other`` (interpreter start-up and shut-down, and any stack
with no repro frame on it).

The rules are pure functions of file names, so a test can check that
every module under ``src/repro`` lands in a named layer.  The e2e
benchmark (``benchmarks/e2e/layers.py``) names its per-layer metrics
with the same rules; ``tests/obs/test_layer_drift.py`` keeps the two
copies equal.
"""

from __future__ import annotations

import functools
import os
from typing import Iterable, Optional

HOST_IMPORT = "host.import"
HOST_OTHER = "host.other"

#: The directory of the installed ``repro`` package.
PACKAGE_DIR = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

#: Ordered (path prefix under ``repro/``, layer) rules; the first match
#: wins, so a module comes before the package that contains it.
_RULES = (
    ("sim/engine.py", "sim.engine"),
    ("sim/resources.py", "sim.resources"),
    ("sim/rng.py", "sim.rng"),
    ("sim/sync.py", "sim.sync"),
    ("sim/trace.py", "sim.trace"),
    # the package __init__ re-exports the engine's public names
    ("sim/", "sim.engine"),
    ("network/", "network"),
    ("gasnet/", "gasnet"),
    ("upc/", "upc"),
    ("mpi/", "mpi"),
    ("machine/", "machine"),
    ("faults/", "faults"),
    ("subthreads/", "subthreads"),
    ("apps/uts/", "apps.uts"),
    ("apps/ft/", "apps.ft"),
    ("apps/", "apps.other"),
    ("harness/", "harness"),
    ("obs/", "obs"),
    # the sanitizer and static analyzer: instrumentation that, like
    # repro.obs, runs only when a flag arms it
    ("analyze/", "obs"),
    # repro/__init__.py, errors.py, _version.py: package glue
    ("", "harness"),
)

#: Every layer a sample can be charged to, in report order.
LAYERS = tuple(dict.fromkeys(
    [layer for _, layer in _RULES] + [HOST_IMPORT, HOST_OTHER]))


def layer_of(filename: str, package_dir: str) -> Optional[str]:
    """The layer of a frame's file, or None for code outside the package.

    ``package_dir`` is the directory of the ``repro`` package.  Frames of
    the interpreter's import machinery map to :data:`HOST_IMPORT`; stdlib
    and third-party frames (numpy) are transparent and return None, so
    their time is charged to the repro frame that called them.
    """
    if filename.startswith("<frozen importlib"):
        return HOST_IMPORT
    prefix = package_dir.rstrip(os.sep) + os.sep
    if not filename.startswith(prefix):
        return None
    relative = filename[len(prefix):].replace(os.sep, "/")
    for rule, layer in _RULES:
        if relative.startswith(rule):
            return layer
    return None


def owner(layers: Iterable[Optional[str]]) -> str:
    """The layer that owns one sample.

    ``layers`` holds :func:`layer_of` for each frame on the stack,
    innermost first.  An import frame anywhere on the stack wins;
    otherwise the innermost repro frame owns the sample.
    """
    found = None
    for layer in layers:
        if layer == HOST_IMPORT:
            return HOST_IMPORT
        if found is None:
            found = layer
    return found or HOST_OTHER


@functools.lru_cache(maxsize=None)
def file_layer(filename: str) -> Optional[str]:
    """:func:`layer_of` for this package, cached by a frame's file name.

    A frame's layer depends only on its file, so ``co_filename`` is the
    key.  A code object would be a wrong key: code objects compare equal
    across files (``compile("pass", a) == compile("pass", b)``), so two
    files could share one entry.  The cache holds one entry per file.
    """
    return layer_of(filename, PACKAGE_DIR)
