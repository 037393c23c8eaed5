"""Content-addressed on-disk cache for simulation-point results.

Every executed :class:`~repro.harness.spec.RunSpec` is deterministic
(the simulation is a pure function of the spec), so its output can be
keyed by the spec's content fingerprint salted with the package version
and reused forever: re-running a sweep skips already-computed points.
:class:`~repro.harness.campaign.Campaign` stores an experiment's outputs
only after the whole experiment has run, so an interrupted sweep keeps
its finished experiments but no point of the one it was running;
per-point resume is the durable journal's (``--durable``/``--resume``).

Entries are JSON files under ``<root>/<key[:2]>/<key>.json`` written
atomically (temp file + rename), so a killed run never leaves a
half-written entry.  Outputs must round-trip JSON exactly — the same
invariant the parallel executor's worker transport relies on — and
:meth:`ResultCache.put` enforces it rather than caching a lossy copy.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional

from repro._version import __version__
from repro.harness.spec import RunSpec

__all__ = ["ResultCache", "DEFAULT_CACHE_DIR"]

#: Default CLI cache location, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro-cache"

_MISS = object()


class ResultCache:
    """Spec-fingerprint → output-dict store on the local filesystem."""

    def __init__(self, root, version: str = __version__):
        self.root = Path(root)
        self.version = version

    def key(self, spec: RunSpec) -> str:
        """Cache key: fingerprint of the spec salted with the version.

        A version bump invalidates every entry — simulator changes move
        results, and a stale hit would silently freeze the old model.
        """
        payload = f"{spec.canonical_json()}\n{self.version}"
        return hashlib.sha256(payload.encode()).hexdigest()

    def path(self, spec: RunSpec) -> Path:
        key = self.key(spec)
        return self.root / key[:2] / f"{key}.json"

    def get(self, spec: RunSpec) -> Optional[Dict[str, Any]]:
        """The cached output for ``spec``, or None on a miss.

        Unreadable or mismatched entries count as misses (and will be
        overwritten by the next :meth:`put`), so a corrupted cache heals
        instead of wedging the campaign.
        """
        try:
            with open(self.path(spec)) as fh:
                entry = json.load(fh)
        except (OSError, ValueError):
            return None
        if entry.get("version") != self.version:
            return None
        if entry.get("spec") != spec.canonical_json():
            return None
        output = entry.get("output", _MISS)
        return None if output is _MISS else output

    def put(self, spec: RunSpec, output: Dict[str, Any]) -> None:
        """Store ``output`` for ``spec`` atomically, safe under racers.

        Raises TypeError when the output does not survive a JSON round
        trip — caching a lossy copy would make cached and fresh reports
        diverge, which is strictly worse than not caching.

        Concurrent multi-process writers (parallel and durable
        executors, several campaigns sharing one cache dir) are safe by
        construction: each writer stages into its own exclusive temp
        file (``mkstemp`` with a pid-tagged prefix, so a crashed
        writer's litter is attributable) and publishes with an atomic
        ``os.replace`` — last write wins whole, readers never observe a
        torn entry, and every racer writes identical bytes anyway
        because outputs are pure functions of the spec.
        """
        encoded = json.dumps(output)
        if json.loads(encoded) != output:
            raise TypeError(
                f"output for {spec.app} spec {self.key(spec)[:12]} is not "
                "JSON round-trip clean; fix the app adapter to return "
                "JSON-exact primitives"
            )
        target = self.path(spec)
        target.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "version": self.version,
            "spec": spec.canonical_json(),
            "output": output,
        }
        fd, tmp = tempfile.mkstemp(dir=str(target.parent),
                                   prefix=f".put-{os.getpid()}-",
                                   suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(entry, fh, sort_keys=True)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, target)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
