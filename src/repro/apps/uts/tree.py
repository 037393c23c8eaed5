"""UTS tree definition: implicit random trees over a splittable RNG.

A tree node is ``(state, depth)``, where ``state`` is raw splittable-RNG
state: the 20-byte SHA-1 digest, or a 64-bit int for ``algorithm="mix"``
(see :mod:`repro.sim.rng`).  A node's child count is a deterministic
function of one draw from its dedicated ``child(state, -1)`` stream, and
child *i*'s state is ``child(state, i)``.  Nodes hold no RNG object;
:func:`expander` looks the algorithm's primitives up once per tree.
Two standard shapes:

* **binomial** — the root has ``b0`` children; every other node has ``m``
  children with probability ``q`` and none otherwise.  With ``q·m ≈ 1``
  the process is critical and trees are deeply unbalanced — the shape the
  thesis benchmarks (4.1 M nodes).
* **geometric** — branching factor drawn geometrically with mean ``b0``,
  cut off at ``max_depth``.

The reference UTS uses SHA-1 for splitting; ``algorithm="mix"`` swaps in
splitmix64 for speed at identical shape statistics.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple, Union

from repro.sim.rng import get_algorithm

__all__ = ["TreeParams", "Node", "root_node", "expander", "expand",
           "count_tree", "paper_tree", "small_tree"]


@dataclass(frozen=True)
class TreeParams:
    """Shape parameters of one UTS tree."""

    kind: str = "binomial"
    b0: int = 2000          #: root branching factor
    q: float = 0.124875     #: binomial: P(node has children)
    m: int = 8              #: binomial: children when it has any
    max_depth: int = 10     #: geometric: depth cutoff
    seed: int = 19          #: RNG root seed
    algorithm: str = "mix"  #: "sha1" (reference) or "mix" (fast)

    def __post_init__(self) -> None:
        if self.kind not in ("binomial", "geometric"):
            raise ValueError(f"unknown tree kind {self.kind!r}")
        if not 0.0 <= self.q <= 1.0:
            raise ValueError(f"q must be in [0,1], got {self.q}")
        if self.b0 < 0 or self.m < 0:
            raise ValueError("b0 and m must be non-negative")


#: A tree node: (raw RNG state, depth).
Node = Tuple[Union[bytes, int], int]

#: ``u64 >> 11`` times this is a uniform float in [0, 1), as in
#: :meth:`~repro.sim.rng.SplittableRNG.random`.
_UNIT = 1.0 / (1 << 53)


def root_node(params: TreeParams) -> Node:
    return (get_algorithm(params.algorithm).root(params.seed), 0)


def _branching(params: TreeParams) -> Callable[[float, int], int]:
    """``(u, depth) -> child count`` for the tree's shape, ``u`` in [0, 1)."""
    if params.kind == "binomial":
        b0, q, m = params.b0, params.q, params.m
        return lambda u, depth: b0 if depth == 0 else (m if u < q else 0)
    # geometric: branching drawn so the mean is b0 at the root, decaying
    # with depth; standard UTS "fixed" geometric uses a depth cutoff.
    b0, max_depth = params.b0, params.max_depth

    def geometric(u: float, depth: int) -> int:
        if depth >= max_depth:
            return 0
        # geometric with success prob p = 1/(1+b0): mean b0
        p = 1.0 / (1.0 + b0)
        k = int(math.log(max(u, 1e-300)) / math.log(1.0 - p))
        return min(k, b0 * 4)
    return geometric


def expander(params: TreeParams) -> Callable[[Node], List[Node]]:
    """:func:`expand` for one tree, with its primitives looked up once."""
    alg = get_algorithm(params.algorithm)
    child, draw = alg.child, alg.next
    branching = _branching(params)

    def expand_node(node: Node) -> List[Node]:
        state, depth = node
        # Child-count draw uses a dedicated child stream so that expanding a
        # node never perturbs the states handed to its children.
        n = branching((draw(child(state, -1))[1] >> 11) * _UNIT, depth)
        depth += 1
        return [(child(state, i), depth) for i in range(n)]
    return expand_node


def expand(params: TreeParams, node: Node) -> List[Node]:
    """Children of ``node`` (deterministic)."""
    return expander(params)(node)


@functools.lru_cache(maxsize=16)
def count_tree(params: TreeParams, limit: Optional[int] = None) -> Tuple[int, int]:
    """Sequential traversal: returns ``(total_nodes, max_depth)``.

    ``limit`` aborts counting beyond that many nodes (guards against
    parameter choices with runaway supercritical growth).  The result is
    a pure function of the arguments, so it is memoized: each tree is
    walked once per process (an abort raises and is not cached).
    """
    expand_node = expander(params)
    stack = [root_node(params)]
    count = 0
    max_depth = 0
    while stack:
        node = stack.pop()
        count += 1
        max_depth = max(max_depth, node[1])
        if limit is not None and count > limit:
            raise RuntimeError(f"tree exceeds limit of {limit} nodes")
        stack.extend(expand_node(node))
    return count, max_depth


def paper_tree(algorithm: str = "mix", seed: int = 42) -> TreeParams:
    """A binomial tree in the thesis's size class (~4.1 million nodes).

    With the default fast hash and seed 42 the tree has exactly
    4,330,977 nodes (max depth 1388) — the thesis's binomial tree had
    "total 4.1 million nodes".  Counts depend on seed and hash.
    """
    return TreeParams(kind="binomial", b0=2000, q=0.124875, m=8,
                      seed=seed, algorithm=algorithm)


def small_tree(target: str = "medium", algorithm: str = "mix") -> TreeParams:
    """Scaled-down binomial trees for tests and quick benchmarks.

    ``target`` in {"tiny", "small", "medium", "large"} — roughly 2k, 20k,
    120k and 500k nodes with the default seeds.
    """
    presets = {
        "tiny": TreeParams(b0=40, q=0.120, m=8, seed=101, algorithm=algorithm),
        "small": TreeParams(b0=200, q=0.122, m=8, seed=7, algorithm=algorithm),
        "medium": TreeParams(b0=700, q=0.1243, m=8, seed=11, algorithm=algorithm),
        "large": TreeParams(b0=1500, q=0.12465, m=8, seed=3, algorithm=algorithm),
    }
    try:
        return presets[target]
    except KeyError:
        raise ValueError(f"unknown size target {target!r}") from None
