"""Tests for UTS: tree determinism, work conservation, policy shapes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.uts import (
    TreeParams,
    UtsConfig,
    count_tree,
    expand,
    run_uts,
    small_tree,
)
from repro.apps.uts.stealstack import StealStack
from repro.apps.uts.tree import root_node
from repro.sim.rng import SplittableRNG


class TestTree:
    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            TreeParams(kind="fractal")
        with pytest.raises(ValueError):
            TreeParams(q=1.5)
        with pytest.raises(ValueError):
            TreeParams(b0=-1)

    def test_root_has_b0_children(self):
        params = TreeParams(b0=17, q=0.0)
        children = expand(params, root_node(params))
        assert len(children) == 17
        assert all(depth == 1 for _rng, depth in children)

    def test_q_zero_tree_is_star(self):
        params = TreeParams(b0=10, q=0.0)
        assert count_tree(params) == (11, 1)

    def test_count_is_deterministic(self):
        params = small_tree("tiny")
        assert count_tree(params) == count_tree(params)

    def test_expansion_is_repeatable(self):
        params = small_tree("tiny")
        node = root_node(params)
        a = expand(params, node)
        b = expand(params, node)
        assert len(a) == len(b)
        assert a == b

    def test_sha1_and_mix_trees_both_work(self):
        for algo in ("sha1", "mix"):
            params = TreeParams(b0=30, q=0.12, m=8, seed=5, algorithm=algo)
            n, d = count_tree(params, limit=100_000)
            assert n > 30

    def test_geometric_tree_bounded_by_depth(self):
        params = TreeParams(kind="geometric", b0=3, max_depth=4, seed=2)
        n, d = count_tree(params, limit=500_000)
        assert d <= 4

    @pytest.mark.parametrize("params, expected", [
        (TreeParams(b0=30, q=0.12, m=8, seed=5, algorithm="sha1"), (1759, 33)),
        (small_tree("small", "sha1"), (4121, 28)),
        (small_tree("small"), (5857, 42)),
        (small_tree("medium"), (75197, 299)),
    ])
    def test_pinned_counts(self, params, expected):
        """Tree shapes are part of the reproduction: counts never move."""
        assert count_tree(params) == expected

    @pytest.mark.parametrize("algorithm", ["mix", "sha1"])
    def test_states_match_rng_oracle(self, algorithm):
        """Raw-state nodes carry exactly the states SplittableRNG derives."""
        params = small_tree("small", algorithm)

        def oracle_expand(rng, depth):
            u = rng.child(-1).random()
            n = params.b0 if depth == 0 else (params.m if u < params.q else 0)
            return [(rng.child(i), depth + 1) for i in range(n)]

        root = SplittableRNG(seed=params.seed, algorithm=algorithm)
        stack = [(root_node(params), (root, 0))]
        visited = 0
        while stack:
            node, (rng, depth) = stack.pop()
            assert node == (rng._state, depth)
            visited += 1
            children = expand(params, node)
            oracle = oracle_expand(rng, depth)
            assert len(children) == len(oracle)
            stack.extend(zip(children, oracle))
        assert visited == count_tree(params)[0]

    def test_limit_guards_runaway(self):
        params = TreeParams(b0=1000, q=0.2, m=8, seed=1)  # supercritical
        with pytest.raises(RuntimeError, match="limit"):
            count_tree(params, limit=10_000)

    def test_unknown_size_target(self):
        with pytest.raises(ValueError):
            small_tree("gigantic")

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_count_independent_of_traversal_order(self, seed):
        """BFS and DFS agree on the node count (tree is well-defined)."""
        params = TreeParams(b0=20, q=0.11, m=8, seed=seed)
        import collections

        dfs, _ = count_tree(params, limit=200_000)
        queue = collections.deque([root_node(params)])
        bfs = 0
        while queue:
            node = queue.popleft()
            bfs += 1
            queue.extend(expand(params, node))
        assert bfs == dfs


class TestCountMemo:
    def test_cached_count_still_enforces_limit(self):
        params = small_tree("tiny")
        count_tree(params)
        with pytest.raises(RuntimeError, match="limit"):
            count_tree(params, limit=10)

    def test_cache_is_bounded(self):
        assert count_tree.cache_info().maxsize is not None

    def test_cached_equals_fresh_traversal(self):
        params = small_tree("small", "sha1")
        assert count_tree(params) == count_tree.__wrapped__(params)


class TestStealStack:
    def test_push_pop_lifo(self):
        ss = StealStack(0, chunk_size=2)
        ss.push([1, 2, 3])
        assert ss.pop_chunk(2) == [3, 2]
        assert len(ss) == 1

    def test_available_leaves_owner_chunk(self):
        ss = StealStack(0, chunk_size=4)
        ss.push(list(range(10)))
        assert ss.available_to_steal == 6

    def test_steal_takes_from_tail(self):
        ss = StealStack(0, chunk_size=2)
        ss.push(list(range(10)))
        stolen = ss.steal_from_tail(3)
        assert stolen == [0, 1, 2]
        assert ss.times_stolen_from == 1
        assert ss.nodes_stolen_away == 3

    def test_steal_clamped_to_available(self):
        ss = StealStack(0, chunk_size=4)
        ss.push(list(range(5)))
        assert len(ss.steal_from_tail(100)) == 1

    def test_steal_from_empty(self):
        ss = StealStack(0, chunk_size=2)
        assert ss.steal_from_tail(5) == []
        assert ss.times_stolen_from == 0

    def test_pop_zero(self):
        ss = StealStack(0, chunk_size=2)
        ss.push([1])
        assert ss.pop_chunk(0) == []


class TestDriver:
    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            UtsConfig(policy="telepathy")

    def test_bad_chunk_rejected(self):
        with pytest.raises(ValueError):
            UtsConfig(steal_chunk=0)

    @pytest.mark.parametrize("policy", ["baseline", "local", "local+diffusion"])
    def test_work_conservation(self, policy):
        """Every node processed exactly once (run_uts verifies internally)."""
        r = run_uts(policy, tree=small_tree("tiny"), threads=4, threads_per_node=2)
        assert r["tree_nodes"] == count_tree(small_tree("tiny"))[0]

    def test_geometric_tree_run(self):
        """The driver is tree-shape agnostic: geometric trees work too."""
        tree = TreeParams(kind="geometric", b0=6, max_depth=5, seed=3)
        r = run_uts("local", tree=tree, threads=4, threads_per_node=2)
        assert r["tree_nodes"] == count_tree(tree, limit=500_000)[0]

    def test_sha1_reference_hash_run(self):
        """The reference SHA-1 splittable hash drives the same machinery."""
        tree = TreeParams(b0=30, q=0.11, m=8, seed=5, algorithm="sha1")
        r = run_uts("baseline", tree=tree, threads=4, threads_per_node=2)
        assert r["tree_nodes"] == count_tree(tree, limit=100_000)[0]

    def test_single_thread_run(self):
        r = run_uts("baseline", tree=small_tree("tiny"), threads=1,
                    threads_per_node=1)
        assert r["steals"] == 0
        assert r["tree_nodes"] > 0

    def test_deterministic_across_runs(self):
        a = run_uts("local", tree=small_tree("tiny"), threads=4, threads_per_node=2)
        b = run_uts("local", tree=small_tree("tiny"), threads=4, threads_per_node=2)
        assert a["elapsed_s"] == b["elapsed_s"]
        assert a["steals"] == b["steals"]

    def test_verification_catches_lost_work(self, monkeypatch):
        """An expected count one off from the processed count must raise."""
        n, depth = count_tree(small_tree("tiny"))
        monkeypatch.setattr("repro.apps.uts.driver.count_tree",
                            lambda params: (n + 1, depth))
        with pytest.raises(AssertionError, match="lost/duplicated work"):
            run_uts("baseline", tree=small_tree("tiny"), threads=4,
                    threads_per_node=2)

    def test_verification_catches_duplicated_work_under_faults(self, monkeypatch):
        """Under a crash, processed + lost above the tree total must raise."""
        n, depth = count_tree(small_tree("tiny"))
        monkeypatch.setattr("repro.apps.uts.driver.count_tree",
                            lambda params: (n - 1, depth))
        with pytest.raises(AssertionError, match="duplicated work under faults"):
            run_uts("baseline", tree=small_tree("tiny"), threads=4,
                    threads_per_node=2, faults="crash:node=1,at=3e-5")


class TestPolicyShapes:
    """The paper's qualitative findings at test scale (small tree)."""

    @pytest.fixture(scope="class")
    def results(self):
        tree = small_tree("small")
        out = {}
        for policy in ("baseline", "local", "local+diffusion"):
            out[policy] = run_uts(
                policy, tree=tree, threads=16, threads_per_node=4,
                conduit="ib-ddr",
            )
        return out

    def test_optimized_beats_baseline(self, results):
        assert (
            results["local+diffusion"]["mnodes_per_s"]
            > results["baseline"]["mnodes_per_s"]
        )

    def test_local_policy_increases_local_steal_share(self, results):
        assert (
            results["local"]["pct_local_steals"]
            > results["baseline"]["pct_local_steals"]
        )

    def test_diffusion_moves_more_work_per_steal(self, results):
        """Stealing half of a stocked victim moves bigger chunks."""
        assert (
            results["local+diffusion"]["avg_steal_size"]
            > results["local"]["avg_steal_size"]
        )

    def test_local_share_grows_with_local_workers(self):
        tree = small_tree("small")
        shares = []
        for tpn in (2, 4, 8):
            r = run_uts("local+diffusion", tree=tree, threads=16,
                        threads_per_node=tpn, conduit="ib-ddr")
            shares.append(r["pct_local_steals"])
        assert shares[0] < shares[-1]

    def test_ethernet_slower_than_infiniband(self):
        tree = small_tree("small")
        ib = run_uts("baseline", tree=tree, threads=8, threads_per_node=2,
                     conduit="ib-ddr")
        eth = run_uts("baseline", tree=tree, threads=8, threads_per_node=2,
                      conduit="gige", steal_chunk=20)
        assert eth["mnodes_per_s"] < ib["mnodes_per_s"]
