"""Unit tests for GASNet teams."""

import pytest

from repro.errors import GasnetError
from repro.gasnet import Team
from repro.gasnet.team import binomial_tree
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestTeamBasics:
    def test_membership_and_ranks(self, sim):
        team = Team(sim, [4, 7, 9], name="t")
        assert len(team) == 3
        assert 7 in team and 5 not in team
        assert team.rank(7) == 1
        assert team.thread_at(2) == 9

    def test_empty_rejected(self, sim):
        with pytest.raises(GasnetError):
            Team(sim, [], name="t")

    def test_duplicates_rejected(self, sim):
        with pytest.raises(GasnetError, match="duplicate"):
            Team(sim, [1, 1], name="t")

    def test_rank_of_non_member_rejected(self, sim):
        team = Team(sim, [0, 1], name="t")
        with pytest.raises(GasnetError, match="not in team"):
            team.rank(5)

    def test_thread_at_out_of_range(self, sim):
        team = Team(sim, [0, 1], name="t")
        with pytest.raises(GasnetError, match="out of range"):
            team.thread_at(2)


class TestTeamBarrier:
    def test_barrier_releases_together(self, sim):
        team = Team(sim, [0, 1, 2], name="t")
        times = []

        def member(sim, team, tid, arrive):
            yield sim.delay(arrive)
            yield from team.barrier(tid)
            times.append(sim.now)

        for tid, arr in zip((0, 1, 2), (1.0, 3.0, 2.0)):
            sim.spawn(member(sim, team, tid, arr))
        sim.run()
        assert times == [3.0, 3.0, 3.0]

    def test_non_member_barrier_rejected(self, sim):
        team = Team(sim, [0], name="t")

        def outsider(team):
            yield from team.barrier(9)

        p = sim.spawn(outsider(team))
        sim.run()
        assert isinstance(p.exc, GasnetError)


class TestBinomialTree:
    def test_eight_ranks(self):
        assert binomial_tree(0, 8) == (None, [1, 2, 4])
        assert binomial_tree(4, 8) == (0, [5, 6])
        assert binomial_tree(6, 8) == (4, [7])
        assert binomial_tree(7, 8) == (6, [])

    def test_children_stay_below_size(self):
        assert binomial_tree(0, 5) == (None, [1, 2, 4])
        assert binomial_tree(4, 5) == (0, [])
        assert binomial_tree(2, 3) == (0, [])

    @pytest.mark.parametrize("size", range(1, 40))
    def test_parent_and_children_agree(self, size):
        # every non-root rank is the child of exactly its parent, so the
        # tree spans all ranks from the root
        parent_of = {}
        for rel in range(size):
            for child in binomial_tree(rel, size)[1]:
                assert child not in parent_of
                parent_of[child] = rel
        assert parent_of == {
            rel: binomial_tree(rel, size)[0] for rel in range(1, size)
        }
