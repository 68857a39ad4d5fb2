"""Exact work of the incremental Merkle update, and its off switch.

``MerkleTree.update_path`` re-derives only the buckets the tree recorded
as written, a whole bucket (``z`` slots) at a time, and counts them in
``slots_rehashed``.  Per path operation that is exactly:

* dummy read: 0 (nothing on the path moves);
* demand read: ``z`` times the buckets holding a copy of the requested
  block (the slots the read clears);
* eviction read and eviction write: ``z * (L + 1)`` (the whole path).

With integrity off the controller keeps no write record at all.
"""

from random import Random

from repro.core.config import ShadowConfig
from repro.core.controller import ShadowOramController
from repro.oram.config import OramConfig
from repro.oram.integrity import MerkleTree, VerifiedOram
from repro.oram.tiny import TinyOramController


def _count_per_update(merkle) -> list[int]:
    """Record ``slots_rehashed`` growth of every ``update_path`` call."""
    deltas: list[int] = []
    update = merkle.update_path

    def counted(leaf: int) -> bytes:
        before = merkle.slots_rehashed
        root = update(leaf)
        deltas.append(merkle.slots_rehashed - before)
        return root

    merkle.update_path = counted
    return deltas


def _buckets_holding(ctl, leaf: int, addr: int) -> int:
    tree = ctl.tree
    return sum(
        any(blk is not None and blk.addr == addr for blk in tree.bucket(idx))
        for idx in tree.path_indices(leaf)
    )


def test_slots_rehashed_per_path_operation():
    cfg = OramConfig(levels=4, z=4, a=3, integrity=True)
    ctl = ShadowOramController(cfg, Random(5), ShadowConfig.static(2))
    merkle = ctl.integrity
    assert merkle.slots_rehashed == 0  # the initial build is not counted
    deltas = _count_per_update(merkle)
    whole_path = cfg.z * (cfg.levels + 1)
    rng = Random(7)
    seen = {"dummy": 0, "demand": 0, "multi_copy": 0, "eviction": 0}
    total = 0
    for i in range(400):
        deltas.clear()
        if rng.random() < 0.3:
            result = ctl.dummy_access()
            assert deltas[0] == 0
            seen["dummy"] += 1
        else:
            addr = rng.randrange(ctl.num_blocks)
            op = "write" if rng.random() < 0.3 else "read"
            leaf = ctl.posmap.lookup(addr)
            cleared = _buckets_holding(ctl, leaf, addr)
            result = ctl.access(addr, op, payload=i)
            if result.path_accesses == 0:
                assert deltas == []  # served on chip: no path touched
                continue
            assert deltas[0] == cfg.z * cleared
            seen["demand"] += 1
            seen["multi_copy"] += cleared > 1
        if result.evicted:
            assert deltas[1:] == [whole_path, whole_path]
            seen["eviction"] += 1
        else:
            assert len(deltas) == 1
        total += sum(deltas)
    assert merkle.slots_rehashed == total
    assert all(seen.values()), seen


def test_integrity_off_keeps_no_write_record():
    cfg = OramConfig(levels=6, z=4, a=3)
    for ctl in (
        TinyOramController(cfg, Random(1)),
        ShadowOramController(cfg, Random(1), ShadowConfig.static(3)),
    ):
        rng = Random(2)
        for i in range(1000):
            if rng.random() < 0.25:
                ctl.dummy_access()
            else:
                addr = rng.randrange(ctl.num_blocks)
                op = "write" if rng.random() < 0.3 else "read"
                ctl.access(addr, op, payload=i)
        assert ctl.integrity is None
        assert ctl.tree.dirty is None
        assert ctl.stats.evictions > 0


def test_verified_oram_reuses_an_integrity_controllers_merkle_tree():
    cfg = OramConfig(levels=5, z=4, a=3, integrity=True)
    ctl = ShadowOramController(cfg, Random(1), ShadowConfig.static(2))
    oram = VerifiedOram(ctl)
    assert oram.merkle is ctl.integrity
    rng = Random(2)
    for i in range(200):
        oram.access(rng.randrange(oram.num_blocks), "write", payload=i)
    assert oram.merkle.root == MerkleTree(ctl.tree).root
