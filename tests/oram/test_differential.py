"""Differential tests: optimized hot-path forms vs slow reference forms.

The hot-path data-layout refactor rewrote several inner loops around
flat arrays, cached tables and batched hashing.  Each rewrite kept a
slow, obviously-correct reference (a loop, a per-slot digest, a naive
walk) either in the code base or reconstructible in a few lines.  These
hypothesis-driven tests pin the equivalence:

* eviction-leaf order: :func:`repro.oram.derived.bit_reverse_table` vs
  the loop-based ``TinyOramController._bit_reverse``;
* path addressing: arithmetic ``path_indices`` / cached
  :class:`~repro.oram.derived.DerivedCache` tables vs a parent-pointer
  walk from the leaf bucket;
* path scan: ``OramTree.read_path`` vs a per-bucket view scan;
* Merkle digests: the batched pre-image hasher vs per-slot ``sha256``
  digests, including localization under injected bit-flip-style faults
  and post-heal re-verification;
* Merkle maintenance: the incremental ``update_path`` (only recorded
  buckets re-derived) vs a from-scratch ``MerkleTree`` rebuild after
  every access, and the packed slot pre-image vs its ``to_bytes`` form;
* hot-cache hotness: the merged ``_all`` view vs a per-set scan;
* posmap init memo: the cache-hit replay vs an uncached draw.
"""

import hashlib
import json
from random import Random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import ShadowConfig
from repro.core.controller import ShadowOramController
from repro.core.hot_cache import HotAddressCache
from repro.oram.block import Block
from repro.oram.config import OramConfig
from repro.oram.derived import DerivedCache, bit_reverse_table
from repro.oram.integrity import (
    IntegrityError,
    MerkleTree,
    _slot_bytes,
    _slot_digest,
    _slot_frame,
)
from repro.oram.posmap import PositionMap
from repro.oram.tiny import TinyOramController
from repro.oram.tree import OramTree
from repro.serialize import payload_bytes

# ----------------------------------------------------------------------
# Eviction-leaf order
# ----------------------------------------------------------------------


@given(
    bits=st.integers(min_value=0, max_value=14),
    value=st.integers(min_value=0),
)
@settings(max_examples=100, deadline=None)
def test_bit_reverse_table_matches_loop_reference(bits, value):
    value %= 1 << bits if bits else 1
    table = bit_reverse_table(bits)
    assert table[value] == TinyOramController._bit_reverse(value, bits)


@given(seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=10, deadline=None)
def test_eviction_leaf_sequence_matches_bit_reverse_reference(seed):
    cfg = OramConfig(levels=5, z=4, a=3)
    ctl = TinyOramController(cfg, Random(seed))
    n = 3 * cfg.num_leaves  # wrap the counter a few times
    got = [ctl._next_eviction_leaf() for _ in range(n)]
    expected = [
        TinyOramController._bit_reverse(g % cfg.num_leaves, cfg.levels)
        for g in range(n)
    ]
    assert got == expected


# ----------------------------------------------------------------------
# Path addressing and path scan
# ----------------------------------------------------------------------


def _path_indices_reference(tree: OramTree, leaf: int) -> list[int]:
    """Walk parent pointers from the leaf bucket up to the root."""
    index = (1 << tree.levels) - 1 + leaf
    out = [index]
    while index > 0:
        index = (index - 1) // 2
        out.append(index)
    out.reverse()
    return out


@given(
    levels=st.integers(min_value=1, max_value=10),
    z=st.integers(min_value=1, max_value=5),
    leaf=st.integers(min_value=0),
)
@settings(max_examples=80, deadline=None)
def test_path_indices_match_parent_walk_reference(levels, z, leaf):
    tree = OramTree(levels, z)
    leaf %= tree.num_leaves
    reference = _path_indices_reference(tree, leaf)
    assert tree.path_indices(leaf) == reference
    derived = DerivedCache(tree)
    assert list(derived.path_indices(leaf)) == reference
    assert list(derived.path_bases(leaf)) == [i * z for i in reference]
    # Cache hit returns the identical table.
    assert derived.path_indices(leaf) is derived.path_indices(leaf)


@given(
    levels=st.integers(min_value=1, max_value=6),
    leaf=st.integers(min_value=0),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=40, deadline=None)
def test_read_path_matches_bucket_view_reference(levels, leaf, seed):
    z = 3
    rng = Random(seed)
    tree = OramTree(levels, z)
    leaf %= tree.num_leaves
    # Sparsely populate the tree with recognisable blocks.
    for index in range(tree.num_buckets):
        for slot in range(z):
            if rng.random() < 0.4:
                tree.bucket(index)[slot] = Block(
                    addr=index * z + slot, leaf=rng.randrange(tree.num_leaves)
                )
    # Reference: per-bucket views, root -> leaf, then invalidate.
    expected = []
    for level, index in enumerate(tree.path_indices(leaf)):
        for slot, blk in enumerate(tree.bucket(index)):
            expected.append((level, slot, blk))
    survivors = {
        (i, s): blk
        for i, s, blk in tree.iter_blocks()
        if i not in tree.path_indices(leaf)
    }
    got = tree.read_path(leaf)
    assert got == expected
    # Read slots were invalidated; everything off-path survived untouched.
    for index in tree.path_indices(leaf):
        assert all(blk is None for blk in tree.bucket(index))
    assert {(i, s): blk for i, s, blk in tree.iter_blocks()} == survivors


# ----------------------------------------------------------------------
# Merkle digests (batched hasher vs per-slot reference), with faults
# ----------------------------------------------------------------------

payloads = st.one_of(
    st.none(),
    st.integers(min_value=-(2**31), max_value=2**31),
    st.text(max_size=12),
    st.lists(st.integers(min_value=0, max_value=255), max_size=6),
)

blocks = st.builds(
    Block,
    addr=st.integers(min_value=0, max_value=2**20),
    leaf=st.integers(min_value=0, max_value=2**20),
    version=st.integers(min_value=-4, max_value=2**20),
    payload=payloads,
    is_shadow=st.booleans(),
)


@given(blk=st.one_of(st.none(), blocks))
@settings(max_examples=100, deadline=None)
def test_slot_digest_is_sha256_of_preimage(blk):
    assert _slot_digest(blk) == hashlib.sha256(_slot_bytes(blk)).digest()


def _reference_corrupt_slots(merkle: MerkleTree) -> set[tuple[int, int]]:
    """Slow reference scrub: per-slot digest objects, one hash per slot."""
    tree = merkle.tree
    out = set()
    for index in range(tree.num_buckets):
        for slot, blk in enumerate(tree.bucket(index)):
            if _slot_digest(blk) != merkle.slot_digest(index, slot):
                out.add((index, slot))
    return out


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    flips=st.lists(
        st.tuples(
            st.integers(min_value=0),  # victim rank among occupied slots
            st.sampled_from(["version", "payload", "leaf", "shadow", "erase"]),
        ),
        min_size=1,
        max_size=4,
    ),
)
@settings(
    max_examples=15, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_batched_localization_matches_per_slot_digest_reference(seed, flips):
    cfg = OramConfig(levels=4, z=4, a=3)
    ctl = TinyOramController(cfg, Random(seed))
    rng = Random(seed ^ 0x5A5A)
    for _ in range(20):
        ctl.access(rng.randrange(ctl.num_blocks), "read")
    merkle = MerkleTree(ctl.tree)
    assert merkle.verify_all() == []

    # Inject bit-flip-style faults: mutate occupied slots the same way the
    # fault injector does (version flip, payload wrap), plus forged leaf /
    # shadow-bit / whole-slot erasure variants.
    occupied = [(i, s) for i, s, _ in ctl.tree.iter_blocks()]
    touched = set()
    for rank, mode in flips:
        index, slot = occupied[rank % len(occupied)]
        blk = ctl.tree.bucket(index)[slot]
        if blk is None:
            continue
        if mode == "version":
            blk.version ^= 1
        elif mode == "payload":
            blk.payload = ("bitflip", blk.payload)
        elif mode == "leaf":
            blk.leaf ^= 1
        elif mode == "shadow":
            blk.is_shadow = not blk.is_shadow
        else:
            ctl.tree.bucket(index)[slot] = None
        touched.add((index, slot))

    # Two flips of the same field cancel out (version ^= 1 twice restores
    # the original), so the expected set is the *net* byte-level change
    # against the recorded pre-image, not merely which slots were touched.
    tampered = {
        (i, s)
        for i, s in touched
        if _slot_bytes(ctl.tree.bucket(i)[s]) != merkle.slot_bytes(i, s)
    }

    found = {(cs.bucket, cs.slot) for cs in merkle.verify_all()}
    assert found == tampered
    assert found == _reference_corrupt_slots(merkle)

    # Recovery: heal every corrupt slot from its directory entry, rehash,
    # and confirm both the batched and the reference scrub come up clean.
    for cs in merkle.verify_all():
        meta = merkle.slot_meta(cs.bucket, cs.slot)
        healed = None if meta is None else meta.make_block()
        ctl.tree.bucket(cs.bucket)[cs.slot] = healed
        merkle.rehash_bucket(cs.bucket)
    assert merkle.verify_all() == []
    assert _reference_corrupt_slots(merkle) == set()
    for leaf in range(cfg.num_leaves):
        merkle.verify_path(leaf)  # must not raise


# ----------------------------------------------------------------------
# Hot Address Cache merged view
# ----------------------------------------------------------------------


@given(
    addrs=st.lists(st.integers(min_value=0, max_value=63), min_size=1,
                   max_size=200),
)
@settings(max_examples=50, deadline=None)
def test_hot_cache_merged_view_matches_set_scan(addrs):
    cache = HotAddressCache(sets=4, ways=2)
    for addr in addrs:
        cache.touch(addr)
        # Reference: hotness of an address is its counter in the one set
        # that can hold it (0 when untracked).
        for probe in set(addrs):
            assert cache.hotness(probe) == cache._set_of(probe).get(probe, 0)
    merged = {
        addr: count
        for line in cache._lines
        for addr, count in line.items()
    }
    assert cache._all == merged
    # The merged view survives a snapshot/restore round trip.
    restored = HotAddressCache(sets=4, ways=2)
    restored.restore_state(cache.snapshot_state())
    assert restored._all == merged
    assert [list(line.items()) for line in restored._lines] == [
        list(line.items()) for line in cache._lines
    ]


# ----------------------------------------------------------------------
# Posmap init memoization
# ----------------------------------------------------------------------


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    num_blocks=st.integers(min_value=1, max_value=200),
    leaf_bits=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=40, deadline=None)
def test_posmap_init_cache_replays_identical_stream(seed, num_blocks,
                                                    leaf_bits):
    num_leaves = 1 << leaf_bits
    # Reference: the plain uncached draw.
    ref_rng = Random(seed)
    expected_leaves = [ref_rng.randrange(num_leaves) for _ in range(num_blocks)]
    expected_stream = [ref_rng.random() for _ in range(20)]

    # First construction populates the memo, second replays it; both must
    # produce the reference table AND leave the generator positioned so
    # the downstream stream is bit-identical to the uncached draw.
    for _ in range(2):
        rng = Random(seed)
        posmap = PositionMap(num_blocks, num_leaves, rng)
        assert posmap._leaf == expected_leaves
        assert [rng.random() for _ in range(20)] == expected_stream


# ----------------------------------------------------------------------
# End-to-end: optimized controller vs itself under integrity + healing
# ----------------------------------------------------------------------


@given(seed=st.integers(min_value=0, max_value=2**16))
@settings(
    max_examples=5, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_healed_run_matches_fault_free_reference(seed):
    """A bit flip healed by recovery leaves the run bit-identical.

    This is the recovery-facing differential: the fault-free run is the
    reference, and the faulted-then-healed run (batched Merkle scrub +
    directory heal) must converge to the same final state.
    """
    def build():
        cfg = OramConfig(levels=5, z=4, a=3, integrity=True,
                         recovery="recover", scrub_interval=1)
        return ShadowOramController(
            cfg, Random(seed), ShadowConfig.static(3)
        )

    rng = Random(seed ^ 0xBEEF)
    ops = [(rng.randrange(40), rng.random() < 0.3) for _ in range(40)]

    reference = build()
    faulted = build()
    for i, (raw_addr, is_write) in enumerate(ops):
        if i == 12:
            # Identical injected flip in the faulted controller only: the
            # first occupied tree slot gets the injector's mutation.
            for index, slot, blk in faulted.tree.iter_blocks():
                blk.version ^= 1
                blk.payload = ("bitflip", blk.payload)
                break
        for ctl in (reference, faulted):
            addr = raw_addr % ctl.num_blocks
            if is_write:
                ctl.access(addr, "write", payload=i)
            else:
                ctl.access(addr, "read")

    assert faulted.recovery.stats.recoveries >= 1
    assert faulted.tree.snapshot_state() == reference.tree.snapshot_state()
    assert faulted.stash.snapshot_state() == reference.stash.snapshot_state()
    assert faulted.posmap._leaf == reference.posmap._leaf


# ----------------------------------------------------------------------
# Incremental Merkle update vs a from-scratch rebuild
# ----------------------------------------------------------------------


def _slot_bytes_reference(blk: Block | None) -> bytes:
    """Per-field ``to_bytes`` rendering the packed pre-image replaces."""
    if blk is None:
        return b"\x00dummy"
    return b"".join((
        b"\x01",
        blk.addr.to_bytes(8, "little", signed=False),
        blk.leaf.to_bytes(8, "little", signed=False),
        blk.version.to_bytes(8, "little", signed=True),
        b"\x01" if blk.is_shadow else b"\x00",
        payload_bytes(blk.payload),
    ))


@given(blk=st.one_of(st.none(), blocks))
@settings(max_examples=200, deadline=None)
def test_packed_slot_preimage_matches_to_bytes_reference(blk):
    reference = _slot_bytes_reference(blk)
    assert _slot_bytes(blk) == reference
    assert _slot_frame(blk) == len(reference).to_bytes(4, "little") + reference


def _assert_matches_rebuild(ctl) -> None:
    """The controller's incremental Merkle state equals a fresh rebuild."""
    # Every write an access recorded was consumed by its own update.
    assert ctl.tree.dirty == set()
    merkle = ctl.integrity
    reference = MerkleTree(ctl.tree)
    assert merkle.root == reference.root
    assert merkle._digests == reference._digests
    assert merkle._frames == reference._frames
    assert merkle._payloads == reference._payloads
    # Directory entries decode to exactly what each slot holds.
    for index, slot, blk in ctl.tree.iter_blocks():
        assert merkle.slot_meta(index, slot) == (
            blk.addr, blk.leaf, blk.version, blk.is_shadow, blk.payload
        )


def _flip_in_place(ctl, rank: int) -> None:
    """The fault injector's bit flip: mutate an occupied slot in place."""
    occupied = [blk for _, _, blk in ctl.tree.iter_blocks()]
    if occupied:
        blk = occupied[rank % len(occupied)]
        blk.version ^= 1
        blk.payload = ("bitflip", blk.payload)


merkle_ops = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["read", "write"]), st.integers(0, 10**6)),
        st.tuples(st.sampled_from(["dummy", "evict", "snapshot", "restore"]),
                  st.just(0)),
        st.tuples(st.just("flip"), st.integers(0, 10**6)),
    ),
    min_size=1,
    max_size=40,
)


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    policy=st.sampled_from(["recover", "degrade"]),
    ops=merkle_ops,
)
@settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_incremental_merkle_matches_rebuild_after_every_access(
    seed, policy, ops
):
    """Re-authenticating only the recorded buckets is byte-identical to
    re-deriving the whole tree, across demand reads and writes, dummy
    reads, evictions, healed bit flips and checkpoint restores."""
    # A scrub every access heals each flip before the next path read, so
    # after every access the tree holds only authenticated contents.
    cfg = OramConfig(levels=4, z=4, a=3, integrity=True, recovery=policy,
                     scrub_interval=1)
    ctl = ShadowOramController(cfg, Random(seed), ShadowConfig.static(2))
    _assert_matches_rebuild(ctl)
    saved = None
    for i, (kind, arg) in enumerate(ops):
        if kind == "flip":
            _flip_in_place(ctl, arg)
            continue
        if kind == "snapshot":
            saved = json.dumps(ctl.snapshot_state())
            continue
        if kind == "restore":
            if saved is None:
                continue
            ctl.restore_state(json.loads(saved))
        elif kind == "dummy":
            ctl.dummy_access()
        elif kind == "evict":
            ctl._ro_since_eviction = cfg.a - 1
            assert ctl.dummy_access().evicted
        else:
            addr = arg % ctl.num_blocks
            ctl.access(addr, kind, payload=i if kind == "write" else None)
        _assert_matches_rebuild(ctl)


@given(seed=st.integers(min_value=0, max_value=2**16))
@settings(
    max_examples=10, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_update_path_never_absorbs_in_place_tampering(seed):
    """An in-place bit flip is never re-derived by ``update_path``.

    Even a path update that runs without a preceding verify keeps the
    flipped slot's authenticated pre-image, so the next verify fails
    (``raise``) or heals it back to the fault-free state (``recover``).
    """
    def build(policy):
        cfg = OramConfig(levels=4, z=4, a=3, integrity=True, recovery=policy)
        return TinyOramController(cfg, Random(seed))

    rng = Random(seed ^ 0xF11F)
    ops = [(rng.randrange(40), rng.random() < 0.3) for _ in range(30)]

    def drive(ctl, start, stop):
        for raw_addr, is_write in ops[start:stop]:
            addr = raw_addr % ctl.num_blocks
            if is_write:
                ctl.access(addr, "write", payload=raw_addr)
            else:
                ctl.access(addr, "read")

    reference = build("recover")
    drive(reference, 0, len(ops))
    for policy in ("raise", "recover"):
        ctl = build(policy)
        drive(ctl, 0, 10)
        merkle = ctl.integrity
        index, slot, blk = next(iter(ctl.tree.iter_blocks()))
        trusted = merkle.slot_bytes(index, slot)
        root = merkle.root
        blk.version ^= 1
        leaf = next(
            leaf for leaf in range(ctl.tree.num_leaves)
            if ctl.tree.on_path(leaf, index)
        )
        assert merkle.update_path(leaf) == root
        assert merkle.slot_bytes(index, slot) == trusted != _slot_bytes(blk)
        assert [(cs.bucket, cs.slot) for cs in merkle.localize(leaf)] == [
            (index, slot)
        ]
        if policy == "raise":
            with pytest.raises(IntegrityError):
                merkle.verify_path(leaf)
            continue
        # Under recover the flip is healed as soon as an access reads its
        # path; a final scrub heals it if no access did.
        drive(ctl, 10, len(ops))
        ctl.recovery.scrub_tree()
        assert ctl.recovery.stats.recoveries == 1
        assert ctl.tree.snapshot_state() == reference.tree.snapshot_state()
        assert merkle.root == reference.integrity.root
        _assert_matches_rebuild(ctl)
