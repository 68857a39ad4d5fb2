"""Integrity verification for the ORAM tree (Merkle-style hash tree).

Tiny ORAM's hardware design ("RAW Path ORAM: a low-latency, low-area
hardware ORAM controller **with integrity verification**") authenticates
every block it reads so a tampering memory cannot return stale or forged
ciphertexts.  The classic construction maps naturally onto the ORAM tree:
every bucket stores a digest of its contents plus its children's digests,
the controller keeps only the root digest on chip, and a path read can be
verified (and a path write re-hashed) touching exactly the path plus its
siblings — the same buckets the ORAM already moves.

This module provides that layer for the simulator: a
:class:`MerkleTree` keyed by the ORAM tree geometry, with
``verify_path`` / ``update_path`` operations plus the recovery-oriented
primitives the self-healing runtime builds on:

* per-slot digests, so a mismatch can be **localized** to the exact
  bucket *slot* that was tampered with (:meth:`MerkleTree.localize`,
  :meth:`MerkleTree.verify_all`);
* a per-slot metadata directory (:class:`SlotMeta`) recording what each
  slot held at its last authenticated rehash — the simulator's stand-in
  for the durable replica a posmap-guided repair fetch would consult;
* :meth:`MerkleTree.rehash_bucket`, the O(L) root-ward rehash a healed
  bucket needs.

**What ``update_path`` re-authenticates.**  The tree records which
buckets were written through it since they were last authenticated
(:attr:`~repro.oram.tree.OramTree.dirty`): the slots a demand read
clears, the whole path an eviction read empties and the whole path a
path write stores, plus any bucket-view assignment.  ``update_path(leaf)``
re-derives slot pre-images and directory entries for exactly those
buckets on the path, then recomputes node digests root-ward from the
deepest one; a dummy read, which moves nothing, hashes nothing.  The
result is byte-identical to re-deriving the whole path from its live
contents, because an unwritten bucket's live contents *are* its stored
pre-images.

**Why tampering is never laundered.**  A change the tree did not record
— the modelled bit flip mutates a :class:`~repro.oram.block.Block` in
place — is never re-derived, so its slot keeps its authenticated
pre-image and the next ``verify_path``/``localize`` over it fails or
heals.  Re-deriving whole paths from their live contents would instead
certify such a change as authentic on the next access to that path.  A
recorded write is re-derived only after the path it lies on was
authenticated: the integrated controller (``OramConfig(integrity=True)``)
runs ``verify_path``/``heal_path`` on every path before reading it, and
writes a path only right after the verified read of that same path.

Block contents hash through the canonical byte codec of
:mod:`repro.serialize` (``payload_bytes``), *not* ``repr``: ``repr`` is
neither stable across processes (default object reprs embed ``id()``) nor
canonical for equal containers, so digests built from it could not be
checked against checkpointed state.  The layer is functional (no timing):
the paper's evaluation does not include integrity latency, and neither do
our benchmarks.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import NamedTuple

from repro.oram.block import Block
from repro.oram.tree import OramTree
from repro.serialize import payload_bytes


class IntegrityError(RuntimeError):
    """Raised when a path's contents do not match the trusted root digest."""


_DUMMY_BYTES = b"\x00dummy"
_DUMMY_DIGEST = hashlib.sha256(_DUMMY_BYTES).digest()

# Experiments run with ``payload=None`` on every block, so the canonical
# JSON rendering of ``None`` dominates pre-image construction; compute it
# once instead of round-tripping through the codec per slot.
_NONE_PAYLOAD_BYTES = payload_bytes(None)

_sha256 = hashlib.sha256

# A slot's *frame* is its pre-image behind a 4-byte little-endian length
# prefix — exactly the bytes a node digest hashes for that slot.  The
# prefix keeps the encoding injective: pre-images vary in length with
# their payloads, so without it two different buckets could concatenate
# to the same byte stream.  A real slot's frame starts with one packed
# head: length, marker byte, address, leaf, signed version, shadow bit
# (the same bytes as the per-field ``int.to_bytes`` rendering).
_FRAME_HEAD = struct.Struct("<IBQQqB")
_HEAD_BYTES = 26  # pre-image bytes before the payload: 1 + 8 + 8 + 8 + 1
_DUMMY_FRAME = struct.pack("<I", len(_DUMMY_BYTES)) + _DUMMY_BYTES


def _slot_frame(blk: Block | None) -> bytes:
    """Length-prefixed pre-image of one slot (see :func:`_slot_bytes`).

    Frames are what the Merkle tree stores and compares: equal frames
    mean equal pre-images, and a node digest is one hash over its slots'
    frames plus the child digests.
    """
    if blk is None:
        return _DUMMY_FRAME
    payload = blk.payload
    data = _NONE_PAYLOAD_BYTES if payload is None else payload_bytes(payload)
    return _FRAME_HEAD.pack(
        _HEAD_BYTES + len(data), 1, blk.addr, blk.leaf, blk.version,
        blk.is_shadow,
    ) + data


def _slot_bytes(blk: Block | None) -> bytes:
    """Canonical pre-image of one bucket slot's logical contents.

    Dummies render as a fixed marker; blocks render their full identity
    (address, leaf, version, shadow bit, canonical payload bytes) so any
    stale or forged replacement changes the bytes — and therefore the
    digest.  Byte equality of pre-images is exactly the property
    slot-digest equality certifies, checked without hashing anything.
    """
    return _slot_frame(blk)[4:]


def _slot_digest(blk: Block | None) -> bytes:
    """Digest of one bucket slot's logical contents.

    Equal to ``sha256(_slot_bytes(blk))`` by construction; kept as the
    reference definition (and for callers that need a fixed-width
    commitment rather than the variable-length pre-image).
    """
    if blk is None:
        return _DUMMY_DIGEST
    return _sha256(_slot_bytes(blk)).digest()


class SlotMeta(NamedTuple):
    """What a tree slot held at its last authenticated rehash.

    This is the recovery directory entry for one slot.  Conceptually the
    payload lives in the durable replica a repair fetch would read from;
    the simulator keeps it beside the digest so the rebuild branch of the
    escalation ladder is exercisable without modelling a second storage
    tier.  Entries are decoded on demand from the slot's stored frame
    (plus its payload object), so the tree keeps no per-slot records.
    """

    addr: int
    leaf: int
    version: int
    is_shadow: bool
    payload: object

    def make_block(self) -> Block:
        """Reconstruct the authenticated block this entry describes."""
        return Block(
            addr=self.addr,
            leaf=self.leaf,
            version=self.version,
            payload=self.payload,
            is_shadow=self.is_shadow,
        )


@dataclass(slots=True, frozen=True)
class CorruptSlot:
    """One localized integrity violation.

    Attributes:
        bucket: Heap index of the corrupt bucket.
        level: Tree level of that bucket (root = 0).
        slot: Slot index within the bucket.
        expected: Directory entry for the slot's authenticated contents
            (``None`` when the slot was an authenticated dummy).
        digest: The trusted slot digest the live contents must match.
    """

    bucket: int
    level: int
    slot: int
    expected: SlotMeta | None
    digest: bytes

    def describe(self) -> str:
        what = "dummy" if self.expected is None else f"addr {self.expected.addr}"
        return (
            f"bucket {self.bucket} (level {self.level}) slot {self.slot} "
            f"[{what}]"
        )


class MerkleTree:
    """Hash tree mirroring an :class:`~repro.oram.tree.OramTree`.

    Node digest = H(length-prefixed slot pre-images || left child digest
    || right child digest).  Only :attr:`root` needs trusted storage; the
    per-node digests live (conceptually) in untrusted memory alongside the
    buckets, while the per-slot digest/metadata directory models the
    authenticated repair source recovery falls back on.

    Args:
        tree: The ORAM tree to authenticate.  The Merkle tree reads bucket
            contents directly from it on (re)hashing, and switches on the
            tree's write record (:attr:`~repro.oram.tree.OramTree.dirty`)
            that :meth:`update_path` consumes.

    Attributes:
        slots_rehashed: Slot pre-images re-derived by :meth:`update_path`
            (a whole bucket's ``z`` slots per re-derived bucket) — the
            exact work counter of the incremental update.
    """

    def __init__(self, tree: OramTree) -> None:
        self.tree = tree
        if tree.dirty is None:
            tree.dirty = set()
        self.slots_rehashed = 0
        self._digests: list[bytes] = [b""] * tree.num_buckets
        # Per-slot frames (length-prefixed pre-images) from the last
        # authenticated rehash, flat like the tree's slot store (bucket i
        # owns frames[i*z : (i+1)*z]).  Storing frames instead of digests
        # is what makes both hashing and localization batched: a bucket's
        # node digest is one ``sha256`` over its joined frames plus the
        # child digests, and a corrupt slot is found by comparing bytes —
        # no per-slot digest objects anywhere on the hot path.
        self._frames: list[bytes] = [_DUMMY_FRAME] * (tree.num_buckets * tree.z)
        # The directory is the frames themselves (address, leaf, version
        # and shadow bit decode from the packed head) plus the payload
        # *objects* of the slots that carry one, keyed by flat slot.
        self._payloads: dict[int, object] = {}
        self._rebuild_all()

    @property
    def root(self) -> bytes:
        """The trusted on-chip root digest."""
        return self._digests[0]

    def slot_bytes(self, bucket_index: int, slot: int) -> bytes:
        """Trusted pre-image of one slot (from the last authenticated rehash).

        Comparing a live block's ``_slot_bytes`` against this is the
        hash-free equivalent of comparing slot digests; recovery's scrub
        loops use it to skip a ``sha256`` per inspected slot.
        """
        return self._frames[bucket_index * self.tree.z + slot][4:]

    def slot_digest(self, bucket_index: int, slot: int) -> bytes:
        """Trusted digest of one slot (from the last authenticated rehash)."""
        frame = self._frames[bucket_index * self.tree.z + slot]
        if frame == _DUMMY_FRAME:
            return _DUMMY_DIGEST
        return _sha256(frame[4:]).digest()

    def slot_meta(self, bucket_index: int, slot: int) -> SlotMeta | None:
        """Directory entry for one slot (``None`` = authenticated dummy)."""
        flat = bucket_index * self.tree.z + slot
        frame = self._frames[flat]
        if frame == _DUMMY_FRAME:
            return None
        _, _, addr, leaf, version, is_shadow = _FRAME_HEAD.unpack_from(frame)
        return SlotMeta(
            addr, leaf, version, bool(is_shadow), self._payloads.get(flat)
        )

    # ------------------------------------------------------------------
    def _node_digest(self, index: int, frames: list[bytes]) -> bytes:
        """One-pass bucket digest: H(slot frames || left || right child).

        ``frames`` is a scratch list: the child digests are appended to it.
        """
        left = 2 * index + 1
        if left < self.tree.num_buckets:
            digests = self._digests
            frames.append(digests[left])
            frames.append(digests[left + 1])
        return _sha256(b"".join(frames)).digest()

    def _authenticate(self, index: int) -> None:
        """Record bucket ``index``'s live contents as its trusted frames,
        directory entries and node digest."""
        z = self.tree.z
        base = index * z
        slots = self.tree._slots
        frames = self._frames
        payloads = self._payloads
        for flat in range(base, base + z):
            blk = slots[flat]
            frames[flat] = _slot_frame(blk)
            if blk is not None and blk.payload is not None:
                payloads[flat] = blk.payload
            elif payloads:
                payloads.pop(flat, None)
        self._digests[index] = self._node_digest(index, frames[base:base + z])

    def _redigest(self, index: int) -> None:
        """Recompute a node digest from its stored frames."""
        z = self.tree.z
        self._digests[index] = self._node_digest(
            index, self._frames[index * z:(index + 1) * z]
        )

    def _rebuild_all(self) -> None:
        for index in range(self.tree.num_buckets - 1, -1, -1):
            self._authenticate(index)
        # Every bucket was just re-derived from its live contents.
        self.tree.dirty.clear()

    # ------------------------------------------------------------------
    def verify_path(self, leaf: int) -> None:
        """Authenticate path ``leaf`` against the trusted root.

        Recomputes each path node's digest from the (untrusted) bucket
        contents and the stored child digests; any mismatch along the way
        — a tampered bucket, a stale digest, a forged sibling — raises
        :class:`IntegrityError`.  One ``sha256`` pass per bucket.
        """
        tree = self.tree
        slots = tree._slots
        z = tree.z
        for index in reversed(tree.path_indices(leaf)):
            base = index * z
            live = [_slot_frame(blk) for blk in slots[base:base + z]]
            if self._node_digest(index, live) != self._digests[index]:
                level = self.tree.level_of_bucket(index)
                raise IntegrityError(
                    f"integrity violation at bucket {index} (level {level}) "
                    f"on path {leaf}"
                )

    def update_path(self, leaf: int) -> bytes:
        """Re-authenticate what was written on path ``leaf``; returns the root.

        Only buckets the tree recorded as written (see the module
        docstring) are re-derived; node digests are then recomputed from
        the deepest of them up to the root, reusing every stored sibling
        digest — O(L) hashes at most, the standard Merkle update the
        hardware performs during Step-6, and none when nothing on the
        path was written.
        """
        tree = self.tree
        if not 0 <= leaf < tree.num_leaves:
            raise ValueError(f"leaf {leaf} out of range 0..{tree.num_leaves - 1}")
        dirty = tree.dirty
        if not dirty:
            return self._digests[0]
        levels = tree.levels
        changed = False
        for level in range(levels, -1, -1):
            index = (1 << level) - 1 + (leaf >> (levels - level))
            if index in dirty:
                dirty.discard(index)
                self._authenticate(index)
                self.slots_rehashed += tree.z
                changed = True
            elif changed:
                self._redigest(index)
        return self._digests[0]

    # ------------------------------------------------------------------
    # Localization + incremental rehash (the recovery primitives)
    # ------------------------------------------------------------------
    def _localize_bucket(self, index: int) -> list[CorruptSlot]:
        z = self.tree.z
        base = index * z
        slots = self.tree._slots
        frames = self._frames
        out: list[CorruptSlot] = []
        for slot in range(z):
            if _slot_frame(slots[base + slot]) != frames[base + slot]:
                out.append(
                    CorruptSlot(
                        bucket=index,
                        level=self.tree.level_of_bucket(index),
                        slot=slot,
                        expected=self.slot_meta(index, slot),
                        digest=self.slot_digest(index, slot),
                    )
                )
        return out

    def localize(self, leaf: int) -> list[CorruptSlot]:
        """Every corrupt slot along path ``leaf``, root-ward first."""
        out: list[CorruptSlot] = []
        for index in self.tree.path_indices(leaf):
            out.extend(self._localize_bucket(index))
        return out

    def verify_all(self) -> list[CorruptSlot]:
        """Full-tree scrub: every corrupt slot anywhere in the tree."""
        out: list[CorruptSlot] = []
        for index in range(self.tree.num_buckets):
            out.extend(self._localize_bucket(index))
        return out

    def rehash_bucket(self, index: int) -> bytes:
        """Re-authenticate bucket ``index`` and propagate to the root.

        Used after a recovery heals a slot: the healed bucket gets fresh
        slot pre-images/metadata, and every ancestor's node digest is
        recomputed from its (unchanged) stored slot pre-images — O(L)
        hashes.
        """
        self.tree.dirty.discard(index)
        self._authenticate(index)
        while index > 0:
            index = (index - 1) // 2
            self._redigest(index)
        return self.root


class VerifiedOram:
    """Controller wrapper enforcing Merkle verification per access.

    Wraps a :class:`~repro.oram.tiny.TinyOramController` or
    :class:`~repro.core.controller.ShadowOramController` so that every
    access first authenticates the path it is about to read and re-hashes
    whatever it rewrote::

        controller = ShadowOramController(cfg, rng, shadow_cfg)
        secured = VerifiedOram(controller)
        secured.access(addr, "read")

    Implemented as a wrapper (not a subclass) so it composes with both
    controller types.  The integrated alternative — verification plus
    self-healing recovery inside the controller itself — is enabled with
    ``OramConfig(integrity=True)``; see :mod:`repro.oram.recovery`.
    """

    def __init__(self, controller) -> None:
        self.controller = controller
        # An ``integrity=True`` controller already authenticates its tree;
        # a second Merkle tree would compete for the tree's write record.
        self.merkle = controller.integrity or MerkleTree(controller.tree)
        self.verified_paths = 0

    @property
    def num_blocks(self) -> int:
        return self.controller.num_blocks

    def access(self, addr: int, op: str = "read", payload: object = None,
               now: float = 0.0):
        """Verify-before-read, re-hash-after-write, then serve the access."""
        ctrl = self.controller
        leaf = ctrl.posmap.lookup(addr)
        self.merkle.verify_path(leaf)
        self.verified_paths += 1
        # Snapshot the eviction schedule: if this access triggers the RW
        # eviction, the leaf it will use is fully determined *now* (the
        # reverse-lexicographic counter advances deterministically), which
        # lets us re-hash exactly the two rewritten paths afterwards
        # instead of rebuilding the whole tree.
        evict_leaf = ctrl._rev_table[
            ctrl._eviction_counter % ctrl.config.num_leaves
        ]
        result = ctrl.access(addr, op, payload=payload, now=now)
        # Any bucket the access rewrote lies on one of the touched paths:
        # the read path always, plus the eviction path when an eviction
        # ran.  Re-hashing both is O(L) — the same bound the hardware's
        # Step-6 Merkle update enjoys.
        self.merkle.update_path(leaf)
        if result.evicted:
            self.merkle.update_path(evict_leaf)
        return result

    def tamper(self, bucket_index: int, blk: Block | None) -> None:
        """Adversarial mutation of untrusted memory (for tests/demos)."""
        bucket = self.controller.tree.bucket(bucket_index)
        bucket[0] = blk
