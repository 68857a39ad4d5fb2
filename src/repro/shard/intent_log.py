"""Per-shard append-only intent log: the replayable access history.

Every slot the supervisor dispatches to a shard — real client accesses
and padding dummies alike — is appended here *before* the shard executes
it (write-ahead).  Because a shard's ORAM state is a pure function of
its applied intent sequence (the serve-bridge determinism of DESIGN.md
§10), the log plus the newest checkpoint is a complete recovery recipe:
restore the snapshot taken after intent ``c``, replay entries
``c..tail``, and the respawned shard is bit-identical to the moment of
death — including an intent that was in flight when the worker died,
which the replay applies exactly once.

Failure model, mirroring :mod:`repro.system.checkpoint`:

* appends are a single ``write`` of one ``\\n``-terminated JSON line
  followed by ``flush``; a crash mid-append can only tear the *final*
  line;
* reading tolerates exactly that: a torn last line is dropped (the
  intent never executed anywhere that matters — its shard died before
  acknowledging it, and the supervisor re-dispatches);
* anything else — a torn line *followed by* valid lines, an ordinal
  gap, a header mismatch — is :class:`IntentLogCorrupt`: the history is
  no longer trustworthy and the fleet must fail loudly rather than
  resurrect a shard into a guessed state.

A snapshot makes the history before it redundant: :meth:`IntentLog.trim`
republishes the log from a snapshot's ordinal on, its header recording
that ``base`` and the real intents before it, so a log stays bounded.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.durable import atomic_write
from repro.serialize import SCHEMA_VERSION

#: Intent kinds: a client-requested access vs. a padding dummy slot.
KIND_REAL = "real"
KIND_DUMMY = "dummy"


class IntentLogCorrupt(RuntimeError):
    """The log's recorded history is torn mid-sequence or inconsistent."""


@dataclass(slots=True, frozen=True)
class Intent:
    """One dispatched slot: what a shard must (re)apply at ``ordinal``.

    Attributes:
        ordinal: 0-based dense position in this shard's intent sequence.
        kind: ``"real"`` or ``"dummy"``.
        addr: Shard-local block address.
        op: ``"read"`` or ``"write"`` (dummies are always reads).
        value: Write payload (JSON-safe; ``None`` for reads).
    """

    ordinal: int
    kind: str
    addr: int
    op: str
    value: object = None

    def to_payload(self) -> dict[str, object]:
        return {
            "n": self.ordinal,
            "k": self.kind,
            "a": self.addr,
            "o": self.op,
            "v": self.value,
        }

    def to_line(self) -> str:
        return json.dumps(self.to_payload(), separators=(",", ":"))

    @classmethod
    def from_payload(cls, payload: dict[str, object]) -> "Intent":
        return cls(
            ordinal=int(payload["n"]),
            kind=str(payload["k"]),
            addr=int(payload["a"]),
            op=str(payload["o"]),
            value=payload.get("v"),
        )


class IntentLog:
    """Append-only write-ahead log of one shard's intent sequence.

    Args:
        path: Log file location (parent directories created).  ``None``
            keeps no history: appends only advance the counters.
        run_key: Identity of the run writing the log; stored in the
            header line and checked on reopen, so a directory reused
            across configurations can never replay a foreign history.

    Attributes:
        base: Ordinal of the first retained intent (0 until a trim).
        length: Number of durable intents (== the next ordinal).
        real_count: Durable client (non-dummy) intents, trimmed ones
            included.
    """

    def __init__(
        self, path: str | Path | None, run_key: dict[str, object]
    ) -> None:
        self.run_key = run_key
        self.base = 0
        self.real_count = 0
        self._entries: list[Intent] = []
        self.torn_tail_dropped = 0
        self.path = self._fh = None
        if path is None:
            return
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if self.path.exists():
            self._load()
            self._fh = self.path.open("a", encoding="utf-8")
        else:
            self._publish()

    # ------------------------------------------------------------------
    @property
    def length(self) -> int:
        return self.base + len(self._entries)

    def append(self, intent: Intent) -> None:
        """Durably record one intent (must be the next dense ordinal)."""
        if intent.ordinal != self.length:
            raise IntentLogCorrupt(
                f"append out of order: got ordinal {intent.ordinal}, "
                f"expected {self.length}"
            )
        if intent.kind == KIND_REAL:
            self.real_count += 1
        if self._fh is None:
            self.base += 1
            return
        self._fh.write(intent.to_line() + "\n")
        self._fh.flush()
        self._entries.append(intent)

    def entries_from(self, start: int) -> list[Intent]:
        """The replay suffix: every durable intent from ``start`` on."""
        if start < self.base or start > self.length:
            raise IntentLogCorrupt(
                f"replay start {start} outside retained history "
                f"{self.base}..{self.length}"
            )
        return self._entries[start - self.base:]

    def trim(self, upto: int) -> None:
        """Drop every intent before ordinal ``upto`` (a snapshot's index).

        The file is republished atomically, so a crash leaves either the
        old log or the trimmed one, and both replay the same suffix.
        """
        upto = min(upto, self.length)
        if upto <= self.base:
            return
        self._entries = self._entries[upto - self.base:]
        self.base = upto
        # A failed write keeps appending to the old file (a superset).
        old = self._fh
        self._publish()
        old.close()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()

    def _publish(self) -> None:
        """Write header + retained entries atomically; reopen to append."""
        header = {
            "schema": SCHEMA_VERSION, "run": self.run_key, "base": self.base,
            "real": self.real_count - sum(
                intent.kind == KIND_REAL for intent in self._entries
            ),
        }
        lines = [json.dumps(header, separators=(",", ":"))]
        lines += [intent.to_line() for intent in self._entries]
        atomic_write(
            self.path, lambda fh: fh.write("\n".join(lines) + "\n")
        )
        self._fh = self.path.open("a", encoding="utf-8")

    # ------------------------------------------------------------------
    def _load(self) -> None:
        raw_lines = self.path.read_text(encoding="utf-8").split("\n")
        if raw_lines and raw_lines[-1] == "":
            raw_lines.pop()
        if not raw_lines:
            raise IntentLogCorrupt(f"{self.path}: empty log file")
        try:
            header = json.loads(raw_lines[0])
        except json.JSONDecodeError as exc:
            raise IntentLogCorrupt(f"{self.path}: unreadable header") from exc
        if header.get("schema") != SCHEMA_VERSION:
            raise IntentLogCorrupt(f"{self.path}: schema mismatch")
        if header.get("run") != self.run_key:
            raise IntentLogCorrupt(
                f"{self.path}: log belongs to a different run"
            )
        parsed: list[Intent] = []
        for i, line in enumerate(raw_lines[1:]):
            try:
                parsed.append(Intent.from_payload(json.loads(line)))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                if i == len(raw_lines) - 2:
                    # Torn tail: the crash interrupted the final append.
                    self.torn_tail_dropped += 1
                    break
                raise IntentLogCorrupt(
                    f"{self.path}: unreadable line {i + 1} before "
                    f"end of log — history is not trustworthy"
                ) from None
        base = int(header.get("base", 0))
        for i, intent in enumerate(parsed):
            if intent.ordinal != base + i:
                raise IntentLogCorrupt(
                    f"{self.path}: ordinal gap at line {i + 1} "
                    f"(got {intent.ordinal}, expected {base + i})"
                )
        self.base = base
        self._entries = parsed
        self.real_count = int(header.get("real", 0)) + sum(
            1 for intent in parsed if intent.kind == KIND_REAL
        )
