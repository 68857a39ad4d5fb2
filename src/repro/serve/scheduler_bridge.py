"""The bridge between the asyncio frontend and the shared ORAM scheduler.

``repro serve`` is an event-driven wall-clock program; the ORAM stack is
a deterministic simulated-cycle machine.  :class:`OramServeBridge` is the
single point where the two meet: it owns the configured controller plus
the shared :class:`~repro.system.timing.RequestScheduler`, serializes all
client requests into one total access order, and advances the simulated
clock access by access.  Because the bridge is the *only* writer of ORAM
state, the cycle-domain behaviour is a pure function of the admitted
request sequence — which is what makes the serve path checkpointable and
crash-restorable bit-identically (DESIGN.md §10).

Timing-protection composes unchanged: with it enabled, the scheduler
fires the owed dummy slots between launches exactly as in batch runs, so
the adversary-visible path sequence keeps the constant-rate shape under
real concurrency.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.events import EventBus
from repro.oram.tiny import Observer
from repro.serialize import stable_hash
from repro.system.backend import build_oram_controller
from repro.system.config import SystemConfig
from repro.system.timing import RequestScheduler


@dataclass(slots=True)
class ServedAccess:
    """What one bridged ORAM access reports back to the server.

    Attributes:
        addr: ORAM (session-mapped) address served.
        op: ``"read"`` or ``"write"``.
        served_from: Serving source (``stash``/``shadow_stash``/``path``/
            ``shadow_path``/``treetop``).
        latency_cycles: Ready-to-data-ready latency in simulated cycles
            (includes any controller-busy / timing-protection slot wait).
        finish: Simulated cycle the controller freed up.
        value: Payload returned on a read (JSON-safe rendering).
        path_accesses: Full path accesses spent (0 for on-chip serves).
    """

    addr: int
    op: str
    served_from: str | None
    latency_cycles: float
    finish: float
    value: object
    path_accesses: int


class OramServeBridge:
    """Serialized, deterministic ORAM access engine for the server.

    Args:
        config: Full-system configuration (must not be ``insecure`` —
            serving is about the ORAM path).
        seed: Controller RNG seed.
        bus: Observability bus (span/metrics emission as in batch runs).
        observer: Adversary-view callback ``(kind, leaf, time)``.

    Attributes:
        served: Total accesses applied.
        clock: Simulated cycle count; the next access becomes ready here.
    """

    def __init__(
        self,
        config: SystemConfig,
        seed: int,
        bus: EventBus | None = None,
        observer: Observer | None = None,
    ) -> None:
        if config.insecure:
            raise ValueError("repro serve fronts the ORAM; "
                             "the insecure baseline has nothing to serve")
        self.config = config
        self.seed = seed
        self.bus = bus if bus is not None else EventBus()
        self.controller = build_oram_controller(
            config, seed, bus=self.bus, observer=observer
        )
        self.scheduler = RequestScheduler(
            self.controller, config.timing, bus=self.bus
        )
        self.clock = 0.0
        self.served = 0

    # ------------------------------------------------------------------
    def access(self, addr: int, op: str, payload: object = None) -> ServedAccess:
        """Apply one request to the ORAM; advances the simulated clock."""
        controller = self.controller
        ready = self.clock
        if controller.peek_onchip(addr, op):
            result = controller.access(addr, op, payload=payload, now=ready)
        else:
            launch = self.scheduler.launch_real(ready)
            result = controller.access(addr, op, payload=payload, now=launch)
            if result.path_accesses > 0:
                self.scheduler.complete_real(launch, result.finish)
        data_ready = (
            result.data_ready if result.data_ready is not None else result.finish
        )
        self.clock = max(self.clock, result.finish)
        self.served += 1
        return ServedAccess(
            addr=addr,
            op=op,
            served_from=result.served_from,
            latency_cycles=data_ready - ready,
            finish=result.finish,
            value=result.value,
            path_accesses=result.path_accesses,
        )

    # ------------------------------------------------------------------
    # Durability: the serve-path extension of the checkpoint contract
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict[str, object]:
        """Full bridged state: controller + scheduler + serve cursors."""
        return {
            "served": self.served,
            "clock": self.clock,
            "scheduler": self.scheduler.snapshot_state(),
            "controller": self.controller.snapshot_state(),
        }

    def restore_state(self, state: dict[str, object]) -> None:
        """Inverse of :meth:`snapshot_state`."""
        self.served = int(state["served"])
        self.clock = float(state["clock"])
        self.scheduler.restore_state(state["scheduler"])
        self.controller.restore_state(state["controller"])

    def state_digest(self) -> str:
        """Hex digest of the full bridged state.

        Two bridges that served the same access sequence — whether in one
        uninterrupted process or across a crash + ``--restore`` — report
        the same digest; this is the bit-identity witness the serve tests
        and the protocol's ``digest`` message expose.
        """
        return stable_hash(self.snapshot_state())
