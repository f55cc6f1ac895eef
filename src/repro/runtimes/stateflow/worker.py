"""A StateFlow worker: one core executing operator partitions.

Workers own partitions of every operator (partitioning by entity key):
each worker holds its own slice (the hash slots it owns) of the
:class:`~repro.runtimes.state.PartitionedStore`, executes state-machine
blocks against the transaction's
:class:`~repro.runtimes.stateflow.aria_view.AriaStateView`, and
exchanges events over direct channels — the "internal function-to-function
communication" that lets StateFlow avoid Kafka round trips (Section 4).
Commit-phase ``apply_writes`` therefore only ever touches the owning
worker's slots.

The worker owns its modelled hops: every event delivered to it, every
commit bucket and single-key group sent to it, and every report, ack
and single-key result it sends back crosses the simulated
:class:`~repro.substrates.network.Network` in its methods, with the
same ``src``/``dst`` labels fault plans scope partitions by.  The
runtime's hooks call a worker directly, so on the process substrate
(:mod:`~repro.runtimes.stateflow.procworker`) the pipe is the only hop.
"""

from __future__ import annotations

from typing import Any, Callable

from ...ir.events import Event, EventKind
from ...substrates.costs import cost_profile
from ...substrates.network import Network
from ...substrates.simulation import CpuPool, Simulation
from ..executor import OperatorExecutor
from ..state import PartitionedStore, StateBackend
from .aria_view import AriaStateView


class Worker:
    """One single-core StateFlow worker."""

    def __init__(self, index: int, sim: Simulation,
                 executor: OperatorExecutor, committed: PartitionedStore,
                 emit: Callable[[Event], None], network: Network):
        self.index = index
        self.name = f"worker-{index}"
        self.sim = sim
        self.cpu = CpuPool(sim, 1, name=self.name)
        self.alive = True
        #: Retired workers left the cluster through a rescale: they stay
        #: dead across recoveries (``restart`` skips them) until a later
        #: grow revives them.
        self.retired = False
        #: Bumped by every :meth:`restart` (i.e. every coordinator
        #: ``recover()``): store-mutating messages carry the incarnation
        #: they were addressed to, so a delivery delayed past a recovery
        #: cannot land on the restored store and double-apply a batch
        #: that replay is about to re-execute.  Slot-migration messages
        #: ride the same fence: an install delayed past a recovery (or a
        #: superseded rescale attempt) must not clobber restored state.
        self.incarnation = 0
        self.events_processed = 0
        self.writes_applied = 0
        self.slots_captured = 0
        self.slots_installed = 0
        #: Execution-phase deliveries dropped because their batch's
        #: pinned snapshot view was already released (batch abandoned by
        #: a recovery while the event was in flight).
        self.stale_executions_dropped = 0
        self._executor = executor
        #: This worker's own partition of committed state (it is the only
        #: writer; the coordinator only touches it for snapshot/restore).
        self.store = committed.partition(index)
        #: Read-only view of the whole committed store for Aria's
        #: execution phase.  Routing sends every keyed event to its
        #: owner, so reads stay local in practice — but constructors
        #: execute before their key (hence owner) is known, and their
        #: duplicate-key check must see all partitions.
        self._committed_reader = committed
        self._emit = emit
        #: The modelled fabric every message to or from this worker
        #: crosses (see the module docstring).
        self._network = network
        costs = cost_profile(sim)
        self._exec_service_ms = costs.exec_service_ms
        self._state_op_ms = costs.state_op_ms

    # ------------------------------------------------------------------
    def _committed_view(self, event: Event) -> StateBackend | None:
        """The committed-state window for *event*'s execution: the live
        reader, unless the event's batch was sealed while an older batch
        was still committing — then reads go through the version-pinned
        view of the batch's snapshot (``txn.base``), so mid-flight
        commit-phase writes of older batches stay invisible.  ``None``
        means the pinned view is gone (the batch was abandoned by a
        recovery and its pins released): the event is stale and must be
        dropped, not executed against torn state."""
        txn = event.txn
        if txn is None or txn.base is None:
            return self._committed_reader
        return self._committed_reader.view(txn.base)

    def deliver(self, event: Event, src: str = "coordinator") -> None:
        """An event sent to this worker by *src* over a direct channel:
        it arrives one modelled hop later.  Dead workers drop everything
        on arrival (the failure model)."""
        self._network.send(lambda: self._arrive(event),
                           src=src, dst=self.name)

    def _arrive(self, event: Event) -> None:
        if not self.alive:
            return

        def process() -> None:
            if not self.alive:
                return
            reader = self._committed_view(event)
            if reader is None:
                self.stale_executions_dropped += 1
                return
            self.events_processed += 1
            view = AriaStateView(reader, event.txn)
            for outbound in self._executor.handle(event, view):
                if outbound.kind is EventKind.REPLY:
                    # A transaction's root reply reports to the
                    # coordinator, one hop away.
                    self._to_coordinator(
                        lambda reply=outbound: self._emit(reply))
                else:
                    self._emit(outbound)

        self.cpu.submit(self._exec_service_ms, process)

    def _to_coordinator(self, callback: Callable[[], None]) -> None:
        self._network.send(callback, src=self.name, dst="coordinator")

    # ------------------------------------------------------------------
    def execute_single_key(self, events: list[Event],
                           on_done: Callable[[list[Event]], None],
                           *, incarnation: int | None = None) -> None:
        """Single-key phase: run *events* serially, in the given
        (TID) order, directly against committed state.  Single-key
        functions have unsplit state machines, so each produces exactly
        one REPLY and touches only its own partition — no reservations,
        no cross-worker traffic.  The events arrive one hop from the
        coordinator, addressed to *incarnation* (the current one if
        omitted), and the replies travel one hop back."""
        token = self.incarnation if incarnation is None else incarnation
        self._network.send(
            lambda: self._execute_single_key(
                events,
                lambda replies: self._to_coordinator(
                    lambda: on_done(replies)),
                token),
            src="coordinator", dst=self.name)

    def _execute_single_key(self, events: list[Event],
                            on_done: Callable[[list[Event]], None],
                            incarnation: int) -> None:
        if not self.alive or incarnation != self.incarnation:
            return  # dead, or addressed to a pre-recovery incarnation

        def process() -> None:
            if not self.alive or incarnation != self.incarnation:
                return
            replies: list[Event] = []
            for event in events:
                self.events_processed += 1
                replies.extend(self._executor.handle(event, self.store))
            on_done(replies)

        self.cpu.submit(self._exec_service_ms * max(len(events), 1), process)

    # ------------------------------------------------------------------
    def apply_writes(self, writes: dict[tuple[str, Any], dict[str, Any]],
                     on_done: Callable[[], None],
                     *, incarnation: int | None = None) -> None:
        """Commit phase: install a batch's write sets for the partitions
        this worker owns — only this worker's slots are touched.  The
        bucket arrives one hop from the coordinator, addressed to
        *incarnation* (the current one if omitted), and the ack travels
        one hop back."""
        token = self.incarnation if incarnation is None else incarnation
        self._network.send(
            lambda: self._apply_writes(
                writes, lambda: self._to_coordinator(on_done), token),
            src="coordinator", dst=self.name)

    def _apply_writes(self, writes: dict[tuple[str, Any], dict[str, Any]],
                      on_done: Callable[[], None], incarnation: int) -> None:
        if not self.alive or incarnation != self.incarnation:
            return  # dead, or addressed to a pre-recovery incarnation

        def install() -> None:
            if not self.alive or incarnation != self.incarnation:
                return
            self.store.apply_writes(writes)
            self.writes_applied += len(writes)
            on_done()

        self.cpu.submit(self._state_op_ms * max(len(writes), 1), install)

    def unacked_since(self) -> None:
        """Never a bucket awaiting its ack: the ack is part of the
        commit here."""
        return None

    # ------------------------------------------------------------------
    def _migration_cost_ms(self, slot: int) -> float:
        """*Modelled* CPU to capture/install one slot: O(keys).  The
        real capture copies no entry (one reference per key; only the
        install copies in), but the virtual clock charges this model,
        and the committed trace digests are built on it — a cheaper
        model is a behaviour change."""
        return self._state_op_ms * max(len(self.store.slot_backend(slot)), 1)

    def capture_slot(self, slot: int, on_done: Callable[[Any], None],
                     *, incarnation: int | None = None) -> None:
        """Migration source side: snapshot one owned slot and hand the
        fragment to *on_done* (the runtime ships it to the new owner).
        Runs under the coordinator's rescale barrier, so the slot is
        quiescent while it is captured."""
        if not self.alive:
            return
        if incarnation is not None and incarnation != self.incarnation:
            return  # addressed to a pre-recovery incarnation
        token = self.incarnation

        def capture() -> None:
            if not self.alive or token != self.incarnation:
                return
            self.slots_captured += 1
            on_done(self.store.capture_slot(slot))

        self.cpu.submit(self._migration_cost_ms(slot), capture)

    def install_slot(self, slot: int, fragment: Any,
                     on_done: Callable[[], None],
                     *, incarnation: int | None = None) -> None:
        """Migration destination side: restore the shipped fragment into
        the slot and ack.  The incarnation fence drops installs delayed
        past a recovery (their fragment predates the restored state)."""
        if not self.alive:
            return
        if incarnation is not None and incarnation != self.incarnation:
            return
        token = self.incarnation

        def install() -> None:
            if not self.alive or token != self.incarnation:
                return
            self.store.install_slot(slot, fragment)
            self.slots_installed += 1
            on_done()

        self.cpu.submit(self._migration_cost_ms(slot), install)

    # -- failure model ------------------------------------------------------
    def kill(self) -> None:
        self.alive = False

    def restart(self) -> None:
        self.alive = not self.retired
        self.incarnation += 1

    # -- elasticity ---------------------------------------------------------
    def retire(self) -> None:
        """Leave the cluster (rescale shrink): permanently dead until a
        later grow calls :meth:`revive`."""
        self.retired = True
        self.alive = False

    def revive(self) -> None:
        """Rejoin the cluster (rescale grow after an earlier shrink)."""
        if not self.retired:
            return
        self.retired = False
        self.alive = True
        self.incarnation += 1
