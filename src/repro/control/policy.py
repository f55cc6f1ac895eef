"""Hysteresis autoscaling policy: windowed load -> rescale decisions.

The controller closes the loop the paper leaves open ("cloud elasticity"
without an operator): every control tick it receives one
:class:`~repro.control.metrics.WindowSample` and may answer with one
:class:`AutoscaleDecision`, which the coordinator turns into a
``request_rescale`` at the next drained batch boundary.

Three guards keep the loop stable:

- **hysteresis** — a scale-up needs ``saturated_samples`` *consecutive*
  saturated windows, a scale-down ``idle_samples`` consecutive idle
  ones; a single noisy window resets the streak;
- **cooldown** — after any decision the controller stays silent for
  ``cooldown_ms``, long enough for the rescale to commit and the new
  capacity to show up in the windows it judges;
- **busy suppression** — while a rescale is queued or migrating the
  controller keeps sampling (streaks still accumulate) but issues
  nothing, so decisions never pile up behind the barrier.

Hot-slot handling: a zipfian head concentrates traffic on one slot; when
that slot carries more than ``HOT_SLOT_SHARE`` of a window's commits for
``saturated_samples`` consecutive windows, the controller issues a
``split`` (grow the cluster by one worker — the minimal-movement
``SlotAssignment`` rebalance peels slots, the hot one included, onto the
new worker).  Keys above ``HOT_KEY_SHARE`` are tracked in
``controller.hot_keys`` so the runtime can route their single-key
transactions through the Aria fast path and account them as
``single_key_hot``.

Pure protocol logic: no clocks, no runtime imports, fully deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Hashable

from .metrics import MetricsSampler, WindowSample

Key = tuple[str, Hashable]

#: Coordinator backlog that marks a window saturated regardless of its
#: commit rate (the cluster is behind even if it commits fast).
HIGH_QUEUE_DEPTH = 400
#: The controller never scales below this many workers.
MIN_WORKERS = 1
#: A slot carrying more than this share of a window's commits is hot
#: (checked only above ``HOT_MIN_COMMITTED`` commits).
HOT_SLOT_SHARE = 0.25
#: A key carrying more than this share of a window's commits is hot —
#: routed/accounted via the single-key fast path.
HOT_KEY_SHARE = 0.10
#: Minimum commits in a window before shares mean anything.
HOT_MIN_COMMITTED = 32


@dataclass(slots=True)
class AutoscalePolicy:
    """Knobs for the closed-loop controller (documented in README)."""

    #: Control-tick period; each tick produces one window sample.
    sample_interval_ms: float = 100.0
    #: Per-worker committed-txn rate above which a window is saturated.
    high_txns_per_worker_s: float = 2_000.0
    #: Per-worker committed-txn rate below which a window is idle.
    low_txns_per_worker_s: float = 200.0
    #: Consecutive saturated windows before a scale-up/split fires.
    saturated_samples: int = 3
    #: Consecutive idle windows before a scale-down fires (deliberately
    #: laggier than scale-up: spare capacity is cheap, thrash is not).
    idle_samples: int = 8
    #: Quiet period after any decision.
    cooldown_ms: float = 600.0
    max_workers: int = 16
    #: Sizing target: scale-up picks ``ceil(rate / this)`` workers.
    target_txns_per_worker_s: float = 1_200.0


@dataclass(slots=True)
class AutoscaleDecision:
    """One autonomous decision, as recorded in ``decision_log``."""

    at_ms: float
    #: "scale_up" | "scale_down" | "split_hot_slot"
    kind: str
    from_workers: int
    to_workers: int
    reason: str
    hot_slot: int | None = None

    def as_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "at_ms": round(self.at_ms, 3), "kind": self.kind,
            "from_workers": self.from_workers,
            "to_workers": self.to_workers, "reason": self.reason}
        if self.hot_slot is not None:
            payload["hot_slot"] = self.hot_slot
        return payload


class AutoscaleController:
    """Sampler + policy + streak state; one instance per runtime."""

    def __init__(self, policy: AutoscalePolicy | None = None) -> None:
        self.policy = policy or AutoscalePolicy()
        self.sampler = MetricsSampler()
        self.decision_log: list[AutoscaleDecision] = []
        self.samples_taken = 0
        #: Keys currently classified hot (refreshed every window).
        self.hot_keys: frozenset[Key] = frozenset()
        self._saturated_streak = 0
        self._idle_streak = 0
        self._hot_streak = 0
        self._hot_slot: int | None = None
        self._last_decision_at: float | None = None

    # -- classification ------------------------------------------------

    def is_hot_key(self, entity: str, key: Hashable) -> bool:
        return (entity, key) in self.hot_keys

    def _classify(self, sample: WindowSample) -> tuple[bool, bool]:
        policy = self.policy
        saturated = (
            sample.per_worker_rate_s >= policy.high_txns_per_worker_s
            or sample.queue_depth >= HIGH_QUEUE_DEPTH)
        idle = (sample.per_worker_rate_s <= policy.low_txns_per_worker_s
                and sample.queue_depth == 0
                and sample.workers > MIN_WORKERS)
        return saturated, idle

    def _hot_slot_of(self, sample: WindowSample) -> int | None:
        if sample.committed < HOT_MIN_COMMITTED:
            return None
        hottest = sample.hottest_slot
        if hottest is None or hottest[1] < HOT_SLOT_SHARE:
            return None
        return hottest[0]

    def _refresh_hot_keys(self, sample: WindowSample) -> None:
        if sample.committed < HOT_MIN_COMMITTED:
            return  # keep the previous classification over a trickle
        self.hot_keys = frozenset(
            key for key, share in sample.key_shares
            if share >= HOT_KEY_SHARE)

    # -- the control loop ----------------------------------------------

    def observe(self, *, now_ms: float, stats: Any, queue_depth: int,
                workers: int, busy: bool = False,
                slot_owner: Any = None) -> AutoscaleDecision | None:
        """One control tick: sample the window, maybe decide."""
        sample = self.sampler.sample(
            now_ms=now_ms, stats=stats, queue_depth=queue_depth,
            workers=workers, slot_owner=slot_owner)
        self.samples_taken += 1
        return self.decide(sample, busy=busy)

    def decide(self, sample: WindowSample, *,
               busy: bool = False) -> AutoscaleDecision | None:
        """Judge one window.  Streaks advance even while ``busy`` or in
        cooldown — suppression delays a decision, it does not forget the
        evidence."""
        policy = self.policy
        self._refresh_hot_keys(sample)
        saturated, idle = self._classify(sample)
        self._saturated_streak = self._saturated_streak + 1 if saturated else 0
        self._idle_streak = self._idle_streak + 1 if idle else 0
        hot_slot = self._hot_slot_of(sample)
        if hot_slot is not None and hot_slot == self._hot_slot:
            self._hot_streak += 1
        else:
            self._hot_streak = 1 if hot_slot is not None else 0
        self._hot_slot = hot_slot

        if busy:
            return None
        if (self._last_decision_at is not None
                and sample.at_ms - self._last_decision_at
                < policy.cooldown_ms):
            return None

        decision: AutoscaleDecision | None = None
        if (self._saturated_streak >= policy.saturated_samples
                and sample.workers < policy.max_workers):
            target = max(
                sample.workers + 1,
                math.ceil(sample.txn_rate_s
                          / policy.target_txns_per_worker_s))
            target = min(target, policy.max_workers)
            decision = AutoscaleDecision(
                at_ms=sample.at_ms, kind="scale_up",
                from_workers=sample.workers, to_workers=target,
                reason=(f"saturated {self._saturated_streak} windows: "
                        f"{sample.per_worker_rate_s:.0f} txn/s/worker, "
                        f"queue {sample.queue_depth}"))
        elif (self._hot_streak >= policy.saturated_samples
                and sample.workers < policy.max_workers):
            share = dict(sample.slot_shares).get(self._hot_slot, 0.0)
            decision = AutoscaleDecision(
                at_ms=sample.at_ms, kind="split_hot_slot",
                from_workers=sample.workers,
                to_workers=sample.workers + 1,
                reason=(f"slot {self._hot_slot} carried "
                        f"{share:.0%} of {sample.committed} commits "
                        f"for {self._hot_streak} windows"),
                hot_slot=self._hot_slot)
        elif (self._idle_streak >= policy.idle_samples
                and sample.workers > MIN_WORKERS):
            target = max(
                MIN_WORKERS,
                min(sample.workers - 1,
                    math.ceil(sample.txn_rate_s
                              / policy.target_txns_per_worker_s)))
            decision = AutoscaleDecision(
                at_ms=sample.at_ms, kind="scale_down",
                from_workers=sample.workers, to_workers=target,
                reason=(f"idle {self._idle_streak} windows: "
                        f"{sample.per_worker_rate_s:.0f} txn/s/worker"))

        if decision is not None:
            self._last_decision_at = sample.at_ms
            self._saturated_streak = 0
            self._idle_streak = 0
            self._hot_streak = 0
            self.decision_log.append(decision)
        return decision

    def decision_signature(self) -> tuple[tuple[Any, ...], ...]:
        """A hashable trace of every decision, for determinism tests."""
        return tuple(
            (d.at_ms, d.kind, d.from_workers, d.to_workers, d.hot_slot)
            for d in self.decision_log)
