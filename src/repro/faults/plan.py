"""Declarative fault plans: *what* goes wrong, *when*, reproducibly.

A :class:`FaultPlan` is a seed plus a schedule of :class:`FaultEvent`\\ s
on the simulation clock.  The same (plan, runtime seed) pair always
produces the same run — every probabilistic choice the injector makes is
drawn from a private ``random.Random(plan.seed)``, never from wall
clock or global state — so any failing chaos run is replayable from two
integers and a JSON file (FoundationDB-style simulation testing).

Fault taxonomy
==============

``messages``
    A time window during which message-level faults are active on one
    channel (``network`` = inter-node sends, ``kafka`` = broker produce
    and fetch, ``all`` = both), governed by a
    :class:`MessageFaultProfile`: per-message drop / duplicate / delay
    probabilities.  Network drops are recoverable on StateFlow (the
    watchdog detects the stalled batch and replays from the snapshot);
    Kafka is modelled as durable, so its "drops" surface as retried
    (duplicated/delayed) deliveries, never loss.

``crash_worker``
    Fail-stop one StateFlow worker.  It drops everything until the
    coordinator's recovery restores the latest snapshot and restarts it.

``crash_coordinator``
    Fail-stop the coordinator, losing all volatile sequencing state;
    after ``duration_ms`` a standby takes over and recovers from the
    latest completed snapshot (fail-over).

``partition``
    Cut the ``isolate`` nodes (names like ``"worker-2"`` or
    ``"coordinator"``) off from the rest of the cluster for
    ``duration_ms``: every network message into or out of the isolated
    set is dropped until the partition heals.

``rescale``
    Ask the runtime to rescale to ``target_workers`` workers at the next
    batch boundary.  Not a fault per se: it is the one schedule of
    elastic resizes, so one plan can interleave rescales with crashes
    and partitions (rescale-under-chaos), and :func:`staged_plan` builds
    the evenly spaced ones.  Events with equal ``at_ms`` run in list
    order; the coordinator clamps a target to ``[1, slots]``.

Runtimes without processes (Local) or without a coordinator (StateFun)
apply the message-level subset only; process events are counted as
skipped, never errors — one plan can drive all three runtimes.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Iterable

#: Channel names a ``messages`` window may target.
CHANNELS = ("network", "kafka", "all")

#: Event kinds (see module docstring for semantics).
KINDS = ("messages", "crash_worker", "crash_coordinator", "partition",
         "rescale")


class FaultPlanError(ValueError):
    """Malformed plan (unknown kind, bad probability, ...)."""


@dataclass(slots=True)
class MessageFaultProfile:
    """Per-message fault probabilities inside a ``messages`` window.

    ``delay_ms`` is the mean of the exponential delay spike added when a
    message is selected for delay; spikes larger than the gap between
    messages reorder them, so a separate reorder knob is unnecessary.
    """

    drop_p: float = 0.0
    duplicate_p: float = 0.0
    delay_p: float = 0.0
    delay_ms: float = 10.0

    def validate(self) -> None:
        for name in ("drop_p", "duplicate_p", "delay_p"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise FaultPlanError(
                    f"{name} must be a probability, got {value}")
        if self.delay_ms < 0:
            raise FaultPlanError(f"delay_ms must be >= 0, got {self.delay_ms}")


@dataclass(slots=True)
class FaultEvent:
    """One scheduled fault (see the module-level taxonomy)."""

    kind: str
    at_ms: float
    #: ``messages`` / ``crash_coordinator`` / ``partition``: how long the
    #: window (or the coordinator outage before fail-over) lasts.
    duration_ms: float = 0.0
    #: ``crash_worker``: which worker dies.
    worker: int = 0
    #: ``messages``: which channel the profile applies to.
    channel: str = "network"
    profile: MessageFaultProfile = field(default_factory=MessageFaultProfile)
    #: ``partition``: node names cut off from everyone else.
    isolate: tuple[str, ...] = ()
    #: ``rescale``: target worker count.
    target_workers: int = 0

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise FaultPlanError(f"unknown fault kind {self.kind!r}")
        if self.at_ms < 0:
            raise FaultPlanError(f"at_ms must be >= 0, got {self.at_ms}")
        if self.duration_ms < 0:
            raise FaultPlanError(
                f"duration_ms must be >= 0, got {self.duration_ms}")
        if self.kind == "messages":
            if self.channel not in CHANNELS:
                raise FaultPlanError(f"unknown channel {self.channel!r}")
            self.profile.validate()
        if self.kind == "partition" and not self.isolate:
            raise FaultPlanError("partition event isolates no nodes")
        if self.kind == "rescale" and self.target_workers < 1:
            raise FaultPlanError(
                f"rescale needs target_workers >= 1, "
                f"got {self.target_workers}")

    @property
    def until_ms(self) -> float:
        return self.at_ms + self.duration_ms


@dataclass(slots=True)
class FaultPlan:
    """A seed plus a schedule of fault events."""

    seed: int = 0
    events: list[FaultEvent] = field(default_factory=list)
    name: str = ""

    def validate(self) -> "FaultPlan":
        for event in self.events:
            event.validate()
        return self

    # -- serde ---------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {"seed": self.seed, "name": self.name,
                "events": [asdict(event) for event in self.events]}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FaultPlan":
        events = []
        for raw in data.get("events", []):
            raw = dict(raw)
            profile = MessageFaultProfile(**raw.pop("profile", {}))
            raw["isolate"] = tuple(raw.get("isolate", ()))
            events.append(FaultEvent(profile=profile, **raw))
        return cls(seed=int(data.get("seed", 0)), events=events,
                   name=data.get("name", "")).validate()

    def to_json(self, path: str | Path | None = None) -> str:
        document = json.dumps(self.to_dict(), indent=2)
        if path is not None:
            Path(path).write_text(document + "\n", encoding="utf-8")
        return document

    @classmethod
    def from_json(cls, source: str | Path) -> "FaultPlan":
        """Parse a plan from JSON text, or from a file when *source* is a
        path (a :class:`Path` or a string not starting with ``{``)."""
        text = str(source)
        if isinstance(source, Path) or not text.lstrip().startswith("{"):
            text = Path(text).read_text(encoding="utf-8")
        return cls.from_dict(json.loads(text))


#: Per-intensity message-fault probabilities used by :func:`random_plan`.
INTENSITIES: dict[str, dict[str, float]] = {
    "light": {"drop_p": 0.01, "duplicate_p": 0.01, "delay_p": 0.05,
              "delay_ms": 5.0},
    "medium": {"drop_p": 0.03, "duplicate_p": 0.03, "delay_p": 0.10,
               "delay_ms": 15.0},
    "heavy": {"drop_p": 0.08, "duplicate_p": 0.05, "delay_p": 0.20,
              "delay_ms": 40.0},
}


def random_plan(seed: int, *, duration_ms: float = 5_000.0,
                workers: int = 5, intensity: str = "medium",
                process_faults: bool = True,
                coordinator_faults: bool = False,
                rescales: int = 0) -> FaultPlan:
    """Generate a reproducible random plan: seed in, same schedule out.

    The schedule mixes one network-fault window, one kafka-fault window
    (duplication/delay only — the log is durable), and, when
    ``process_faults`` is set, worker crashes and a short partition;
    ``coordinator_faults`` adds a coordinator fail-over and ``rescales``
    sprinkles that many elastic resizes (targets drawn around the
    starting worker count) through the same window — the combined
    rescale-under-chaos schedule.  All times land inside
    ``[0.1, 0.8] * duration_ms`` so the tail of the run can drain.
    """
    if intensity not in INTENSITIES:
        raise FaultPlanError(f"unknown intensity {intensity!r}; "
                             f"choose from {sorted(INTENSITIES)}")
    rng = random.Random(seed)
    knobs = INTENSITIES[intensity]
    horizon = duration_ms * 0.8
    events: list[FaultEvent] = []

    start = rng.uniform(0.1, 0.4) * duration_ms
    events.append(FaultEvent(
        kind="messages", at_ms=round(start, 3),
        duration_ms=round(rng.uniform(0.15, 0.35) * duration_ms, 3),
        channel="network", profile=MessageFaultProfile(**knobs)))
    start = rng.uniform(0.1, 0.5) * duration_ms
    events.append(FaultEvent(
        kind="messages", at_ms=round(start, 3),
        duration_ms=round(rng.uniform(0.1, 0.3) * duration_ms, 3),
        channel="kafka",
        profile=MessageFaultProfile(drop_p=0.0,
                                    duplicate_p=knobs["duplicate_p"],
                                    delay_p=knobs["delay_p"],
                                    delay_ms=knobs["delay_ms"])))
    if process_faults:
        for _ in range(rng.randint(1, 2)):
            events.append(FaultEvent(
                kind="crash_worker",
                at_ms=round(rng.uniform(0.15, 1.0) * horizon, 3),
                worker=rng.randrange(max(workers, 1))))
        if rng.random() < 0.5:
            events.append(FaultEvent(
                kind="partition",
                at_ms=round(rng.uniform(0.15, 1.0) * horizon, 3),
                duration_ms=round(rng.uniform(0.05, 0.15) * duration_ms, 3),
                isolate=(f"worker-{rng.randrange(max(workers, 1))}",)))
    if coordinator_faults:
        events.append(FaultEvent(
            kind="crash_coordinator",
            at_ms=round(rng.uniform(0.3, 1.0) * horizon, 3),
            duration_ms=round(rng.uniform(0.05, 0.1) * duration_ms, 3)))
    for _ in range(rescales):
        events.append(FaultEvent(
            kind="rescale",
            at_ms=round(rng.uniform(0.1, 1.0) * horizon, 3),
            target_workers=rng.randint(max(workers - 2, 1), workers + 2)))
    events.sort(key=lambda event: event.at_ms)
    return FaultPlan(seed=seed, events=events,
                     name=f"random-{intensity}-{seed}").validate()


def staged_plan(targets: Iterable[int], *, start_ms: float = 1_000.0,
                interval_ms: float = 1_000.0,
                faults: FaultPlan | None = None) -> FaultPlan:
    """Evenly spaced ``rescale`` events through *targets*, named after
    them (``(4, 3)`` from a 2-worker start is the canonical
    2 -> 4 -> 3 scenario, ``staged-4-3``).  With *faults*, the staged
    events come first, then that plan's events under its seed: one
    schedule for the resizes and the chaos."""
    targets = tuple(targets)
    events = [FaultEvent(kind="rescale",
                         at_ms=round(start_ms + index * interval_ms, 3),
                         target_workers=workers)
              for index, workers in enumerate(targets)]
    faults = faults or FaultPlan()
    return FaultPlan(seed=faults.seed, events=events + faults.events,
                     name="staged-" + "-".join(map(str, targets))).validate()
