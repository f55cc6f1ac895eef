"""The ledger's own load generator: keys, operation mix and absolute
arrival times, all derived from ``--seed`` and nothing else.

It imports nothing from ``repro``: the program under test receives only
the generated requests.  A reference to another entity is a plain
:class:`Ref`; the driver turns it into the program's ``EntityRef`` at
submit time.
"""

from __future__ import annotations

import random
from typing import Any, NamedTuple

INITIAL_BALANCE = 1_000_000
INITIAL_STOCK = 1_000_000
INITIAL_FUNDS = 10 ** 12
LINES_PER_CART = 4


class Ref(NamedTuple):
    entity: str
    key: str


class Request(NamedTuple):
    #: Due time on the workload's clock, ms since the load phase began.
    at_ms: float
    target: Ref
    method: str
    args: tuple


class Zipfian:
    """Gray's rejection-free zipfian over ``[0, n)``, rank 0 hottest
    (the YCSB generator; valid for 0 < theta < 1)."""

    def __init__(self, n: int, theta: float, rng: random.Random):
        self._n = n
        self._theta = theta
        self._rng = rng
        self._zetan = sum(1.0 / i ** theta for i in range(1, n + 1))
        zeta2 = 1.0 + 0.5 ** theta
        self._alpha = 1.0 / (1.0 - theta)
        self._eta = ((1 - (2.0 / n) ** (1 - theta))
                     / (1 - zeta2 / self._zetan))

    def next(self) -> int:
        u = self._rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** self._theta:
            return 1
        rank = int(self._n * (self._eta * u - self._eta + 1) ** self._alpha)
        return min(rank, self._n - 1)


def account_key(index: int) -> str:
    return f"acct-{index:06d}"


def account_rows(keys: int) -> list[tuple[str, int]]:
    return [(account_key(i), INITIAL_BALANCE) for i in range(keys)]


def arrivals(rng: random.Random, rate_per_s: float, count: int,
             burst: int = 1) -> list[float]:
    """Absolute open-loop arrival times (ms), so a late generator can
    never thin the schedule.  ``burst`` 1 is a Poisson stream:
    exponential gaps summed, then stretched so the last request is due
    at exactly ``count / rate`` seconds.  The program cuts a snapshot
    every 500 virtual ms, and on a run that ends near a tick the seed
    would otherwise decide whether one more cut (a deep copy of the
    whole store) falls inside it.  A larger burst sends that many
    requests at one instant, every ``burst / rate`` seconds."""
    if burst > 1:
        period_ms = burst / rate_per_s * 1000.0
        return [1.0 + (i // burst) * period_ms for i in range(count)]
    at_ms, out = 0.0, []
    for _ in range(count):
        at_ms += rng.expovariate(rate_per_s)
        out.append(at_ms)
    stretch = count / rate_per_s * 1000.0 / at_ms
    return [at * stretch for at in out]


def ycsb_requests(seed: int, *, mix: str, zipf_theta: float | None,
                  keys: int, rate_per_s: float, count: int,
                  burst: int = 1) -> list[Request]:
    """``mix`` "A" = 50 % read / 50 % update of one key; "T" = transfer
    between two distinct keys.  ``zipf_theta`` None = uniform keys."""
    rng = random.Random(seed)
    if zipf_theta is None:
        pick = lambda: rng.randrange(keys)  # noqa: E731
    else:
        pick = Zipfian(keys, zipf_theta, rng).next
    due = arrivals(random.Random(seed ^ 0x5EED), rate_per_s, count, burst)
    requests = []
    for number, at_ms in enumerate(due):
        target = Ref("Account", account_key(pick()))
        if mix == "T":
            other = pick()
            while account_key(other) == target.key:
                other = pick()
            requests.append(Request(at_ms, target, "transfer", (
                1, Ref("Account", account_key(other)))))
        elif rng.random() < 0.5:
            requests.append(Request(at_ms, target, "read", ()))
        else:
            requests.append(Request(at_ms, target, "write",
                                    (f"value-{number}",)))
    return requests


class CheckoutDataset(NamedTuple):
    products: list[tuple[str, int, int]]      # (sku, price, stock)
    wallets: list[tuple[str, int]]            # (owner, funds)
    #: cart id -> [(sku, quantity), ...]
    carts: dict[str, list[tuple[str, int]]]


def checkout_dataset(seed: int, size: int) -> CheckoutDataset:
    rng = random.Random(seed ^ 0xCA47)
    products = [(f"sku-{i:05d}", 1 + rng.randrange(200), INITIAL_STOCK)
                for i in range(size)]
    wallets = [(f"user-{i:05d}", INITIAL_FUNDS) for i in range(size)]
    carts = {}
    for i in range(size):
        lines = rng.sample(range(size), LINES_PER_CART)
        carts[f"cart-{i:05d}"] = [(products[p][0], 1 + rng.randrange(3))
                                  for p in lines]
    return CheckoutDataset(products, wallets, carts)


def checkout_requests(seed: int, *, size: int, rate_per_s: float,
                      count: int) -> list[Request]:
    rng = random.Random(seed)
    due = arrivals(random.Random(seed ^ 0x5EED), rate_per_s, count)
    return [Request(at_ms, Ref("Cart", f"cart-{rng.randrange(size):05d}"),
                    "checkout",
                    (Ref("Wallet", f"user-{rng.randrange(size):05d}"),))
            for at_ms in due]


def view_specs() -> list[dict[str, Any]]:
    """The six standing-view shapes (filtered count, sum, grouped sum,
    min, grouped max, top-10) as plain keyword dicts for ``ViewSpec``."""
    def rich(row: dict) -> bool:
        return row["balance"] >= INITIAL_BALANCE

    def bucket(row: dict) -> str:
        return row["account_id"][-1]

    return [
        dict(name="rich-count", entity="Account", kind="count", where=rich),
        dict(name="total-balance", entity="Account", kind="sum",
             field="balance"),
        dict(name="balance-by-bucket", entity="Account", kind="sum",
             field="balance", group_by=bucket),
        dict(name="min-balance", entity="Account", kind="min",
             field="balance"),
        dict(name="max-by-bucket", entity="Account", kind="max",
             field="balance", group_by=bucket),
        dict(name="top-10", entity="Account", kind="top_k",
             field="balance", k=10),
    ]
