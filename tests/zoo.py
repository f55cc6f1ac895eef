"""Shared test entities: the paper's Figure 1 shop, a control-flow zoo
with plain-Python oracle twins (for split-execution equivalence tests),
and helpers.

The zoo methods deliberately cover every splitting shape: straight-line
remote calls, remote calls nested in expressions, branches, for/while
loops with break/continue, early returns in local control flow, helper
self-calls, and in-method entity construction.  ``Reach`` reaches its
instance after a remote call by every route that does not spell
``self.<attr>``.
"""

from __future__ import annotations

from repro import entity, transactional

#: Module global that ``shadowed_global`` also assigns on one branch,
#: which makes the name local to the whole method.
LIMIT = 5

# ---------------------------------------------------------------------------
# Figure 1: the shop
# ---------------------------------------------------------------------------


@entity
class Item:
    def __init__(self, item_id: str, price: int):
        self.item_id: str = item_id
        self.stock: int = 0
        self.price_per_unit: int = price

    def __key__(self):
        return self.item_id

    def price(self) -> int:
        return self.price_per_unit

    def update_stock(self, amount: int) -> bool:
        self.stock += amount
        return self.stock >= 0


@entity
class User:
    def __init__(self, username: str):
        self.username: str = username
        self.balance: int = 100

    def __key__(self):
        return self.username

    @transactional
    def buy_item(self, amount: int, item: Item) -> bool:
        total_price: int = amount * item.price()
        if self.balance < total_price:
            return False
        available: bool = item.update_stock(-amount)
        if not available:
            item.update_stock(amount)
            return False
        self.balance -= total_price
        return True


# ---------------------------------------------------------------------------
# Control-flow zoo + oracles
# ---------------------------------------------------------------------------


@entity
class Counter:
    def __init__(self, cid: str):
        self.cid: str = cid
        self.value: int = 0

    def __key__(self):
        return self.cid

    def add(self, amount: int) -> int:
        self.value += amount
        return self.value

    def get(self) -> int:
        return self.value


@entity
class Zoo:
    def __init__(self, zid: str):
        self.zid: str = zid
        self.calls: int = 0

    def __key__(self):
        return self.zid

    def straight(self, c: Counter, x: int) -> int:
        a: int = c.add(x)
        b: int = c.add(x * 2)
        self.calls += 1
        return a + b

    def expr_nested(self, c: Counter, x: int) -> int:
        return x * c.add(1) + c.add(2)

    def branch(self, c: Counter, x: int) -> str:
        if x > 0:
            up: int = c.add(x)
            return "pos" + str(up)
        down: int = c.add(-x)
        return "neg" + str(down)

    def branch_else(self, c: Counter, x: int) -> int:
        if x % 2 == 0:
            even: int = c.add(10)
            result: int = even
        else:
            odd: int = c.add(20)
            result = odd * 2
        self.calls += 1
        return result + x

    def loop_for(self, c: Counter, n: int) -> int:
        total: int = 0
        for i in range(n):
            total += c.add(i)
        return total

    def loop_nested_if(self, c: Counter, n: int) -> int:
        total: int = 0
        for i in range(n):
            if i % 2 == 0:
                total += c.add(i)
            else:
                total -= 1
        return total

    def loop_while_break(self, c: Counter, n: int) -> int:
        i: int = 0
        total: int = 0
        while True:
            if i >= n:
                break
            v: int = c.add(1)
            if v % 3 == 0:
                i += 2
                continue
            total += v
            i += 1
        return total

    def local_only(self, x: int) -> int:
        if x < 0:
            return -1
        total = 0
        for i in range(x):
            if i % 2:
                continue
            total += i
        return total

    def helper_chain(self, c: Counter, x: int) -> int:
        doubled: int = self.double_add(c, x)
        return doubled + 1

    def double_add(self, c: Counter, x: int) -> int:
        r: int = c.add(x)
        return r * 2

    def constructs(self, name: str, x: int) -> int:
        fresh: Counter = Counter(name)
        r: int = fresh.add(x)
        return r

    def remote_in_condition(self, c: Counter, x: int) -> str:
        if c.add(x) > 5:
            return "big"
        return "small"

    def remote_in_while_condition(self, c: Counter, limit: int) -> int:
        rounds: int = 0
        while c.add(1) < limit:
            rounds += 1
        return rounds

    # -- scope rules across a suspension -----------------------------------
    def shadowed_global(self, c: Counter, x: int) -> int:
        c.add(1)
        if x > 3:
            LIMIT = 10
        return LIMIT

    def comprehension_after_call(self, c: Counter, x: int) -> int:
        scale: int = x + 1
        base: int = c.add(x)
        return sum([scale * i for i in range(base % 5)])

    def variable_named_locals(self, c: Counter, x: int) -> int:
        locals = x * 2
        got: int = c.add(x)
        return locals + got

    def deleted_before_call(self, c: Counter, x: int) -> int:
        scratch = x * 3
        keep = scratch + 1
        del scratch
        got: int = c.add(keep)
        if x % 4 == 0:
            return scratch
        return got + keep

    def deep_early_return(self, c: Counter, x: int) -> int:
        seen: int = c.add(x)
        for i in range(seen):
            if i % 2 == 1:
                if i * 3 > x:
                    return i
        return -1


# Plain-Python oracle twins (no decorators, direct execution) -----------------


class OracleCounter:
    def __init__(self, cid: str):
        self.cid = cid
        self.value = 0

    def add(self, amount: int) -> int:
        self.value += amount
        return self.value

    def get(self) -> int:
        return self.value


class OracleZoo:
    def __init__(self, zid: str):
        self.zid = zid
        self.calls = 0

    def straight(self, c, x):
        a = c.add(x)
        b = c.add(x * 2)
        self.calls += 1
        return a + b

    def expr_nested(self, c, x):
        return x * c.add(1) + c.add(2)

    def branch(self, c, x):
        if x > 0:
            up = c.add(x)
            return "pos" + str(up)
        down = c.add(-x)
        return "neg" + str(down)

    def branch_else(self, c, x):
        if x % 2 == 0:
            even = c.add(10)
            result = even
        else:
            odd = c.add(20)
            result = odd * 2
        self.calls += 1
        return result + x

    def loop_for(self, c, n):
        total = 0
        for i in range(n):
            total += c.add(i)
        return total

    def loop_nested_if(self, c, n):
        total = 0
        for i in range(n):
            if i % 2 == 0:
                total += c.add(i)
            else:
                total -= 1
        return total

    def loop_while_break(self, c, n):
        i = 0
        total = 0
        while True:
            if i >= n:
                break
            v = c.add(1)
            if v % 3 == 0:
                i += 2
                continue
            total += v
            i += 1
        return total

    def local_only(self, x):
        if x < 0:
            return -1
        total = 0
        for i in range(x):
            if i % 2:
                continue
            total += i
        return total

    def helper_chain(self, c, x):
        doubled = self.double_add(c, x)
        return doubled + 1

    def double_add(self, c, x):
        r = c.add(x)
        return r * 2

    def remote_in_condition(self, c, x):
        if c.add(x) > 5:
            return "big"
        return "small"

    def remote_in_while_condition(self, c, limit):
        rounds = 0
        while c.add(1) < limit:
            rounds += 1
        return rounds

    def shadowed_global(self, c, x):
        c.add(1)
        if x > 3:
            LIMIT = 10
        return LIMIT

    def comprehension_after_call(self, c, x):
        scale = x + 1
        base = c.add(x)
        return sum([scale * i for i in range(base % 5)])

    def variable_named_locals(self, c, x):
        locals = x * 2
        got = c.add(x)
        return locals + got

    def deleted_before_call(self, c, x):
        scratch = x * 3
        keep = scratch + 1
        del scratch
        got = c.add(keep)
        if x % 4 == 0:
            return scratch
        return got + keep

    def deep_early_return(self, c, x):
        seen = c.add(x)
        for i in range(seen):
            if i % 2 == 1:
                if i * 3 > x:
                    return i
        return -1


# ---------------------------------------------------------------------------
# Routes to the instance that never write ``self.<attr>`` + oracles
# ---------------------------------------------------------------------------


def calls_of(instance) -> int:
    """A module helper that reads the instance it is given."""
    return instance.calls


@entity
class Reach:
    """After its remote call, each method reaches the instance by a
    different route, none of them spelled ``self.<attr>``; the compiler
    must find every continuation stateful."""

    def __init__(self, rid: str):
        self.rid: str = rid
        self.calls: int = 7

    def __key__(self):
        return self.rid

    def via_super(self, c: Counter, x: int) -> int:
        got: int = c.add(x)
        return super(Reach, self).__getattribute__("calls") + got

    def via_locals(self, c: Counter, x: int) -> int:
        got: int = c.add(x)
        return locals()["self"].calls + got

    def via_vars(self, c: Counter, x: int) -> int:
        got: int = c.add(x)
        return vars()["self"].calls + got

    def via_eval(self, c: Counter, x: int) -> int:
        got: int = c.add(x)
        return eval("self.calls") + got

    def via_exec(self, c: Counter, x: int) -> int:
        got: int = c.add(x)
        box: list = []
        exec("box.append(self.calls)")
        return box[0] + got

    def via_lambda(self, c: Counter, x: int) -> int:
        got: int = c.add(x)
        return (lambda: self)().calls + got

    def via_comprehension(self, c: Counter, x: int) -> int:
        got: int = c.add(x)
        return sum([one.calls for one in (self,)]) + got

    def via_getattr(self, c: Counter, x: int) -> int:
        got: int = c.add(x)
        return getattr(self, "calls") + got

    def via_helper(self, c: Counter, x: int) -> int:
        got: int = c.add(x)
        return calls_of(self) + got

    def via_self_call(self, c: Counter, x: int) -> int:
        got: int = c.add(x)
        again: int = self.via_getattr(c, got)
        return again + 1


class OracleReach:
    def __init__(self, rid: str):
        self.rid = rid
        self.calls = 7

    def via_super(self, c, x):
        got = c.add(x)
        return super(OracleReach, self).__getattribute__("calls") + got

    def via_locals(self, c, x):
        got = c.add(x)
        return locals()["self"].calls + got

    def via_vars(self, c, x):
        got = c.add(x)
        return vars()["self"].calls + got

    def via_eval(self, c, x):
        got = c.add(x)
        return eval("self.calls") + got

    def via_exec(self, c, x):
        got = c.add(x)
        box = []
        exec("box.append(self.calls)")
        return box[0] + got

    def via_lambda(self, c, x):
        got = c.add(x)
        return (lambda: self)().calls + got

    def via_comprehension(self, c, x):
        got = c.add(x)
        return sum([one.calls for one in (self,)]) + got

    def via_getattr(self, c, x):
        got = c.add(x)
        return getattr(self, "calls") + got

    def via_helper(self, c, x):
        got = c.add(x)
        return calls_of(self) + got

    def via_self_call(self, c, x):
        got = c.add(x)
        again = self.via_getattr(c, got)
        return again + 1


#: Every route, by method name.
REACH_METHODS = ["via_super", "via_locals", "via_vars", "via_eval",
                 "via_exec", "via_lambda", "via_comprehension",
                 "via_getattr", "via_helper", "via_self_call"]


#: (method, args-builder) pairs shared by equivalence tests; each args
#: builder takes an int seed and returns positional args after the
#: Counter ref.
ZOO_CASES = [
    ("straight", lambda x: (x,)),
    ("expr_nested", lambda x: (x,)),
    ("branch", lambda x: (x - 3,)),
    ("branch_else", lambda x: (x,)),
    ("loop_for", lambda x: (x % 6,)),
    ("loop_nested_if", lambda x: (x % 6,)),
    ("loop_while_break", lambda x: (x % 5,)),
    ("helper_chain", lambda x: (x,)),
    ("remote_in_condition", lambda x: (x,)),
    ("remote_in_while_condition", lambda x: (x % 7 + 2,)),
]

#: Scope cases: same shape as ``ZOO_CASES``, but the plain-Python twin
#: may raise (an unbound local), and the compiled method must then fail
#: with the same exception.
ZOO_SCOPE_CASES = [
    ("shadowed_global", lambda x: (x,)),
    ("comprehension_after_call", lambda x: (x,)),
    ("variable_named_locals", lambda x: (x,)),
    ("deleted_before_call", lambda x: (x,)),
    ("deep_early_return", lambda x: (x,)),
]

SHOP_ENTITIES = [Item, User]
ZOO_ENTITIES = [Counter, Zoo]
REACH_ENTITIES = [Counter, Reach]
