"""The entity programs the ledger drives.

These are the benchmark's own copies (``Account`` after
``repro.workloads.ycsb``; ``Product``/``Wallet``/``Cart`` after
``examples/ecommerce_checkout.py``), so an edit to ``repro.workloads``
or to an example cannot change the traffic the ledger measures.  The
compiler reads this file's source, so it must stay a plain module.
"""

from __future__ import annotations

from repro import entity, transactional


@entity
class Account:
    """One YCSB row / YCSB+T bank account (flat state)."""

    def __init__(self, account_id: str, balance: int):
        self.account_id: str = account_id
        self.balance: int = balance
        self.payload: str = ""

    def __key__(self):
        return self.account_id

    def read(self) -> int:
        return self.balance

    def write(self, value: str) -> bool:
        self.payload = value
        return True

    def deposit(self, amount: int) -> int:
        self.balance += amount
        return self.balance

    @transactional
    def transfer(self, amount: int, other: Account) -> bool:
        if self.balance < amount:
            return False
        self.balance -= amount
        new_balance: int = other.deposit(amount)
        return new_balance >= 0


@entity
class Product:
    def __init__(self, sku: str, price: int, stock: int):
        self.sku: str = sku
        self.price: int = price
        self.stock: int = stock

    def __key__(self):
        return self.sku

    def reserve(self, quantity: int) -> int:
        if self.stock < quantity:
            return -1
        self.stock -= quantity
        return self.price * quantity

    def release(self, quantity: int) -> int:
        self.stock += quantity
        return self.stock


@entity
class Wallet:
    def __init__(self, owner: str, funds: int):
        self.owner: str = owner
        self.funds: int = funds

    def __key__(self):
        return self.owner

    def charge(self, amount: int) -> bool:
        if self.funds < amount:
            return False
        self.funds -= amount
        return True


@entity
class Cart:
    """Nested (list-valued) state and a while-loop over remote calls."""

    def __init__(self, cart_id: str):
        self.cart_id: str = cart_id
        self.skus: list = []
        self.quantities: list = []
        self.orders_placed: int = 0

    def __key__(self):
        return self.cart_id

    @transactional
    def checkout(self, wallet: Wallet) -> int:
        total: int = 0
        reserved: int = 0
        failed: bool = False
        i: int = 0
        while i < len(self.skus):
            product: Product = self.skus[i]
            quantity: int = self.quantities[i]
            cost: int = product.reserve(quantity)
            if cost < 0:
                failed = True
                break
            total = total + cost
            reserved = reserved + 1
            i = i + 1
        if not failed:
            paid: bool = wallet.charge(total)
            if not paid:
                failed = True
        if failed:
            j: int = 0
            while j < reserved:
                line: Product = self.skus[j]
                line.release(self.quantities[j])
                j = j + 1
            return -1
        self.orders_placed += 1
        return total


YCSB_ENTITIES = [Account]
CHECKOUT_ENTITIES = [Product, Wallet, Cart]
