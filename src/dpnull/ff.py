"""Exact arithmetic in small finite fields F_t, t a prime power.

Elements are integers in [0, t).  For an extension field of order t = p^k
(k > 1) the integer packs the polynomial representative in base p,
value = sum c_i * p^i, so F_4 is named 0, 1, 2 = x, 3 = x + 1.

All operation tables are precomputed at construction; a FieldSpec is
immutable and safe to share between threads and processes.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

DEFAULT_ORDER_LIMIT = 16


class FieldError(ValueError):
    """Invalid field order or out-of-range element."""


def _factorize(t: int) -> list[tuple[int, int]]:
    out = []
    m = t
    p = 2
    while p * p <= m:
        if m % p == 0:
            k = 0
            while m % p == 0:
                m //= p
                k += 1
            out.append((p, k))
        p += 1
    if m > 1:
        out.append((m, 1))
    return out


def _digits(value: int, p: int, k: int) -> tuple[int, ...]:
    out = []
    for _ in range(k):
        out.append(value % p)
        value //= p
    return tuple(out)


def _pack(coeffs, p: int) -> int:
    value = 0
    for c in reversed(coeffs):
        value = value * p + c
    return value


def _poly_rem(num: list[int], den: tuple[int, ...], p: int) -> list[int]:
    # den is monic; both little-endian coefficient lists over F_p
    num = list(num)
    dd = len(den) - 1
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i] % p
        if c:
            for j, dc in enumerate(den):
                num[i - dd + j] = (num[i - dd + j] - c * dc) % p
    return [c % p for c in num[:dd]]


def _monic_polys(degree: int, p: int):
    for packed in range(p**degree):
        yield _digits(packed, p, degree) + (1,)


def _is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    k = len(poly) - 1
    for d in range(1, k // 2 + 1):
        for div in _monic_polys(d, p):
            if not any(_poly_rem(list(poly), div, p)):
                return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """The field F_t with flat add/mul lookup tables (t <= the order limit)."""

    order: int
    char: int
    degree: int
    reduction: tuple[int, ...] | None
    add_table: tuple[int, ...] = field(repr=False, compare=False)
    mul_table: tuple[int, ...] = field(repr=False, compare=False)
    neg_table: tuple[int, ...] = field(repr=False, compare=False)
    inv_table: tuple[int, ...] = field(repr=False, compare=False)

    @property
    def elements(self) -> range:
        return range(self.order)

    def check(self, a: int) -> int:
        if not isinstance(a, int) or a < 0 or a >= self.order:
            raise FieldError(f"{a!r} is not an element of F_{self.order}")
        return a

    def add(self, a: int, b: int) -> int:
        return self.add_table[self.check(a) * self.order + self.check(b)]

    def sub(self, a: int, b: int) -> int:
        return self.add_table[self.check(a) * self.order + self.neg_table[self.check(b)]]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[self.check(a) * self.order + self.check(b)]

    def neg(self, a: int) -> int:
        return self.neg_table[self.check(a)]

    def inv(self, a: int) -> int:
        if self.check(a) == 0:
            raise FieldError(f"0 has no inverse in F_{self.order}")
        return self.inv_table[a]

    def pow(self, a: int, e: int) -> int:
        self.check(a)
        if e < 0:
            a = self.inv(a)
            e = -e
        if a == 0:
            return 1 if e == 0 else 0
        e %= self.order - 1
        out = 1
        for _ in range(e):
            out = self.mul_table[out * self.order + a]
        return out


def _build_tables(t: int, p: int, k: int, reduction: tuple[int, ...] | None):
    def add(a, b):
        da = _digits(a, p, k)
        db = _digits(b, p, k)
        return _pack([(x + y) % p for x, y in zip(da, db)], p)

    def mul(a, b):
        da = _digits(a, p, k)
        db = _digits(b, p, k)
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % p
        if reduction is not None:
            prod = _poly_rem(prod, reduction, p)
        return _pack((prod + [0] * k)[:k], p)

    add_t = tuple(add(a, b) for a in range(t) for b in range(t))
    mul_t = tuple(mul(a, b) for a in range(t) for b in range(t))
    neg_t = tuple(_pack([(-c) % p for c in _digits(a, p, k)], p) for a in range(t))
    inv_t = [0] * t
    for a in range(1, t):
        # a^(t-2) is the inverse; at these sizes repeated multiplication is fine
        acc = 1
        for _ in range(t - 2):
            acc = mul_t[acc * t + a]
        inv_t[a] = acc
    return add_t, mul_t, neg_t, tuple(inv_t)


@lru_cache(maxsize=None)
def make_field(t: int) -> FieldSpec:
    """Build F_t.  Rejects t that is not a prime power, naming the factorization.

    For k > 1 the reduction polynomial is the irreducible monic of degree k
    whose non-leading coefficient pack (sum c_i p^i) is smallest; for F_4
    that is x^2 + x + 1.
    """
    if t < 2:
        raise FieldError(f"field order must be at least 2, got {t}")
    if t > DEFAULT_ORDER_LIMIT:
        raise FieldError(f"field order {t} exceeds the configured limit {DEFAULT_ORDER_LIMIT}")
    factors = _factorize(t)
    if len(factors) != 1:
        shown = " * ".join(f"{p}^{k}" if k > 1 else str(p) for p, k in factors)
        raise FieldError(f"{t} is not a prime power ({t} = {shown})")
    p, k = factors[0]
    reduction = None
    if k > 1:
        for cand in _monic_polys(k, p):
            if _is_irreducible(cand, p):
                reduction = cand
                break
        assert reduction is not None
    add_t, mul_t, neg_t, inv_t = _build_tables(t, p, k, reduction)
    return FieldSpec(t, p, k, reduction, add_t, mul_t, neg_t, inv_t)
