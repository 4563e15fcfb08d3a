"""Exact arithmetic in GF(p^a) with reproducible primitive elements.

Elements are packed integers: the vector (c0, c1, ..., c_{a-1}) over GF(p)
representing c0 + c1*x + ... is stored as c0 + c1*p + ... + c_{a-1}*p^{a-1}.
Each field carries exp/log tables indexed by the discrete log of its fixed
primitive element omega, so multiplicative work is table lookups.

Moduli come from an embedded Conway-polynomial table, which makes omega (the
residue class of x, or a fixed primitive root when a = 1) identical across
runs and machines.  Construction checks that the powers of omega are the
q - 1 nonzero elements, each once.  That holds exactly when the modulus is
irreducible and omega primitive, so a corrupted table entry fails loudly
rather than silently.
"""

from __future__ import annotations

from functools import lru_cache


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % d == 0:
            return n == d
        if d * d > n:
            return True
    d = 41
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def multiplicative_order(x: int, m: int) -> int:
    """Order of x in (Z/m)^*; x must be coprime to m."""
    order = 1
    t = x % m
    while t != 1:
        t = (t * x) % m
        order += 1
        if order > m:
            raise ValueError(f"{x} is not a unit mod {m}")
    return order


def is_primitive_prime_divisor(r: int, p: int, m: int) -> bool:
    """True iff r is a primitive prime divisor of p^m - 1, i.e. o_r(p) = m."""
    if not is_prime(r):
        raise ValueError(f"r = {r} is not prime")
    if p % r == 0:
        return False
    return multiplicative_order(p, r) == m


# Conway polynomials, ascending coefficients (constant term first, monic).
# Only the (p, a) pairs the catalogue and tests reach; extend as needed.
_CONWAY: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 1): (1, 1),
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 1, 1, 0, 1),
    (2, 8): (1, 0, 1, 1, 1, 0, 0, 0, 1),
    (3, 1): (1, 1),
    (3, 2): (2, 2, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 0, 0, 2, 1),
    (5, 1): (3, 1),
    (5, 2): (2, 4, 1),
    (5, 3): (3, 3, 0, 1),
    (7, 1): (4, 1),
    (7, 2): (3, 6, 1),
    (11, 1): (9, 1),
    (13, 1): (11, 1),
    (17, 1): (14, 1),
    (19, 1): (17, 1),
    (23, 1): (18, 1),
    (29, 1): (27, 1),
    (31, 1): (28, 1),
    (37, 1): (35, 1),
    (41, 1): (35, 1),
    (43, 1): (40, 1),
    (47, 1): (42, 1),
}

MAX_FIELD_SIZE = 1 << 20


class Field:
    """GF(p^a) with a fixed modulus and primitive element omega.

    Immutable after construction; obtain instances through field_make so the
    per-(p, a) object (and its tables) is shared.
    """

    def __init__(self, p: int, a: int):
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if a < 1:
            raise ValueError(f"a = {a} must be >= 1")
        q = p**a
        if q > MAX_FIELD_SIZE:
            raise ValueError(f"field size {q} exceeds supported bound 2^20")
        if (p, a) not in _CONWAY:
            raise ValueError(f"no Conway polynomial on record for GF({p}^{a})")
        self.p = p
        self.a = a
        self.q = q
        self.modulus = _CONWAY[(p, a)]
        self._pow_p = [p**i for i in range(a)]
        self._build_tables()

    # -- table construction -------------------------------------------------

    def _build_tables(self):
        p, a, q = self.p, self.a, self.q
        # x^a = -(c0 + c1 x + ...), packed; for a = 1 that is the root of x - r
        top = 0
        for i in range(a):
            top += ((-self.modulus[i]) % p) * self._pow_p[i]
        exp = [0] * (q - 1)
        t = 1
        for i in range(q - 1):
            exp[i] = t
            # multiply t by x: shift digits, reduce the overflow digit
            carry = t // self._pow_p[a - 1]
            t = (t % self._pow_p[a - 1]) * p
            if carry:
                t = self.add(t, self._scale_raw(top, carry))
        self.omega = exp[1 % (q - 1)]    # the class of x, or the root r
        self.exp = exp
        log = [-1] * q
        for i, v in enumerate(exp):
            if log[v] != -1:
                raise ArithmeticError(f"GF({p}^{a}): omega has order < q - 1")
            log[v] = i
        self.log = log
        if log[0] != -1 or any(v == -1 for v in log[1:]):
            raise ArithmeticError(f"GF({p}^{a}): exp table is not a bijection")

    def _scale_raw(self, x: int, c: int) -> int:
        p = self.p
        out = 0
        for pw in self._pow_p:
            out += (((x // pw) * c) % p) * pw
        return out

    # -- packed-int arithmetic ----------------------------------------------

    def add(self, x: int, y: int) -> int:
        p = self.p
        if p == 2:
            return x ^ y
        out = 0
        for pw in self._pow_p:
            out += (((x // pw) + (y // pw)) % p) * pw
        return out

    def neg(self, x: int) -> int:
        if self.p == 2:
            return x
        return self._scale_raw(x, self.p - 1)

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    def mul(self, x: int, y: int) -> int:
        if x == 0 or y == 0:
            return 0
        return self.exp[(self.log[x] + self.log[y]) % (self.q - 1)]

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("inverse of 0")
        return self.exp[(-self.log[x]) % (self.q - 1)]

    def pow(self, x: int, e: int) -> int:
        if x == 0:
            if e < 0:
                raise ZeroDivisionError("0 to a negative power")
            return 0 if e else 1
        return self.exp[(self.log[x] * e) % (self.q - 1)]

    def frob_iter(self, x: int, k: int) -> int:
        return self.pow(x, self.p ** (k % self.a))

    def __repr__(self):
        return f"GF({self.p}^{self.a})" if self.a > 1 else f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, Field) and (self.p, self.a) == (other.p, other.a)

    def __hash__(self):
        return hash((Field, self.p, self.a))


@lru_cache(maxsize=None)
def field_make(p: int, a: int) -> Field:
    """The deterministic GF(p^a); repeated calls return the same object."""
    return Field(p, a)


class SubfieldView:
    """Explicit view GF(p^a) / GF(p^a0) with embedding omega0 -> omega^s.

    s = (q - 1)/(q0 - 1), so the embedded subfield is the set of elements
    whose discrete log is divisible by s (plus 0).  No implicit coercion:
    callers go through embed.
    """

    def __init__(self, big: Field, a0: int):
        if big.a % a0 != 0 or a0 == big.a:
            raise ValueError(f"GF({big.p}^{a0}) is not a proper subfield of {big}")
        self.big = big
        self.sub = field_make(big.p, a0)
        self.q0 = self.sub.q
        self.stride = (big.q - 1) // (self.q0 - 1)
        self.degree = big.a // a0

    def embed(self, x0: int) -> int:
        if x0 == 0:
            return 0
        return self.big.exp[self.sub.log[x0] * self.stride]
