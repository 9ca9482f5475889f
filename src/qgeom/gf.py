"""Exact arithmetic in finite fields GF(q), q = p^f.

A field element is a plain int in [0, q) whose base-p digits are the
coefficients of a polynomial over GF(p), reduced modulo a monic
irreducible polynomial of degree f.

Construction turns that arithmetic into tables once: exp/log tables
for inversion and powers, q x q addition, subtraction and
multiplication tables, and a negation table.  add, neg, sub and mul are
then a range check and one lookup, the same code for every p and f.
The row kernel `_lincomb` folds whole rows through the tables with no
checks, so raw entries are checked where they enter (`_check_vector`):
a table indexed by -1 would silently read its last row, and one indexed
by 1.0 or True would raise a bare TypeError or pass for 1.  The q x q
tables bound q by 256: they build in about 0.3 s there, against 2.4 s
and some 60 MB at q = 1024, and no construction here needs q > 16.

The modulus is the lexicographically smallest monic irreducible
polynomial of degree f (smallest integer encoding of the non-leading
coefficients), which makes every field deterministic across runs.
"""

from __future__ import annotations

import math
from numbers import Integral

Q_MAX = 256
_INT = frozenset([int])

_FIELD_CACHE: dict[tuple[int, int], "Field"] = {}


def _least_factor(n: int) -> int:
    """The least prime factor of an integer n >= 2, by trial division."""
    return next((d for d in range(2, math.isqrt(n) + 1) if n % d == 0), n)


def is_prime(n: int) -> bool:
    return n >= 2 and _least_factor(n) == n


# -- polynomial helpers over GF(p) ------------------------------------------
# Polynomials are little-endian coefficient lists: c[i] is the x^i term.

def _poly_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_rem(a, b, p):
    """Remainder of a mod b over GF(p); b must be monic."""
    a = list(a)
    db = len(b) - 1
    while len(a) - 1 >= db and a:
        coef = a[-1]
        shift = len(a) - 1 - db
        for i in range(db + 1):
            a[shift + i] = (a[shift + i] - coef * b[i]) % p
        _poly_trim(a)
    return a


def _is_irreducible(c, p):
    """Trial division by every monic polynomial of degree <= deg(c)/2."""
    deg = len(c) - 1
    for d in range(1, deg // 2 + 1):
        for enc in range(p ** d):
            g = _digits(enc, p, d) + [1]
            if not _poly_rem(c, g, p):
                return False
    return True


def _digits(value, p, length):
    out = []
    for _ in range(length):
        value, r = divmod(value, p)
        out.append(r)
    return out


def _undigits(digits, p):
    value = 0
    for d in reversed(digits):
        value = value * p + d
    return value


class Field:
    """GF(p^f) with int-encoded elements and table-based arithmetic.

    Immutable after construction; all operations are pure, so a Field
    may be shared freely between threads.
    """

    def __init__(self, p: int, f: int):
        if not is_prime(p):
            raise ValueError(f"p={p} is not prime")
        if f < 1:
            raise ValueError(f"extension degree f={f} must be >= 1")
        q = p ** f
        if q > Q_MAX:
            raise ValueError(f"q={q} exceeds supported bound {Q_MAX}")
        self.p = p
        self.f = f
        self.q = q
        self.modulus = self._smallest_irreducible()
        self._build_tables()

    def _smallest_irreducible(self):
        p, f = self.p, self.f
        for enc in range(p ** f):
            cand = _digits(enc, p, f) + [1]
            if _is_irreducible(cand, p):
                return tuple(cand)
        raise AssertionError("no irreducible polynomial found")  # unreachable

    def _raw_mul(self, a: int, b: int) -> int:
        # Schoolbook product of the digit polynomials, reduced mod modulus.
        p, f = self.p, self.f
        da = _digits(a, p, f)
        db = _digits(b, p, f)
        prod = [0] * (2 * f - 1)
        for i, ai in enumerate(da):
            if ai:
                for j, bj in enumerate(db):
                    prod[i + j] = (prod[i + j] + ai * bj) % p
        rem = _poly_rem(prod, list(self.modulus), p)
        rem += [0] * (f - len(rem))
        return _undigits(rem, p)

    def _build_tables(self):
        p, f, q = self.p, self.f, self.q
        # exp lists the powers of the smallest primitive element g
        # (g = 1 at q = 2): the first g whose powers run through q - 1 values.
        for g in range(1, q):
            exp = [1]
            acc = g
            while acc != 1:
                exp.append(acc)
                acc = self._raw_mul(acc, g)
            if len(exp) == q - 1:
                break
        log = [0] * q
        for i, x in enumerate(exp):
            log[x] = i
        self._exp, self._log = exp, log
        digits = [_digits(a, p, f) for a in range(q)]
        self._add = [
            [_undigits([(x + y) % p for x, y in zip(da, db)], p) for db in digits]
            for da in digits
        ]
        self._neg = [_undigits([(-x) % p for x in da], p) for da in digits]
        self._sub = [[row[nb] for nb in self._neg] for row in self._add]
        self._mul = [[0] * q] + [
            [0] + [exp[(log[a] + log[b]) % (q - 1)] for b in range(1, q)]
            for a in range(1, q)
        ]

    def check(self, a: int) -> int:
        if not 0 <= a < self.q:
            raise ValueError(f"{a} is not an element of GF({self.q})")
        return a

    def add(self, a: int, b: int) -> int:
        return self._add[self.check(a)][self.check(b)]

    def neg(self, a: int) -> int:
        return self._neg[self.check(a)]

    def sub(self, a: int, b: int) -> int:
        return self._sub[self.check(a)][self.check(b)]

    def mul(self, a: int, b: int) -> int:
        return self._mul[self.check(a)][self.check(b)]

    def inv(self, a: int) -> int:
        self.check(a)
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self._exp[(-self._log[a]) % (self.q - 1)]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, n: int) -> int:
        self.check(a)
        if a == 0:
            if n < 0:
                raise ZeroDivisionError("0 has no multiplicative inverse")
            return 0 if n else 1
        return self._exp[(self._log[a] * n) % (self.q - 1)]

    def frobenius(self, a: int, i: int = 1) -> int:
        """a^(p^i); the i-th power of the Frobenius automorphism."""
        if i < 0:
            raise ValueError("Frobenius power must be >= 0")
        return self.pow(a, self.p ** i)

    def elements(self):
        return range(self.q)

    def _check_vector(self, v) -> tuple:
        """v as a tuple of ints, after a type and range check of every entry.
        A numpy integer becomes an int; a bool or any other value that is not
        an integer raises ValueError."""
        v = tuple(v)
        if not _INT.issuperset(map(type, v)):  # one set lookup per entry: this runs on every vector
            for j, x in enumerate(v):
                if isinstance(x, bool) or not isinstance(x, Integral):
                    raise ValueError(f"vector entry {j} is not an integer: {x!r}")
            v = tuple(map(int, v))
        if v and not (0 <= min(v) and max(v) < self.q):
            for x in v:
                self.check(x)
        return v

    def _lincomb(self, start, coeffs, rows) -> tuple:
        """start + sum of c * row over zip(coeffs, rows), entrywise.

        The one row kernel.  Entries must already be field elements:
        nothing is range-checked here.
        """
        add, mul = self._add, self._mul
        acc = start
        for c, row in zip(coeffs, rows):
            if c:
                m = mul[c]
                acc = [add[x][m[y]] for x, y in zip(acc, row)]
        return tuple(acc)

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and (self.p, self.f, self.modulus) == (other.p, other.f, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.f, self.modulus))

    def __repr__(self):
        return f"GF({self.q})" if self.f == 1 else f"GF({self.p}^{self.f})"

    def to_json(self) -> dict:
        return {"p": self.p, "f": self.f, "modulus": list(self.modulus)}


def field_new(p: int, f: int = 1) -> Field:
    """The field GF(p^f).  Instances are cached, so fields compare by identity."""
    key = (p, f)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = Field(p, f)
    return _FIELD_CACHE[key]


def _prime_power(q: int) -> tuple[int, int]:
    """(p, f) with q = p^f and p prime: p is q's least factor, by trial
    division, and p^f is checked against q in integers.  It builds no
    field, so q is not bounded by Q_MAX."""
    if q >= 2:
        p = _least_factor(q)
        f = round(math.log(q, p))  # exact when q is a power of p, and checked
        if p ** f == q:
            return p, f
    raise ValueError(f"q={q} is not a prime power")


def field_from_order(q: int) -> Field:
    """The field of order q, for q any prime power."""
    return field_new(*_prime_power(q))
