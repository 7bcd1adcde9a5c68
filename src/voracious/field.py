"""Exact arithmetic in the real cyclotomic field Q(2 cos(pi/M)).

Wall geometry needs exact sign decisions, never floating point.  Everything
the engine computes lives in a single real algebraic extension: for a
modulus M, y = 2 cos(pi/M) is an algebraic integer and 2 cos(pi/m) is an
integer polynomial in y for every m dividing M (a Chebyshev-style
identity), while 2 cos(pi/2) = 0 and 2 cos(pi/3) = 1 are rational in any
context.  A Coxeter system computes with M the lcm of its finite orders
other than 2 and 3 (see coxeter.py).  Group-element matrices and root
coordinates therefore keep integer coefficients throughout, over the
doubled form 2B, and the engine never divides.

Outputs are written over the larger field of every finite order.  For a
multiple N of M, Q(y) is a subfield of Q(2 cos(pi/N)), and
FieldContext.basis_change(N) is the integer matrix that rewrites a tuple
over y as the tuple of the same number over 2 cos(pi/N).

A field element is its canonical coefficient tuple: the reduced polynomial in
y, low degree first, d = [Q(y):Q] entries.  The engine's tuples (group-element
matrices, roots, the form 2B) hold plain ints, and the integer kernel below
works on them directly: add, sub and neg are elementwise, FieldContext.mul
reduces a product with precomputed rows for y^d .. y^(2d-2),
FieldContext.multiplier turns a fixed constant into a precomputed map, and
FieldContext.in_band is the one test -2 < t < 2 behind small roots, wall
disjointness and finiteness.  Equality is tuple equality and the zero test is
syntactic.  cos_string renders a tuple over powers of c = cos(pi/M).

FieldScalar wraps the same integer tuples with ring operators and exact
comparison.  The engine does not use it: the tests use it as the oracle of
the kernel.

Signs are memoised per context by coefficient tuple.  A sign not yet in the
memo is decided by interval Horner evaluation over an exact enclosure of y,
bisected until zero is excluded.  The enclosure's two endpoints are ints over
one power-of-two denominator 2^e, and the evaluation runs in ints: the
interval it returns is the rational one scaled by 2^(e(d-1)), so it decides
the same signs after the same bisections.  Every coefficient is an int.
"""

from __future__ import annotations

import math
import operator
from functools import partial


def add(a, b):
    """Sum of two coefficient tuples."""
    return tuple(map(operator.add, a, b))


def sub(a, b):
    """Difference of two coefficient tuples."""
    return tuple(map(operator.sub, a, b))


def neg(a):
    """Negation of a coefficient tuple."""
    return tuple(map(operator.neg, a))


def _same(a):
    return a


def _linear_map(columns):
    """The map x -> sum of x_i columns[i], by precomputed integer rows."""
    rows = tuple(zip(*columns))
    return lambda x: tuple([sum(map(operator.mul, row, x)) for row in rows])


def add_rational(a, c):
    """a + c for an int c: only the constant term moves."""
    return (a[0] + c,) + a[1:]


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _poly_divexact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials; den is monic and must divide num."""
    num = list(num)
    d = len(den) - 1
    q = [0] * (len(num) - d)
    for i in range(len(num) - 1, d - 1, -1):
        c = num[i]
        if c:
            q[i - d] = c
            for j in range(d + 1):
                num[i - d + j] -= c * den[j]
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return q


def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, low degree first."""
    if n < 1:
        raise ValueError("n must be positive")
    cache: dict[int, list[int]] = {}
    for d in _divisors(n):
        p = [-1] + [0] * (d - 1) + [1]
        for e in _divisors(d):
            if e < d:
                p = _poly_divexact(p, cache[e])
        cache[d] = p
    return tuple(cache[n])


def two_cos_degree(modulus: int) -> int:
    """Degree of y = 2 cos(pi/M) over Q: phi(2M)/2, or 1 for M <= 2.

    Euler's phi by trial division, so it costs O(sqrt(M)) and no polynomial
    arithmetic.
    """
    if modulus < 1:
        raise ValueError("modulus must be positive")
    if modulus <= 2:
        return 1
    n = rest = 2 * modulus
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            n -= n // p
            while rest % p == 0:
                rest //= p
        p += 1
    if rest > 1:
        n -= n // rest
    return n // 2


def two_cos_minimal_polynomial(modulus: int) -> tuple[int, ...]:
    """Monic integer minimal polynomial of y = 2 cos(pi/M), low degree first.

    For M >= 3 the conjugates of y are the values 2 cos(k pi/M) with k prime
    to 2M, and the polynomial is obtained from the (2M)-th cyclotomic
    polynomial via the z + 1/z substitution; z^j + z^-j is rewritten as a
    polynomial in y through the recurrence p_0 = 2, p_1 = y,
    p_{j+1} = y p_j - p_{j-1}.
    """
    if modulus < 1:
        raise ValueError("modulus must be positive")
    if modulus == 1:
        return (2, 1)  # y = -2
    if modulus == 2:
        return (0, 1)  # y = 0
    phi = cyclotomic_polynomial(2 * modulus)
    if list(phi) != list(reversed(phi)):
        raise ArithmeticError("cyclotomic polynomial is not palindromic")
    d = (len(phi) - 1) // 2
    psi = [0] * (d + 1)
    psi[0] = phi[d]
    prev = [2]      # p_0
    cur = [0, 1]    # p_1 = y
    for j in range(1, d + 1):
        c = phi[d + j]
        if c:
            for i, v in enumerate(cur):
                psi[i] += c * v
        nxt = [0] + cur
        for i, v in enumerate(prev):
            nxt[i] -= v
        prev, cur = cur, nxt
    if psi[d] != 1:
        raise ArithmeticError("trace polynomial is not monic")
    return tuple(psi)


def _scaled_horner(coeffs, lo: int, hi: int, e: int) -> tuple[int, int]:
    """Interval Horner evaluation of int coefficients over [lo, hi] / 2^e.

    Returns the interval of the rational evaluation scaled by 2^(e(d-1)),
    for d = len(coeffs), so every endpoint stays an int.  Needs 0 < lo <= hi,
    which holds for every enclosure of y = 2 cos(pi/M) of degree >= 2; then
    each product's extremes are read from the signs of the running interval.
    """
    alo = ahi = coeffs[-1]
    shift = 0
    for c in reversed(coeffs[:-1]):
        shift += e
        c <<= shift
        if alo >= 0:
            alo, ahi = alo * lo + c, ahi * hi + c
        elif ahi <= 0:
            alo, ahi = alo * hi + c, ahi * lo + c
        else:
            alo, ahi = alo * hi + c, ahi * hi + c
    return alo, ahi


class FieldContext:
    """Shared arithmetic context for one group.

    Holds the minimal polynomial of y = 2 cos(pi/M), lazily grown reduction
    tables for high powers of y, an enclosure (lo, hi, e) of y, meaning
    lo/2^e < y < hi/2^e, that only ever shrinks, and the memo of signs by
    coefficient tuple.  All refinement steps are exact bisections, so sign
    queries are deterministic under any interleaving.
    """

    def __init__(self, modulus: int):
        self.modulus = modulus
        self.minpoly = two_cos_minimal_polynomial(modulus)
        self.degree = len(self.minpoly) - 1
        self._pows: list[tuple[int, ...]] = []
        self._enclosure: tuple[int, int, int] | None = None
        self._signs: dict[tuple[int, ...], int] = {}
        if self.degree >= 2:
            self._seed_enclosure()
        d = self.degree
        self.zero = FieldScalar(self, (0,) * d)
        self.one = FieldScalar(self, (1,) + (0,) * (d - 1))
        self._two_cos: dict[int, tuple[int, ...]] = {}
        # (y^j reduced) for j = d .. 2d-2, the powers a product can reach.
        self._red = tuple(self._pow(j) for j in range(d, 2 * d - 1))

    # -- integer kernel -----------------------------------------------------

    def mul(self, a, b):
        """Product of two coefficient tuples."""
        d = self.degree
        if d == 1:
            return (a[0] * b[0],)
        prod = [0] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b, i):
                    prod[j] += ai * bj
        out = prod[:d]
        for row, c in zip(self._red, prod[d:]):
            if c:
                for i, r in enumerate(row):
                    out[i] += c * r
        return tuple(out)

    def multiplier(self, c):
        """The map x -> c x for a fixed coefficient tuple c, precomputed.

        A rational c is a plain scale; otherwise the map is the d x d integer
        matrix whose column j is c y^j.
        """
        if not any(c[1:]):
            c0 = c[0]
            if c0 == 1:
                return _same
            if c0 == -1:
                return neg
            scale = partial(operator.mul, c0)
            return lambda x: tuple(map(scale, x))
        return _linear_map(self.times_powers(c))

    def times_powers(self, c):
        """The tuples c, c y, ..., c y^(d-1).

        Each is the one before times y: its coefficients shift up one place,
        and the top one comes back as that coefficient times y^d reduced, so
        the list costs O(d^2) ints.
        """
        out = [c]
        for _ in range(self.degree - 1):
            prev = out[-1]
            top = prev[-1]
            cur = (0,) + prev[:-1]
            if top:
                cur = tuple([x + top * r for x, r in zip(cur, self._red[0])])
            out.append(cur)
        return out

    def basis_change(self, modulus: int):
        """The map writing a tuple over this context's y as the same number
        over z = 2 cos(pi/modulus), for a multiple modulus of this modulus.

        y is a polynomial in z (see two_cos_pi_over), so Q(y) is a subfield
        of Q(z) and the map is the integer matrix whose column i is y^i
        written over z.  It is built once, in a context over z.
        """
        if modulus < 1 or modulus % self.modulus:
            raise ValueError(
                f"{modulus} is not a multiple of the field modulus {self.modulus}"
            )
        wide = FieldContext(modulus)
        cols = [wide.one.coeffs]
        if self.degree > 1:
            y = wide.two_cos_pi_over(self.modulus)
            while len(cols) < self.degree:
                cols.append(wide.mul(cols[-1], y))
        return _linear_map(cols)

    def in_band(self, t) -> bool:
        """Whether -2 < t < 2, for a coefficient tuple t; t - 2 is decided first."""
        sign_of = self.sign_of
        return sign_of(add_rational(t, -2)) < 0 and sign_of(add_rational(t, 2)) > 0

    # -- construction -----------------------------------------------------

    def scalar(self, coeffs) -> FieldScalar:
        """Scalar from integer y-power coefficients (any length; reduced on
        entry).  Any other coefficient type is a TypeError."""
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, int):
                raise TypeError(f"integer coefficient expected, got {type(c).__name__}")
        return FieldScalar(self, self._reduce(cs))

    def rational(self, value) -> FieldScalar:
        return self.scalar([value])

    def two_cos_pi_over(self, m: int) -> tuple[int, ...]:
        """The coefficient tuple of 2 cos(pi/m), for m = 2, m = 3 or finite m
        dividing M.  The first two are the rationals 0 and 1, in any context."""
        got = self._two_cos.get(m)
        if got is not None:
            return got
        if m in (2, 3):
            val = self._two_cos[m] = self._reduce([m - 2])
            return val
        if m < 1 or self.modulus % m:
            raise ValueError(f"{m} does not divide the field modulus {self.modulus}")
        j = self.modulus // m
        prev, cur = [2], [0, 1]
        for _ in range(j - 1):
            nxt = [0] + cur
            for i, v in enumerate(prev):
                nxt[i] -= v
            prev, cur = cur, nxt
        val = self._two_cos[m] = self._reduce(cur)
        return val

    # -- reduction --------------------------------------------------------

    def _pow(self, j: int) -> tuple[int, ...]:
        """y^j reduced to degree < d, for j >= d; table grows on demand."""
        d = self.degree
        base = tuple(-c for c in self.minpoly[:d])
        while len(self._pows) <= j - d:
            if not self._pows:
                self._pows.append(base)
                continue
            cur = self._pows[-1]
            nxt = [cur[d - 1] * b for b in base]
            for i in range(d - 1):
                nxt[i + 1] += cur[i]
            self._pows.append(tuple(nxt))
        return self._pows[j - d]

    def _reduce(self, cs) -> tuple[int, ...]:
        d = self.degree
        out = list(cs[:d]) + [0] * max(0, d - len(cs))
        for j in range(d, len(cs)):
            c = cs[j]
            if c:
                pw = self._pow(j)
                for i in range(d):
                    out[i] += c * pw[i]
        return tuple(out)

    # -- signs ------------------------------------------------------------

    def _seed_enclosure(self) -> None:
        num, den = (2.0 * math.cos(math.pi / self.modulus)).as_integer_ratio()
        e0 = den.bit_length() - 1
        for bits in (24, 32, 40, 48, 56):
            # The float value of y plus and minus 2^-bits, over 2^e.
            e = max(bits, e0)
            y, eps = num << (e - e0), 1 << (e - bits)
            lo, hi = y - eps, y + eps
            # y is the largest real root of the (monic) minimal polynomial,
            # so the sign change below certifies the enclosure.
            if self._minpoly_at(lo, e) < 0 < self._minpoly_at(hi, e):
                self._enclosure = (lo, hi, e)
                return
        raise ArithmeticError("failed to isolate 2 cos(pi/M)")

    def _minpoly_at(self, x: int, e: int) -> int:
        """The minimal polynomial at x/2^e, scaled by 2^(e d): same sign."""
        return _scaled_horner(self.minpoly, x, x, e)[0]

    def refine_enclosure(self) -> None:
        """One exact bisection step on the enclosure of y."""
        lo, hi, e = self._enclosure
        mid, e = lo + hi, e + 1
        v = self._minpoly_at(mid, e)
        if v > 0:
            self._enclosure = (2 * lo, mid, e)
        elif v < 0:
            self._enclosure = (mid, 2 * hi, e)
        else:  # rational root: only possible in degenerate low-degree cases
            self._enclosure = (mid, mid, e)

    def sign_of(self, coeffs) -> int:
        """Exact sign of the scalar with these canonical coefficients, memoised."""
        s = self._signs.get(coeffs)
        if s is None:
            s = self._signs[coeffs] = self._interval_sign(coeffs)
        return s

    def _interval_sign(self, coeffs) -> int:
        if not any(coeffs):
            return 0
        if not any(coeffs[1:]):
            return 1 if coeffs[0] > 0 else -1
        while True:
            lo, hi, e = self._enclosure
            a, b = _scaled_horner(coeffs, lo, hi, e)
            if a > 0:
                return 1
            if b < 0:
                return -1
            if lo == hi:
                raise ArithmeticError("nonzero scalar evaluated to zero")
            self.refine_enclosure()

    def __repr__(self):
        return f"FieldContext(modulus={self.modulus}, degree={self.degree})"


def cos_string(coeffs) -> str:
    """A coefficient tuple in y = 2c written over powers of c = cos(pi/M).

    The coefficient of c^j is b_j = a_j * 2^j.
    """
    bs = [a << j for j, a in enumerate(coeffs)]
    if not any(bs):
        return "0"
    parts: list[str] = []
    for j in range(len(bs) - 1, -1, -1):
        b = bs[j]
        if not b:
            continue
        mag = abs(b)
        if j == 0:
            core = str(mag)
        else:
            var = "c" if j == 1 else f"c^{j}"
            core = var if mag == 1 else f"{mag}{var}"
        parts.append(("-" if b < 0 else "+", core))
    sign0, core0 = parts[0]
    text = (sign0 if sign0 == "-" else "") + core0
    for sgn, core in parts[1:]:
        text += sgn + core
    return text


class FieldScalar:
    """Element of Q(2 cos(pi/M)) as a canonical reduced polynomial in y.

    Equality is coefficient equality; <, <=, >, >= and sign() are exact.
    Signs are memoised once per context, by coefficient tuple.
    """

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldContext, coeffs: tuple[int, ...]):
        self.ctx = ctx
        self.coeffs = coeffs

    # -- coercion ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, FieldScalar):
            if other.ctx is not self.ctx:
                raise ValueError("mixing scalars from different field contexts")
            return other
        if isinstance(other, int):
            d = self.ctx.degree
            return FieldScalar(self.ctx, (other,) + (0,) * (d - 1))
        return None

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldScalar(
            self.ctx, tuple([a + b for a, b in zip(self.coeffs, o.coeffs)])
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldScalar(
            self.ctx, tuple([a - b for a, b in zip(self.coeffs, o.coeffs)])
        )

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return FieldScalar(self.ctx, tuple([-a for a in self.coeffs]))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if not any(a[1:]):
            c = a[0]
            if c == 0:
                return self.ctx.zero
            if c == 1:
                return o
            return FieldScalar(self.ctx, tuple([c * x for x in b]))
        if not any(b[1:]):
            c = b[0]
            if c == 0:
                return self.ctx.zero
            if c == 1:
                return self
            return FieldScalar(self.ctx, tuple([c * x for x in a]))
        d = self.ctx.degree
        prod = [0] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] += ai * bj
        return FieldScalar(self.ctx, self.ctx._reduce(prod))

    __rmul__ = __mul__

    # -- predicates and order ---------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def sign(self) -> int:
        return self.ctx.sign_of(self.coeffs)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, FieldScalar):
            if other.ctx is not self.ctx:
                return NotImplemented
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return not any(self.coeffs[1:]) and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        if not any(self.coeffs[1:]):
            return hash(self.coeffs[0])
        return hash(self.coeffs)

    def __lt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __le__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() <= 0

    def __gt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() > 0

    def __ge__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() >= 0

    # -- presentation -----------------------------------------------------

    def __str__(self):
        return cos_string(self.coeffs)

    def __repr__(self):
        return f"FieldScalar({self})"
