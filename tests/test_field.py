import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from voracious.field import (
    FieldContext,
    _cleared,
    _scaled_horner,
    add,
    add_rational,
    cos_string,
    cyclotomic_polynomial,
    neg,
    sub,
    two_cos_degree,
    two_cos_minimal_polynomial,
)

from conftest import enclosure_fractions, interval_eval

# Minimal polynomials of y = 2 cos(pi/M), low degree first.  Frozen from an
# independent derivation: y generates the real subfield of the 2M-th
# cyclotomic field, degree phi(2M)/2 for M >= 3.
MINPOLYS = {
    1: (2, 1),            # y = -2
    2: (0, 1),            # y = 0
    3: (-1, 1),           # y = 1
    4: (-2, 0, 1),        # y = sqrt(2)
    5: (-1, -1, 1),       # y = golden ratio
    6: (-3, 0, 1),        # y = sqrt(3)
    7: (1, -2, -1, 1),
    12: (1, 0, -4, 0, 1),
}


def test_cyclotomic_examples():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


@pytest.mark.parametrize("modulus,expected", sorted(MINPOLYS.items()))
def test_minimal_polynomials_frozen(modulus, expected):
    assert two_cos_minimal_polynomial(modulus) == expected


def test_degree_matches_minimal_polynomial():
    for modulus in range(1, 121):
        assert two_cos_degree(modulus) == len(two_cos_minimal_polynomial(modulus)) - 1
    assert two_cos_degree(6006) == 1440


@pytest.mark.parametrize("modulus", sorted(MINPOLYS))
def test_minimal_polynomial_numeric_root(modulus):
    y = 2.0 * math.cos(math.pi / modulus)
    acc = 0.0
    for c in reversed(two_cos_minimal_polynomial(modulus)):
        acc = acc * y + c
    assert abs(acc) < 1e-12


def _float_value(x):
    y = 2.0 * math.cos(math.pi / x.ctx.modulus)
    return sum(float(c) * y**j for j, c in enumerate(x.coeffs))


def test_two_cos_values_numeric():
    ctx = FieldContext(12)
    for m in (1, 2, 3, 4, 6, 12):
        got = _float_value(ctx.scalar(ctx.two_cos_pi_over(m)))
        assert abs(got - 2.0 * math.cos(math.pi / m)) < 1e-12


def test_two_cos_exact_identities():
    ctx = FieldContext(12)

    def two_cos(m):
        return ctx.scalar(ctx.two_cos_pi_over(m))

    assert two_cos(1) == -2
    assert two_cos(2) == 0
    assert two_cos(3) == 1
    sqrt2, sqrt3 = two_cos(4), two_cos(6)
    assert sqrt2 * sqrt2 == 2
    assert sqrt3 * sqrt3 == 3
    ctx5 = FieldContext(5)
    y = ctx5.scalar(ctx5.two_cos_pi_over(5))
    assert y * y == y + 1  # golden ratio relation


def test_two_cos_requires_divisor():
    ctx = FieldContext(6)
    with pytest.raises(ValueError):
        ctx.two_cos_pi_over(4)
    with pytest.raises(ValueError):
        ctx.two_cos_pi_over(0)


@pytest.mark.parametrize("modulus", [1, 2, 3, 4, 5, 7, 12, 30, 42])
def test_two_cos_of_2_and_3_in_any_context(modulus):
    # 2 cos(pi/2) = 0 and 2 cos(pi/3) = 1, whether or not 2 or 3 divides M.
    ctx = FieldContext(modulus)
    zero = (0,) * ctx.degree
    assert ctx.two_cos_pi_over(2) == zero
    assert ctx.two_cos_pi_over(3) == (1,) + zero[1:]


@pytest.mark.parametrize("narrow, wide", [(1, 1), (1, 6), (4, 12), (5, 30), (7, 42)])
def test_basis_change_embeds_the_subfield(narrow, wide):
    ctx, big = FieldContext(narrow), FieldContext(wide)
    rewrite = ctx.basis_change(wide)
    d = ctx.degree
    unit = [(0,) * j + (1,) + (0,) * (d - 1 - j) for j in range(d)]
    # Column i is y^i, so y goes to 2 cos(pi/narrow) written over z.
    assert rewrite(unit[0]) == big.one.coeffs
    if d > 1:
        assert rewrite(unit[1]) == big.two_cos_pi_over(narrow)
    # A ring map: it keeps products, and with them every value and sign.
    for a in unit + [(3,) + (-2,) * (d - 1), (-5,) * d]:
        for b in unit + [(1,) + (7,) * (d - 1)]:
            assert rewrite(ctx.mul(a, b)) == big.mul(rewrite(a), rewrite(b))
        assert ctx.sign_of(a) == big.sign_of(rewrite(a))


def test_basis_change_needs_a_multiple():
    with pytest.raises(ValueError):
        FieldContext(4).basis_change(6)
    with pytest.raises(ValueError):
        FieldContext(4).basis_change(0)


def test_cos_string_over_powers_of_c():
    assert cos_string(FieldContext(4).two_cos_pi_over(4)) == "2c"
    # Degree 4 (M = 12): the coefficient of c^j is a_j * 2^j, since c = y/2.
    ctx12 = FieldContext(12)
    x = ctx12.scalar([Fraction(1, 2), -1, 0, 3])
    assert cos_string(x.coeffs) == "24c^3-2c+1/2"
    assert cos_string((Fraction(1, 3), Fraction(-3, 4), 0, 0)) == "-(3/2)c+1/3"
    assert cos_string((0, 0, -1, 0)) == "-4c^2"
    assert cos_string((0, 0, 0, 0)) == "0"


def test_str_rendering():
    ctx = FieldContext(4)
    y = ctx.scalar(ctx.two_cos_pi_over(4))
    assert str(y) == "2c"
    assert str(y * y) == "2"
    assert str(ctx.rational(Fraction(-1, 2))) == "-1/2"
    assert str(ctx.zero) == "0"
    assert str(ctx.rational(1)) == "1"


def test_rational_embedding_and_hash():
    ctx = FieldContext(5)
    five = ctx.rational(5)
    assert five == 5
    assert hash(five) == hash(5)
    half = ctx.rational(Fraction(1, 2))
    assert half == Fraction(1, 2)
    assert hash(half) == hash(Fraction(1, 2))
    assert ctx.scalar([2, 3]) == ctx.scalar((2, 3))
    assert hash(ctx.scalar([2, 3])) == hash(ctx.scalar((2, 3)))


def test_context_mixing_rejected():
    a = FieldContext(5)
    b = FieldContext(5)
    with pytest.raises(ValueError):
        a.one + b.one


CTX5 = FieldContext(5)
CTX12 = FieldContext(12)


def _scalars(ctx):
    return st.lists(
        st.integers(min_value=-9, max_value=9),
        min_size=ctx.degree,
        max_size=ctx.degree,
    ).map(ctx.scalar)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(a=_scalars(CTX12), b=_scalars(CTX12), c=_scalars(CTX12))
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == 0


@settings(max_examples=80, deadline=None, derandomize=True)
@given(a=_scalars(CTX5), b=_scalars(CTX5))
def test_sign_is_multiplicative(a, b):
    assert (a * b).sign() == a.sign() * b.sign()


@settings(max_examples=80, deadline=None, derandomize=True)
@given(a=_scalars(CTX5), b=_scalars(CTX5))
def test_order_trichotomy(a, b):
    assert (a < b) + (a == b) + (a > b) == 1
    assert (a < b) == (b > a)
    assert (a <= b) == (not a > b)


# Degrees 1, 2, 2, 4 and 12; 42 is the modulus of the (2,3,7) triangle group.
KERNEL_CONTEXTS = {m: FieldContext(m) for m in (3, 4, 5, 8, 42)}


def test_kernel_context_degrees():
    degrees = {m: ctx.degree for m, ctx in KERNEL_CONTEXTS.items()}
    assert degrees == {3: 1, 4: 2, 5: 2, 8: 4, 42: 12}


@st.composite
def _kernel_case(draw):
    ctx = KERNEL_CONTEXTS[draw(st.sampled_from(sorted(KERNEL_CONTEXTS)))]
    d = ctx.degree
    coeffs = st.lists(
        st.integers(min_value=-300, max_value=300), min_size=d, max_size=d
    ).map(tuple)
    rational = st.integers(min_value=-3, max_value=3).map(
        lambda c: (c,) + (0,) * (d - 1)
    )
    return ctx, draw(st.one_of(coeffs, rational)), draw(coeffs)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=_kernel_case())
def test_kernel_matches_field_scalar(case):
    # The integer kernel against FieldScalar arithmetic on the same tuples.
    ctx, a, b = case
    x, y = ctx.scalar(a), ctx.scalar(b)
    got = {
        "mul": ctx.mul(a, b),
        "multiplier": ctx.multiplier(a)(b),
        "add": add(a, b),
        "sub": sub(a, b),
        "neg": neg(a),
        "add_rational": add_rational(b, -2),
    }
    want = {
        "mul": (x * y).coeffs,
        "multiplier": (x * y).coeffs,
        "add": (x + y).coeffs,
        "sub": (x - y).coeffs,
        "neg": (-x).coeffs,
        "add_rational": (y - 2).coeffs,
    }
    assert got == want
    for value in got.values():
        assert type(value) is tuple and len(value) == ctx.degree
        assert all(type(c) is int for c in value)


def _sqrt2_convergents(min_denominator):
    """Consecutive convergents p/q of sqrt(2) until q exceeds min_denominator."""
    p, q = 1, 1
    out = []
    while q <= min_denominator:
        p, q = p + 2 * q, p + q
        out.append((p, q))
    return out[-2:]


def test_sign_bisects_for_close_approximations():
    # |p - q sqrt(2)| < 1/(2q) < 2^-41 for these convergents, far inside the
    # seed enclosure width of 2^-23, so only bisection can decide the sign.
    for p, q in _sqrt2_convergents(1 << 40):
        ctx = FieldContext(4)
        seed = enclosure_fractions(ctx)
        expect = 1 if p * p - 2 * q * q > 0 else -1
        assert ctx.sign_of((p, -q)) == expect
        lo, hi = enclosure_fractions(ctx)
        assert hi - lo < seed[1] - seed[0]
        assert lo * lo < 2 < hi * hi


def _assert_scaled_interval(ctx, coeffs):
    # The int interval of the cleared coefficients is the Fraction oracle's
    # interval times the lcm of the denominators and 2^(e(d-1)).
    lo, hi, e = ctx._enclosure
    den = math.lcm(*(Fraction(c).denominator for c in coeffs))
    scale = den << (e * (len(coeffs) - 1))
    want = interval_eval(coeffs, *enclosure_fractions(ctx))
    assert _scaled_horner(_cleared(coeffs), lo, hi, e) == tuple(
        x * scale for x in want
    )


def _fraction_bisection(ctx, coeffs):
    """The enclosure the Fraction sign path ends on, from ctx's enclosure:
    bisect with the Fraction minimal polynomial until zero is excluded."""
    lo, hi = enclosure_fractions(ctx)
    while True:
        a, b = interval_eval(coeffs, lo, hi)
        if a > 0 or b < 0:
            return lo, hi
        mid = (lo + hi) / 2
        if sum(c * mid**i for i, c in enumerate(ctx.minpoly)) > 0:
            hi = mid
        else:
            lo = mid


SIGN_CONTEXTS = {m: FieldContext(m) for m in (5, 7, 8, 10, 12)}


def test_seed_enclosure_is_float_plus_minus_2_to_minus_24():
    eps = Fraction(1, 1 << 24)
    for m, ctx in SIGN_CONTEXTS.items():
        y = Fraction(2.0 * math.cos(math.pi / m))
        assert enclosure_fractions(ctx) == (y - eps, y + eps)


@st.composite
def _sign_case(draw):
    ctx = SIGN_CONTEXTS[draw(st.sampled_from(sorted(SIGN_CONTEXTS)))]
    d = ctx.degree
    kind = draw(st.sampled_from(("int", "fraction", "straddle")))
    if kind == "straddle":
        # The top two coefficients nearly cancel at y, so the running
        # interval straddles zero from the second Horner step on.
        top = draw(st.integers(min_value=1 << 30, max_value=1 << 40))
        low = draw(st.lists(st.integers(-3, 3), min_size=d - 2, max_size=d - 2))
        y = 2 * math.cos(math.pi / ctx.modulus)
        return ctx, (*low, -round(top * y), top)
    if kind == "int":
        entries = st.integers(min_value=-(10**6), max_value=10**6)
    else:
        entries = st.fractions(min_value=-50, max_value=50, max_denominator=30)
    return ctx, tuple(draw(st.lists(entries, min_size=d, max_size=d)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=_sign_case())
def test_integer_interval_matches_fraction_oracle(case):
    ctx, coeffs = case
    _assert_scaled_interval(ctx, coeffs)


def test_integer_interval_after_bisections():
    # The enclosures left by the bisections above, against the oracle, and
    # the bisections themselves against the Fraction path's.
    for p, q in _sqrt2_convergents(1 << 40):
        ctx = FieldContext(4)
        want = _fraction_bisection(ctx, (p, -q))
        ctx.sign_of((p, -q))
        assert enclosure_fractions(ctx) == want
        for coeffs in ((p, -q), (q, -p), (3, -2), (Fraction(-7, 5), 1)):
            _assert_scaled_interval(ctx, coeffs)


def test_sign_memo_is_consistent():
    close = [(p, -q) for p, q in _sqrt2_convergents(1 << 40)]
    tuples = close + [(3, -2), (-1, 1), (Fraction(-7, 5), 1), (0, 0), (5, 0)]
    a, b = FieldContext(4), FieldContext(4)
    first = [a.sign_of(c) for c in tuples]
    assert first[2:] == [1, 1, 1, 0, 1]
    assert [a.sign_of(c) for c in tuples] == first
    assert set(a._signs) == set(tuples)
    # A fresh context refines its enclosure in another order, same signs.
    assert [b.sign_of(c) for c in reversed(tuples)] == first[::-1]


def _decimal_series(first, ratio):
    """Sum of a convergent series, to the current decimal precision; term k
    is term k-1 times ratio(k)."""
    total, term, k = Decimal(0), first, 0
    while total + term != total:
        total += term
        k += 1
        term *= ratio(k)
    return total


def _decimal_two_cos_pi_over(modulus):
    def arctan_inv(n):  # arctan(1/n) = sum (-1)^k / ((2k + 1) n^(2k + 1))
        return _decimal_series(
            Decimal(1) / n, lambda k: Decimal(1 - 2 * k) / ((2 * k + 1) * n * n)
        )

    x = (16 * arctan_inv(5) - 4 * arctan_inv(239)) / modulus  # Machin's pi
    return 2 * _decimal_series(Decimal(1), lambda k: -x * x / ((2 * k - 1) * (2 * k)))


ORACLE_CONTEXTS = {m: FieldContext(m) for m in (5, 7, 12)}
with localcontext() as _dctx:
    _dctx.prec = 100
    ORACLE_Y = {m: _decimal_two_cos_pi_over(m) for m in ORACLE_CONTEXTS}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    modulus=st.sampled_from(sorted(ORACLE_CONTEXTS)),
    coeffs=st.lists(
        st.fractions(min_value=-50, max_value=50, max_denominator=30),
        min_size=4,
        max_size=4,
    ),
)
def test_sign_matches_decimal_oracle(modulus, coeffs):
    ctx = ORACLE_CONTEXTS[modulus]
    x = ctx.scalar(coeffs)
    with localcontext() as dctx:
        dctx.prec = 100
        value = Decimal(0)
        for c in reversed(x.coeffs):
            value = value * ORACLE_Y[modulus] + Decimal(c.numerator) / c.denominator
    assume(abs(value) > Decimal("1e-40"))
    assert x.sign() == (1 if value > 0 else -1)
