import pathlib
from fractions import Fraction

import pytest

from voracious import (
    CoxeterMatrix,
    CoxeterSystem,
    VoraciousLanguage,
    WallGeometry,
    load_group_file,
)
from voracious.field import add, sub

GROUPS_DIR = pathlib.Path(__file__).resolve().parent.parent / "groups"

# Groups with long pivots, built in the tests rather than shipped.
AFFINE_A3 = ((1, 3, 2, 3), (3, 1, 3, 2), (2, 3, 1, 3), (3, 2, 3, 1))
TRIANGLE_237 = ((1, 2, 3), (2, 1, 7), (3, 7, 1))
BUILT = {"affine_a3": ("abcd", AFFINE_A3), "triangle_237": ("abc", TRIANGLE_237)}


def fresh_geometry(generators, orders) -> WallGeometry:
    return WallGeometry(CoxeterSystem(CoxeterMatrix(tuple(generators), orders)))


def small_roots_bruteforce(geometry: WallGeometry, radius: int):
    """Small walls among all walls of the ball, tested by the shadow criterion.

    A wall W is small iff no wall disjoint from W separates the identity
    chamber from W.  Any such wall lies in Inv(D) for D the far incident
    chamber of W, so the search over Inv(D) is exhaustive.
    """
    walls = set()
    for g in geometry.system.ball(radius):
        walls |= geometry.inversion_walls(g)
    out = []
    for wall in sorted(walls, key=lambda w: w.root):
        inv = geometry.inversion_walls(incident_far_chamber(geometry, wall))
        if not any(
            other != wall and geometry.walls_disjoint(wall, other) for other in inv
        ):
            out.append(wall)
    return tuple(out)


def incident_far_chamber(geometry: WallGeometry, wall):
    """The neighbour of incident_chamber(wall) across the wall: the chamber
    near * s for the generator s with near(alpha_s) the wall's root."""
    near = geometry.incident_chamber(wall)
    (s,) = [
        s for s, root in enumerate(near.matrix) if geometry.wall_of_root(root) == wall
    ]
    return geometry.system.right_mul(near, s)


def positive_definite_sylvester(system: CoxeterSystem) -> bool:
    """Whether 2B is positive definite, so the group finite, by Sylvester's
    criterion: every leading principal minor is positive.

    A minor on rows 0..r-1 and a column subset is expanded along row r - 1
    and memoised by its columns.  Exact and integer-only, and independent of
    the small-root closure behind CoxeterSystem.is_finite.
    """
    ctx, gram2 = system.ctx, system.gram2
    zero = (0,) * ctx.degree
    memo = {(): (1,) + zero[1:]}

    def minor(cols):
        got = memo.get(cols)
        if got is None:
            r = len(cols) - 1
            got = zero
            for i, c in enumerate(cols):
                term = ctx.mul(gram2[r][c], minor(cols[:i] + cols[i + 1 :]))
                got = sub(got, term) if (r + i) % 2 else add(got, term)
            memo[cols] = got
        return got

    return all(
        ctx.sign_of(minor(tuple(range(r)))) > 0 for r in range(1, system.rank + 1)
    )


def interval_eval(coeffs, lo: Fraction, hi: Fraction):
    """Horner evaluation with exact Fraction interval endpoints: the oracle of
    the integer interval evaluation behind FieldContext.sign_of."""
    alo = ahi = Fraction(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        ps = (alo * lo, alo * hi, ahi * lo, ahi * hi)
        alo = min(ps) + c
        ahi = max(ps) + c
    return alo, ahi


def enclosure_fractions(ctx):
    """A context's enclosure (lo, hi, e) of y as the Fractions lo/2^e, hi/2^e."""
    lo, hi, e = ctx._enclosure
    return Fraction(lo, 1 << e), Fraction(hi, 1 << e)


def matmul(system: CoxeterSystem, a, b):
    """Full product of two matrices of coefficient tuples, each given as the
    tuple of its columns; the product comes back the same way."""
    mul = system.ctx.mul
    rows = tuple(zip(*a))
    out = []
    for col in b:
        new = []
        for row in rows:
            acc = mul(row[0], col[0])
            for x, y in zip(row[1:], col[1:]):
                acc = add(acc, mul(x, y))
            new.append(acc)
        out.append(tuple(new))
    return tuple(out)


def generator_matrix(system: CoxeterSystem, s: int):
    """The matrix of generator s, by columns: s(alpha_j) = alpha_j - (2B)_sj alpha_s."""
    return tuple(
        col[:s] + (sub(col[s], system.gram2[s][j]),) + col[s + 1 :]
        for j, col in enumerate(system.identity.matrix)
    )


def element_of_matrix(system: CoxeterSystem, matrix):
    """The system's element with this matrix, checked against full products.

    Right descents are stripped with full products against the generator
    matrices; the stripped generators, reversed, spell a reduced word, and
    their product in stripping order is the inverse.  The engine evaluates
    the word with right_mul, and the element it returns must carry this
    matrix, that inverse and that length.  The oracle itself stores nothing
    in the system, so every element it sees was built by the engine.
    """
    ident = system.identity.matrix
    stripped = []
    cur, inv = matrix, ident
    while cur != ident:
        s = next(s for s in range(system.rank) if system.root_sign(cur[s]) < 0)
        gen = generator_matrix(system, s)
        cur = matmul(system, cur, gen)
        inv = matmul(system, inv, gen)
        stripped.append(s)
    out = system.element_of_word(tuple(reversed(stripped)))
    assert out.matrix == matrix
    assert out.inv == inv
    assert out.length == len(stripped)
    return out


def multiply(system: CoxeterSystem, g, h):
    """g * h by a full matrix product, as the system's checked element."""
    return element_of_matrix(system, matmul(system, g.matrix, h.matrix))


def reflection_of_wall(geometry: WallGeometry, wall):
    """The reflection v -> v - 2B(beta, v) beta fixing the wall, as the
    system's checked element; its column j is alpha_j - 2B(alpha_j, beta) beta."""
    system = geometry.system
    k = system.rank
    beta = wall.root
    coefs = [system.gram2_row_dot(j, beta) for j in range(k)]
    ident = system.identity.matrix
    matrix = tuple(
        tuple(sub(ident[j][i], system.ctx.mul(beta[i], coefs[j])) for i in range(k))
        for j in range(k)
    )
    out = element_of_matrix(system, matrix)
    assert out.inv == matrix, "a reflection is its own inverse"
    return out


def reference_find_separator(geometry: WallGeometry, g, wall, candidates):
    """Least candidate wall, by root key, that separates chamber g from wall.

    The key-sorted search the engine used before it reported existence only.
    Sides are read from the frozenset inversion sets and disjointness from
    2B directly, compared as a FieldScalar, so no disjointness memo is
    consulted.
    """
    inv_g = geometry.inversion_walls(g)
    inv_near = geometry.inversion_walls(geometry.incident_chamber(wall))
    scalar = geometry.system.ctx.scalar
    for sep in sorted(candidates, key=lambda w: w.root):
        if sep == wall:
            continue
        t = scalar(geometry.system.bilinear2(sep.root, wall.root))
        if -2 < t < 2:
            continue
        if (sep in inv_g) != (sep in inv_near):
            return sep
    return None


def is_prefix(geometry: WallGeometry, p, g) -> bool:
    """p lies on a geodesic from the identity to g: Inv(p) is a subset of Inv(g)."""
    inv_g = geometry.inversion_bits(g)
    return geometry.inversion_bits(p) | inv_g == inv_g


def projection_monotone_bruteforce(geometry: WallGeometry, radius: int):
    """(pairs, holds) for prefix monotonicity of p over every pair of the ball.

    The quadratic scan the verifier made before it walked weak-order
    intervals: each (g, g') with p(g) <= g' <= g in the prefix order is a
    pair, and it holds when p(g') <= p(g).
    """
    ball = geometry.system.ball(radius)
    proj = geometry.voracious_projection
    pairs = 0
    holds = True
    for g in ball:
        pg = proj(g)
        for g2 in ball:
            if is_prefix(geometry, pg, g2) and is_prefix(geometry, g2, g):
                pairs += 1
                holds &= is_prefix(geometry, proj(g2), pg)
    return pairs, holds


class Stack:
    """Shared per-group computation stack; caches carry across tests."""

    def __init__(self, name: str):
        self.name = name
        self.cox = load_group_file(str(GROUPS_DIR / f"{name}.json"))
        self.system = CoxeterSystem(self.cox)
        self.geometry = WallGeometry(self.system)
        self.language = VoraciousLanguage(self.geometry)

    def element(self, text: str):
        from voracious import word_from_string

        word = word_from_string(text, self.cox.generators)
        return self.system.element_of_word(word)

    def word(self, text: str):
        from voracious import word_from_string

        return word_from_string(text, self.cox.generators)


_CACHE: dict[str, Stack] = {}


@pytest.fixture(scope="session")
def stack():
    def get(name: str) -> Stack:
        if name not in _CACHE:
            _CACHE[name] = Stack(name)
        return _CACHE[name]

    return get
