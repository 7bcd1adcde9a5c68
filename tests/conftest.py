import itertools
import pathlib
from fractions import Fraction

import pytest

from voracious import (
    INF,
    CoxeterMatrix,
    CoxeterSystem,
    VoraciousLanguage,
    WallGeometry,
    load_group_file,
)
from voracious.field import FieldContext, add, neg, sub
from voracious.separators import SeparatorSearch

GROUPS_DIR = pathlib.Path(__file__).resolve().parent.parent / "groups"

# Groups with long pivots, built in the tests rather than shipped.
AFFINE_A3 = ((1, 3, 2, 3), (3, 1, 3, 2), (2, 3, 1, 3), (3, 2, 3, 1))
TRIANGLE_237 = ((1, 2, 3), (2, 1, 7), (3, 7, 1))
# Hyperbolic H(5,3,5): the longest pivots of any group here.  Kept out of
# BUILT, so that the tests parametrised over BUILT do not all take it.
H535 = ((1, 5, 2, 2), (5, 1, 3, 2), (2, 3, 1, 5), (2, 2, 5, 1))
# The (2,4,5) triangle group computes over Q(2 cos(pi/20)), of degree 8.
TRIANGLE_245 = ((1, 2, 4), (2, 1, 5), (4, 5, 1))
BUILT = {"affine_a3": ("abcd", AFFINE_A3), "triangle_237": ("abc", TRIANGLE_237)}


def fresh_geometry(generators, orders) -> WallGeometry:
    return WallGeometry(CoxeterSystem(CoxeterMatrix(tuple(generators), orders)))


def automorphisms(cox: CoxeterMatrix) -> list[tuple[int, ...]]:
    """All permutations of the generator indices preserving the orders."""
    k = cox.rank
    return [
        perm
        for perm in itertools.permutations(range(k))
        if all(
            cox.orders[perm[i]][perm[j]] == cox.orders[i][j]
            for i in range(k)
            for j in range(k)
        )
    ]


def inverse_of(system: CoxeterSystem, g):
    """g^{-1}: the element of a reduced word of g, reversed.

    The word is read by stepping down right descents: if g t_1 ... t_n = 1
    letter by letter, then g^{-1} = t_1 ... t_n, evaluated by right_mul.
    """
    stripped = []
    while g.length:
        s, g = system.descent_step(g)
        stripped.append(s)
    return system.element_of_word(tuple(stripped))


def left_descents(system: CoxeterSystem, g) -> tuple[int, ...]:
    """The left descents of g: the right descents of g^{-1}."""
    return system.right_descents(inverse_of(system, g))


def left_shortlex_word(system: CoxeterSystem, g):
    """Lexicographically least reduced word of g by the left walk: its
    least left descent s, then the word of s g.

    The walk the engine took before its words climbed the weak order from
    the right (WallGeometry.shortlex_word).  A left descent of x is a right
    descent of x^{-1}, and (s x)^{-1} = x^{-1} s, so the walk runs on g^{-1}
    (inverse_of) by right products.  It keeps no memo of words.
    """
    word = []
    h = inverse_of(system, g)
    while h.length:
        s = system.right_descents(h)[0]
        word.append(s)
        h = system.right_mul(h, s)
    return tuple(word)


def run_states(aut, word) -> frozenset[int]:
    """States reachable by splitting the word into consecutive edge labels
    of the automaton: those of its run's pairs at node 0 (run_pairs)."""
    return frozenset(state for state, node in aut.run_pairs(word) if not node)


def matrix_of(g):
    """The matrix of g by columns: column s is g(alpha_s), the root of
    g.walls[s], negated when s is a right descent.  The full-product
    oracles below compare elements by it."""
    return tuple(
        tuple(map(neg, wall.root)) if g.descents >> s & 1 else wall.root
        for s, wall in enumerate(g.walls)
    )


def generator_wall(geometry: WallGeometry, s: int):
    """The wall of the simple root alpha_s."""
    return geometry.system.wall_of_root(matrix_of(geometry.system.identity)[s])


def wall_set(geometry: WallGeometry, mask: int) -> frozenset:
    """The walls of a mask, as the frozenset the set assertions compare."""
    return frozenset(geometry.system.walls_of(mask))


def inversion_walls(geometry: WallGeometry, g) -> frozenset:
    """Walls separating chamber g from the identity chamber."""
    return wall_set(geometry, geometry.inversion_bits(g))


def frontier_walls(geometry: WallGeometry, g) -> frozenset:
    """The frontier walls of g."""
    return wall_set(geometry, geometry.frontier_set(g))


def walls_between(geometry: WallGeometry, g, h) -> frozenset:
    """Walls with chambers g and h on different sides."""
    return wall_set(geometry, geometry.inversion_bits(g) ^ geometry.inversion_bits(h))


def small_roots_bruteforce(geometry: WallGeometry, radius: int):
    """Small walls among all walls of the ball, tested by the shadow criterion.

    A wall W is small iff no wall disjoint from W separates the identity
    chamber from W.  Any such wall lies in Inv(D) for D the far incident
    chamber of W, so the search over Inv(D) is exhaustive.
    """
    search = SeparatorSearch(geometry)
    walls = set()
    for g in geometry.system.ball(radius):
        walls |= inversion_walls(geometry, g)
    out = []
    for wall in sorted(walls, key=geometry.output_root):
        inv = inversion_walls(geometry, incident_far_chamber(search, wall))
        if not any(
            other != wall and search.walls_disjoint(wall, other) for other in inv
        ):
            out.append(wall)
    return tuple(out)


def bilinear2(system: CoxeterSystem, u, v):
    """2B(u, v) as the sum over i of u_i times 2B(alpha_i, v), by field
    products: the oracle of SeparatorSearch.form2's integer functional."""
    mul = system.ctx.mul
    acc = (0,) * system.ctx.degree
    for i, x in enumerate(u):
        if any(x):
            acc = add(acc, mul(x, system.gram2_row_dot(i, v)))
    return acc


def reflect(system: CoxeterSystem, s: int, vec):
    """s(vec) = vec - 2B(alpha_s, vec) alpha_s, which moves coordinate s only."""
    return vec[:s] + (sub(vec[s], system.gram2_row_dot(s, vec)),) + vec[s + 1 :]


def descent_chamber(geometry: WallGeometry, wall):
    """The wall's canonical incident chamber by its own depth descent.

    While beta is not simple, the least generator s with 2B(alpha_s, beta) > 0
    reflects beta and multiplies the chamber on the right by s, from the
    identity: the per-wall walk that SeparatorSearch.incident_chamber shares
    between roots.
    """
    system = geometry.system
    beta = wall.root
    chamber = system.identity
    while beta not in matrix_of(system.identity):
        s = next(
            s
            for s in range(system.rank)
            if system.ctx.sign_of(system.gram2_row_dot(s, beta)) > 0
        )
        beta = reflect(system, s, beta)
        chamber = system.right_mul(chamber, s)
    return chamber


def incident_far_chamber(search: SeparatorSearch, wall):
    """The neighbour of incident_chamber(wall) across the wall: the chamber
    near * s for the generator s with near(alpha_s) the wall's root."""
    near = search.incident_chamber(wall)
    (s,) = [s for s, w in enumerate(near.walls) if w is wall]
    return search.system.right_mul(near, s)


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
    return _matmul(system.ctx.mul, a, b)


def _matmul(mul, a, b):
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


def translate_wall(geometry: WallGeometry, g, wall):
    """The wall g(W), by the full product of g's matrix with W's root."""
    (image,) = matmul(geometry.system, matrix_of(g), (wall.root,))
    return geometry.system.wall_of_root(image)


def generator_matrix(system: CoxeterSystem, s: int):
    """The matrix of generator s, by columns: s(alpha_j) = alpha_j - (2B)_sj alpha_s."""
    return tuple(
        col[:s] + (sub(col[s], system.gram2[s][j]),) + col[s + 1 :]
        for j, col in enumerate(matrix_of(system.identity))
    )


def two_cos_by_recurrence(ctx: FieldContext, m: int):
    """2 cos(pi/m) for m dividing ctx.modulus, as the scalar z^j + z^-j for
    z = e^(i pi/M) and j = M/m: p_0 = 2, p_1 = y, p_(k+1) = y p_k - p_(k-1).
    FieldScalar arithmetic throughout, so independent of two_cos_pi_over."""
    y = ctx.scalar([0, 1])
    prev, cur = ctx.rational(2), y
    for _ in range(ctx.modulus // m - 1):
        prev, cur = cur, y * cur - prev
    return cur


def check_full_field_products(system: CoxeterSystem, radius: int) -> int:
    """Every element of the ball against products over Q(2 cos(pi/M)).

    The engine computes over the smallest field holding 2B; its outputs are
    written over y = 2 cos(pi/M), M the lcm of every finite order.  Here the
    generator matrices are built over a FieldContext(M) of their own, and
    each element's matrix (matrix_of) and inverse, rewritten by
    CoxeterSystem.output_vector, must equal the products along its shortlex
    word, in word order and reversed.  Every coordinate must have one sign
    in both fields.  Each element's walls and descent bits must match the
    full product's columns: column s is the root of walls[s], rewritten,
    and it is negative exactly when bit s is set.  Returns the number of
    elements checked.
    """
    cox = system.cox
    wide = FieldContext(cox.field_modulus())
    zero = wide.zero.coeffs
    k = system.rank

    def form(i, j):
        m = cox.orders[i][j]
        if i == j:
            return wide.rational(2)
        return wide.rational(-2) if m == INF else -two_cos_by_recurrence(wide, m)

    # s(alpha_j) = alpha_j - 2B(alpha_s, alpha_j) alpha_s, by columns.
    ident = tuple(
        tuple(wide.one.coeffs if i == j else zero for i in range(k)) for j in range(k)
    )
    gens = [
        tuple(
            col[:s] + (sub(col[s], form(s, j).coeffs),) + col[s + 1 :]
            for j, col in enumerate(ident)
        )
        for s in range(k)
    ]
    products = {(): (ident, ident)}
    ball = system.ball(radius)
    for g in ball:
        word = left_shortlex_word(system, g)
        if word:
            mat, inv = products[word[:-1]]  # the ball is in length order
            gen = gens[word[-1]]
            products[word] = (
                _matmul(wide.mul, mat, gen),
                _matmul(wide.mul, gen, inv),
            )
        full_g = products[word][0]
        for s, (wall, col) in enumerate(zip(g.walls, full_g)):
            negative = any(wide.sign_of(z) < 0 for z in col)
            assert negative == bool(g.descents >> s & 1)
            assert system.output_vector(wall.root) == (
                tuple(map(neg, col)) if negative else col
            )
        inv = matrix_of(inverse_of(system, g))
        for narrow, full in zip((matrix_of(g), inv), products[word]):
            assert tuple(map(system.output_vector, narrow)) == full
            for col, full_col in zip(narrow, full):
                for x, z in zip(col, full_col):
                    assert system.ctx.sign_of(x) == wide.sign_of(z)
    return len(ball)


def element_of_matrix(system: CoxeterSystem, matrix):
    """The system's element with this matrix, checked against full products.

    Right descents are stripped with full products against the generator
    matrices; the stripped generators, reversed, spell a reduced word, and
    their product in stripping order is the inverse.  The engine evaluates
    the word with right_mul, and the element it returns must carry this
    matrix and that length, and its inverse (inverse_of) that inverse
    matrix.  The oracle itself stores nothing in the system, so every
    element it sees was built by the engine.
    """
    ident = matrix_of(system.identity)
    stripped = []
    cur, inv = matrix, ident
    while cur != ident:
        s = next(s for s in range(system.rank) if system.root_sign(cur[s]) < 0)
        gen = generator_matrix(system, s)
        cur = matmul(system, cur, gen)
        inv = matmul(system, inv, gen)
        stripped.append(s)
    out = system.element_of_word(tuple(reversed(stripped)))
    assert matrix_of(out) == matrix
    assert matrix_of(inverse_of(system, out)) == inv
    assert out.length == len(stripped)
    return out


def multiply(system: CoxeterSystem, g, h):
    """g * h by a full matrix product, as the system's checked element."""
    return element_of_matrix(system, matmul(system, matrix_of(g), matrix_of(h)))


def reflection_of_wall(geometry: WallGeometry, wall):
    """The reflection v -> v - 2B(beta, v) beta fixing the wall, as the
    system's checked element; its column j is alpha_j - 2B(alpha_j, beta) beta."""
    system = geometry.system
    k = system.rank
    beta = wall.root
    coefs = [system.gram2_row_dot(j, beta) for j in range(k)]
    ident = matrix_of(system.identity)
    matrix = tuple(
        tuple(sub(ident[j][i], system.ctx.mul(beta[i], coefs[j])) for i in range(k))
        for j in range(k)
    )
    out = element_of_matrix(system, matrix)
    assert inverse_of(system, out) is out, "a reflection is its own inverse"
    return out


def reference_find_separator(search: SeparatorSearch, g, wall, candidates):
    """Least candidate wall, by output root, that separates chamber g from wall.

    The key-sorted search the engine used before it reported existence only.
    Sides are read from the frozenset inversion sets and disjointness from
    2B directly, compared as a FieldScalar, so no disjointness memo is
    consulted.
    """
    geometry = search.geometry
    inv_g = inversion_walls(geometry, g)
    inv_near = inversion_walls(geometry, search.incident_chamber(wall))
    scalar = geometry.system.ctx.scalar
    for sep in sorted(candidates, key=geometry.output_root):
        if sep == wall:
            continue
        t = scalar(bilinear2(geometry.system, sep.root, wall.root))
        if -2 < t < 2:
            continue
        if (sep in inv_g) != (sep in inv_near):
            return sep
    return None


def shortlex_inversion_bits(geometry: WallGeometry, g) -> int:
    """Inv(g) as a mask, read off the left walk's shortlex word.

    Along the shortlex word s_1 ... s_n of g, step i crosses the wall of
    p(alpha_s) for s = s_i and the prefix p = s_1 ... s_{i-1}; the walls
    crossed are distinct and are Inv(g).  Reads no memoised mask.
    """
    system = geometry.system
    bits = 0
    prefix = system.identity
    for s in left_shortlex_word(system, g):
        bits |= system.wall_of_root(matrix_of(prefix)[s]).bit
        prefix = system.right_mul(prefix, s)
    assert bits.bit_count() == g.length
    return bits


def inverse_matrix(system: CoxeterSystem, g):
    """The matrix of g^{-1} by full products of the generator matrices, in
    the order right descents come off g (see inverse_of)."""
    out = matrix_of(system.identity)
    while g.length:
        s, g = system.descent_step(g)
        out = matmul(system, out, generator_matrix(system, s))
    return out


def reference_pull_back(geometry: WallGeometry, g, mask: int) -> int:
    """The mask of the walls g^{-1}(W), for the inversion walls W of g in
    mask, by the definition: each root under the full-product matrix of
    g^{-1}, and the wall of the image."""
    assert mask & ~geometry.inversion_bits(g) == 0
    system = geometry.system
    inv = inverse_matrix(system, g)
    out = 0
    for wall in system.walls_of(mask):
        (image,) = matmul(system, inv, (wall.root,))
        out |= system.wall_of_root(image).bit
    return out


def greedy_projection_pair(geometry: WallGeometry, g):
    """(p(g), p(g)^{-1} g) by the greedy walk that carries both factors.

    From p = 1 and x = g, the least s moves that is a left descent of x, so
    that p s stays a prefix of g, and whose wall p(alpha_s) is not a frontier
    wall of g; then p becomes p s and x becomes s x, until no s moves.  The
    walk carries x^{-1} (inverse_of), whose right descents are the left
    descents of x, and (s x)^{-1} = x^{-1} s.
    """
    system = geometry.system
    frontier = geometry.frontier_set(g)
    p, xi = system.identity, inverse_of(system, g)
    while True:
        for s in range(system.rank):
            if system.root_sign(matrix_of(xi)[s]) < 0 and not (
                system.wall_of_root(matrix_of(p)[s]).bit & frontier
            ):
                p = system.right_mul(p, s)
                xi = system.right_mul(xi, s)
                break
        else:
            return p, inverse_of(system, xi)


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
        self.separators = SeparatorSearch(self.geometry)

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


def pull_back_target(geometry: WallGeometry, q) -> int:
    """target(q) by the rule the Brink-Howlett transition replaces: the
    frontier of q pulled back along the reversed word of q."""
    return geometry.pull_back(q, geometry.frontier_set(q))


def sorted_pivot_search(geometry: WallGeometry):
    """The pivots by projection search, the route that the automaton's pass
    over the shortlex tree replaced: a breadth-first search that extends
    only elements whose voracious projection is the identity, in discovery
    order, then a sort by (length, shortlex word), the words by the left
    walk (left_shortlex_word)."""
    sys_ = geometry.system
    seen = {sys_.identity}
    layer = [sys_.identity]
    out = []
    while layer:
        nxt = []
        for g in layer:
            for s in range(sys_.rank):
                h = sys_.right_mul(g, s)
                if h.length > g.length and h not in seen:
                    seen.add(h)
                    if geometry.voracious_projection(h) is sys_.identity:
                        nxt.append(h)
        out.extend(nxt)
        layer = nxt
    out.sort(key=lambda g: (g.length, left_shortlex_word(sys_, g)))
    return tuple(out)


def separator_route(geometry: WallGeometry):
    """(words, targets, forbid, children) of the automaton by the route that
    its pass over the shortlex tree replaced.

    The pivots by projection search (sorted_pivot_search), with their words
    by the left walk; each target as the mask of q's frontier pulled back
    (pull_back_target); forbid(q) as the universe walls in Inv(q) or with no
    separator from chamber q (SeparatorSearch.has_separator); and children[n][s]
    the node of h s for each h s longer than the element h of node n, where
    both are nodes, found through the right descents of each pivot.
    """
    from voracious import small_roots

    sys_ = geometry.system
    search = SeparatorSearch(geometry)
    universe = small_roots(geometry)
    pivot_list = sorted_pivot_search(geometry)
    node = {sys_.identity: 0, **{q: n for n, q in enumerate(pivot_list, 1)}}
    children = [[0] * sys_.rank for _ in node]
    targets, forbid = [], []
    for q in pivot_list:
        for s in sys_.right_descents(q):
            children[node[sys_.right_mul(q, s)]][s] = node[q]
        targets.append(pull_back_target(geometry, q))
        inv = geometry.inversion_bits(q)
        forbid.append(sum(
            wall.bit
            for wall in universe
            if inv & wall.bit or not search.has_separator(q, wall)
        ))
    words = [left_shortlex_word(sys_, q) for q in pivot_list]
    return words, targets, forbid, children


def climb_word_problem(geometry: WallGeometry, word) -> str | None:
    """Why a pivot word is refused, by the checks that the automaton's pass
    replaced in the loader, or None for a pivot's shortlex word: the
    element's length, the shortlex word that the climb spells
    (WallGeometry.shortlex_word) and the voracious projection."""
    sys_ = geometry.system
    g = sys_.element_of_word(word)
    if not word or g.length != len(word):
        return "is empty or not reduced"
    if geometry.shortlex_word(g) != word:
        return "is not the shortlex word of its element"
    if geometry.voracious_projection(g) is not sys_.identity:
        return "is not a pivot: its projection is not the identity"
    return None


def may_take_automaton_oracle(geometry: WallGeometry):
    """(states, edges) of the automaton by the rule the masks replace.

    A state may take pivot w iff none of its walls is an inversion wall of w
    and each of its walls admits a separator from chamber w; the edge enters
    w^{-1} W(w).  The separator test is memoised per (pivot, wall) and run
    state by state, and the states are found by a breadth-first search from
    the empty one.  States are sorted by (size, walls), and the edges, as
    (source, target, pivot word), by source and then by pivot.
    """
    from voracious import pivots, small_roots

    sys_ = geometry.system
    search = SeparatorSearch(geometry)
    universe = small_roots(geometry)
    uindex = {w: i for i, w in enumerate(universe)}
    pivot_list = pivots(geometry)
    targets = [
        tuple(sorted(
            uindex[v] for v in wall_set(geometry, pull_back_target(geometry, w))
        ))
        for w in pivot_list
    ]
    separated = [{} for _ in pivot_list]

    def may_take(pi, state):
        w = pivot_list[pi]
        if any(geometry.inversion_bits(w) & universe[v].bit for v in state):
            return False
        memo = separated[pi]
        for v in state:
            if v not in memo:
                memo[v] = search.has_separator(w, universe[v])
            if not memo[v]:
                return False
        return True

    order = [()]
    known = {()}
    raw = []
    for a in order:
        for pi, t in enumerate(targets):
            if may_take(pi, a):
                if t not in known:
                    known.add(t)
                    order.append(t)
                raw.append((a, pi, t))
    states = tuple(sorted(order, key=lambda st: (len(st), st)))
    sindex = {st: i for i, st in enumerate(states)}
    words = [left_shortlex_word(sys_, w) for w in pivot_list]
    edges = [(sindex[a], sindex[t], words[pi]) for a, pi, t in raw]
    edges.sort(key=lambda e: (e[0], len(e[2]), e[2]))
    return states, edges
