import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voracious import CoxeterSystem, WallGeometry, small_roots
from voracious.field import neg
from voracious.separators import SeparatorSearch

from conftest import (
    BUILT,
    GROUPS_DIR,
    H535,
    TRIANGLE_245,
    bilinear2,
    descent_chamber,
    fresh_geometry,
    frontier_walls,
    generator_wall,
    greedy_projection_pair,
    incident_far_chamber,
    inverse_matrix,
    inverse_of,
    inversion_walls,
    is_prefix,
    join_root,
    matrix_of,
    reference_find_separator,
    multiply,
    reflection_of_wall,
    left_shortlex_word,
    reference_pull_back,
    shortlex_inversion_bits,
    split_root,
    translate_wall,
    wall_set,
    walls_between,
)

GOLD_BALL_RADIUS = 4
SHIPPED = sorted(p.stem for p in GROUPS_DIR.glob("*.json"))
# Built only where a test names them: H(5,3,5) has the longest pivots, and
# (2,4,5) the largest field degree (8) of any group the tests build.
LARGE = {"h535": ("abcd", H535), "triangle_245": ("abc", TRIANGLE_245)}
CONFTEST_GROUPS = SHIPPED + sorted(BUILT) + sorted(LARGE)


def _fresh_geometry(stack, name):
    if name in BUILT:
        return fresh_geometry(*BUILT[name])
    if name in LARGE:
        return fresh_geometry(*LARGE[name])
    cox = stack(name).cox
    return fresh_geometry(cox.generators, cox.orders)


def _wall_at(s, coords):
    ctx = s.system.ctx
    return s.system.wall_of_root(join_root(ctx.rational(c).coeffs for c in coords))


def _coords(wall):
    # Exact root coordinates; only usable in rank-2 groups whose field is
    # rational.
    coords = split_root(wall.root, 2)
    assert all(not any(x[1:]) for x in coords)
    return tuple(x[0] for x in coords)


def test_generator_walls(stack):
    a2 = stack("a2")
    assert _coords(generator_wall(a2.geometry, 0)) == (1, 0)
    assert _coords(generator_wall(a2.geometry, 1)) == (0, 1)


def test_wall_normalization(stack):
    a2 = stack("a2")
    ctx = a2.system.ctx
    pos = a2.system.wall_of_root(join_root((ctx.rational(1).coeffs,) * 2))
    neg = a2.system.wall_of_root(join_root((ctx.rational(-1).coeffs,) * 2))
    assert pos is neg  # interned and sign-normalized


def test_inversion_walls_frozen(stack):
    dinf = stack("d_infinity")
    inv = inversion_walls(dinf.geometry, dinf.element("sts"))
    assert {_coords(w) for w in inv} == {(1, 0), (2, 1), (3, 2)}
    a2 = stack("a2")
    inv = inversion_walls(a2.geometry, a2.element("st"))
    assert {_coords(w) for w in inv} == {(1, 0), (1, 1)}
    assert inversion_walls(a2.geometry, a2.system.identity) == frozenset()


def test_inversion_count_is_length(stack):
    for name in ("a2", "d_infinity", "triangle_334"):
        s = stack(name)
        for g in s.system.ball(GOLD_BALL_RADIUS):
            assert len(inversion_walls(s.geometry, g)) == g.length


def test_inversion_bits_match_walls(stack):
    for name in ("a2", "d_infinity", "triangle_334", "a3"):
        s = stack(name)
        geo = s.geometry
        for g in s.system.ball(GOLD_BALL_RADIUS):
            bits = geo.inversion_bits(g)
            assert bits.bit_count() == g.length
            walls = inversion_walls(geo, g)
            assert sum(w.bit for w in walls) == bits
            assert walls == {w for w in geo.system._by_index if w.bit & bits}


def test_roots_are_positive(stack):
    s = stack("triangle_334")
    sign_of = s.system.ctx.sign_of
    for g in s.system.ball(GOLD_BALL_RADIUS):
        for wall in inversion_walls(s.geometry, g):
            coords = split_root(wall.root, s.system.rank)
            assert all(sign_of(x) >= 0 for x in coords)
            assert any(sign_of(x) > 0 for x in coords)


def test_on_identity_side(stack):
    dinf = stack("d_infinity")
    geo = dinf.geometry
    ws = generator_wall(geo, 0)
    assert not geo.inversion_bits(dinf.system.identity) & ws.bit
    assert geo.inversion_bits(dinf.element("s")) & ws.bit
    assert not geo.inversion_bits(dinf.element("t")) & ws.bit


def test_walls_between(stack):
    a2 = stack("a2")
    geo = a2.geometry
    g = a2.element("st")
    assert walls_between(geo, g, g) == frozenset()
    assert walls_between(geo, a2.system.identity, g) == inversion_walls(geo, g)
    between = walls_between(geo, a2.element("s"), a2.element("t"))
    assert {_coords(w) for w in between} == {(1, 0), (0, 1)}


def test_is_prefix(stack):
    a2 = stack("a2")
    geo = a2.geometry
    assert is_prefix(geo, a2.system.identity, a2.element("st"))
    assert is_prefix(geo, a2.element("s"), a2.element("st"))
    assert not is_prefix(geo, a2.element("t"), a2.element("st"))
    assert is_prefix(geo, a2.element("t"), a2.element("sts"))  # longest element
    dinf = stack("d_infinity")
    assert not is_prefix(dinf.geometry, dinf.element("t"), dinf.element("st"))


def test_walls_disjoint_frozen(stack):
    a2 = stack("a2")
    assert not a2.separators.walls_disjoint(
        generator_wall(a2.geometry, 0), generator_wall(a2.geometry, 1)
    )
    dinf = stack("d_infinity")
    geo, search = dinf.geometry, dinf.separators
    assert search.walls_disjoint(generator_wall(geo, 0), generator_wall(geo, 1))
    assert search.walls_disjoint(_wall_at(dinf, (2, 1)), _wall_at(dinf, (3, 2)))
    assert not a2.separators.walls_disjoint(
        generator_wall(a2.geometry, 0), _wall_at(a2, (1, 1))
    )
    with pytest.raises(ValueError):
        search.walls_disjoint(generator_wall(geo, 0), generator_wall(geo, 0))


@pytest.mark.parametrize("name", ["triangle_334", "affine_a3"])
def test_disjoint_bits_symmetric(stack, name):
    # Decide each pair of ball(4) walls once, in one direction, on a fresh
    # geometry; both walls' masks must then record the |2B| >= 2 answer.
    geo = _fresh_geometry(stack, name)
    search = SeparatorSearch(geo)
    walls = set()
    for g in geo.system.ball(4):
        walls |= inversion_walls(geo, g)
    walls = sorted(walls, key=lambda w: w.bit)
    scalar = geo.system.ctx.scalar
    for a, b in itertools.combinations(walls, 2):
        t = scalar(bilinear2(geo.system, a.root, b.root))
        assert search.walls_disjoint(a, b) == (t >= 2 or t <= -2)
    known, disjoint = search._known, search._disjoint
    for a, b in itertools.permutations(walls, 2):
        assert known[a] & b.bit
        assert bool(disjoint[a] & b.bit) == bool(disjoint[b] & a.bit)
        assert search.walls_disjoint(b, a) == bool(disjoint[a] & b.bit)


def test_frontier_bilinear_calls_frozen(stack, monkeypatch):
    # Frontiers step Brink-Howlett states through the small-root steps, so
    # on every group, once the steps are built, the frontiers of ball(8) in
    # a fresh geometry evaluate no 2B: with CoxeterSystem.gram2_row_dot,
    # behind every 2B and every sign of one, made to fail, they still
    # succeed.
    def refuse(*args):
        raise AssertionError("a frontier evaluated 2B")

    for name in CONFTEST_GROUPS:
        geo = _fresh_geometry(stack, name)
        ball = geo.system.ball(8)
        geo.system.small_steps()
        monkeypatch.setattr(CoxeterSystem, "gram2_row_dot", refuse)
        for g in ball:
            geo.frontier_set(g)
        monkeypatch.undo()


@pytest.mark.parametrize(
    "name", [*SHIPPED, "affine_a3", "triangle_237", "h535", "triangle_245"]
)
def test_form2_matches_field_products(stack, name):
    # Each wall's integer functional gives the coefficient tuple of 2B that
    # field products give, on every ordered pair of ball(6) walls, a wall
    # with itself included.  (2,3,7) and (2,4,5) have fields of degree 3 and
    # 8, so the functional's reduction of y^d is exercised.
    geo = _fresh_geometry(stack, name)
    search = SeparatorSearch(geo)
    walls = set()
    for g in geo.system.ball(6):
        walls |= inversion_walls(geo, g)
    for a, b in itertools.product(walls, repeat=2):
        assert search.form2(a, b) == bilinear2(geo.system, a.root, b.root)


@pytest.mark.parametrize("name", ["triangle_334", "affine_a3", "triangle_237", "h535"])
def test_incident_chamber_matches_per_wall_descent(stack, name):
    # The descents share their chambers through a memo by root; each wall's
    # chamber must still be the one its own descent reaches, and the shared
    # walk makes no walls.  Deepest walls first, so the memo fills from long
    # descents before short ones are asked for.
    geo = _fresh_geometry(stack, name)
    walls = set()
    for g in geo.system.ball(8):
        walls |= inversion_walls(geo, g)
    made = len(geo.system._by_index)
    order = sorted(walls, key=lambda w: descent_chamber(geo, w).length, reverse=True)
    search = SeparatorSearch(geo)
    got = {wall: search.incident_chamber(wall) for wall in order}
    assert len(geo.system._by_index) == made
    for wall in order:
        assert got[wall] is descent_chamber(geo, wall)


def test_incident_chamber_frozen(stack):
    a2 = stack("a2")
    geo, search = a2.geometry, a2.separators
    # The wall of a simple generator touches the identity chamber.
    assert search.incident_chamber(generator_wall(geo, 0)) == a2.system.identity
    assert incident_far_chamber(search, generator_wall(geo, 0)) == a2.element("s")
    # The long root's wall in the triangle tiling touches chamber s.
    mid = _wall_at(a2, (1, 1))
    assert search.incident_chamber(mid) == a2.element("s")
    assert incident_far_chamber(search, mid) == a2.element("st")
    dinf = stack("d_infinity")
    search = dinf.separators
    assert search.incident_chamber(_wall_at(dinf, (2, 1))) == dinf.element("s")
    assert search.incident_chamber(_wall_at(dinf, (3, 2))) == dinf.element("st")


def test_incident_chamber_is_adjacent_to_wall(stack):
    # The chamber pair returned for a wall is swapped by its reflection.
    for name in ("d_infinity", "triangle_334"):
        s = stack(name)
        geo, search = s.geometry, s.separators
        walls = set()
        for g in s.system.ball(GOLD_BALL_RADIUS):
            walls |= inversion_walls(geo, g)
        for wall in walls:
            near = search.incident_chamber(wall)
            far = incident_far_chamber(search, wall)
            refl = reflection_of_wall(geo, wall)
            assert multiply(s.system, refl, near) == far
            assert walls_between(geo, near, far) == {wall}


def test_incident_chambers_share_side_of_disjoint_walls(stack):
    # All chambers touching a wall lie on the same side of any wall disjoint
    # from it; checked over every incident chamber found in a ball.
    s = stack("triangle_334")
    geo = s.geometry
    ball = s.system.ball(GOLD_BALL_RADIUS + 1)
    touching: dict = {}
    for g in ball:
        for s_idx in range(s.cox.rank):
            h = s.system.right_mul(g, s_idx)
            wall = translate_wall(geo, g, generator_wall(geo, s_idx))
            touching.setdefault(wall, set()).add(g)
    walls = list(touching)
    for a, b in itertools.combinations(walls, 2):
        if not s.separators.walls_disjoint(a, b):
            continue
        sides = {not geo.inversion_bits(g) & b.bit for g in touching[a]}
        assert len(sides) == 1


CROSSING_GROUPS = ("triangle_334", "affine_a3", "triangle_237")


@pytest.mark.parametrize("name", CROSSING_GROUPS)
def test_crossing_chambers_and_prefix_masks(stack, name):
    # From each chamber p of ball(6), the step to p s crosses the wall
    # p.walls[s] alone; every mask the walks stored, for each element they
    # passed, is the inversion set a fresh geometry derives for it.
    geo = _fresh_geometry(stack, name)
    sys = geo.system
    for p in sys.ball(6):
        for s, wall in enumerate(p.walls):
            assert walls_between(geo, p, sys.right_mul(p, s)) == {wall}
    assert len(geo._inv_bits) >= len(sys.ball(6))
    for p, mask in geo._inv_bits.items():
        fresh = WallGeometry(sys)
        want = {w.root for w in inversion_walls(fresh, p)}
        assert {w.root for w in sys.walls_of(mask)} == want


@pytest.mark.parametrize("name", CROSSING_GROUPS)
def test_one_wall_per_root(stack, name):
    # wall_of_root makes one wall per positive root, reached from either
    # sign, and column s of each element is the root of its walls[s]; the
    # walls are the system's, so every geometry over it shares them.
    geo = _fresh_geometry(stack, name)
    sys = geo.system
    for g in sys.ball(6):
        for wall, column in zip(g.walls, matrix_of(g)):
            root = join_root(column)
            assert sys.wall_of_root(root) is wall
            assert sys.wall_of_root(neg(root)) is wall
            assert sys.wall_of_root(wall.root) is wall
    other = WallGeometry(sys)
    for s in range(sys.rank):
        assert generator_wall(other, s) is generator_wall(geo, s)
    g = sys.ball(6)[-1]
    assert other.inversion_bits(g) == geo.inversion_bits(g)


@pytest.mark.parametrize("name", CROSSING_GROUPS)
def test_pull_back_matches_translate_wall(stack, name):
    # pull_back, which reads the walls along the reversed word, moves each
    # wall by g^{-1} as conftest's translate_wall and reference_pull_back
    # do, each by full products.
    geo = _fresh_geometry(stack, name)
    sys = geo.system
    for g in sys.ball(6):
        inv = geo.inversion_bits(g)
        gi = inverse_of(sys, g)
        want = {translate_wall(geo, gi, w) for w in sys.walls_of(inv)}
        assert wall_set(geo, geo.pull_back(g, inv)) == want
        assert wall_set(geo, reference_pull_back(geo, g, inv)) == want
        front = geo.frontier_set(g)
        assert geo.pull_back(g, front) == reference_pull_back(geo, g, front)
    g = sys.element_of_word((0,))
    with pytest.raises(ValueError, match="inversion walls"):
        geo.pull_back(g, generator_wall(geo, 1).bit)


@pytest.mark.parametrize("name", SHIPPED + sorted(BUILT))
def test_chamber_walks_match_oracles(stack, monkeypatch, name):
    # Over ball(6), the stepped-down masks, the pull-back along the
    # reversed word, the greedy walk on masks and the lazy block equal what
    # the shortlex and (p, x) walks and the full-product pull-back of
    # conftest find.  The engine answers first, so the oracles, which build
    # inverses of their own, cannot feed its memos.
    # Each ball element steps down to a built product, so the masks of the
    # ball make no product.
    geo = _fresh_geometry(stack, name)
    sys = geo.system
    ball = sys.ball(6)
    make = sys._element
    products = []
    monkeypatch.setattr(sys, "_element", lambda *a: products.append(a) or make(*a))
    masks = [geo.inversion_bits(g) for g in ball]
    assert not products
    monkeypatch.undo()
    got = [
        (
            geo.pull_back(g, geo.frontier_set(g)),
            geo.voracious_projection(g),
            geo.projection_block(g),
        )
        for g in ball
    ]
    for g, bits, (back, p, x) in zip(ball, masks, got):
        assert bits == shortlex_inversion_bits(geo, g)
        assert back == reference_pull_back(geo, g, geo.frontier_set(g))
        assert (p, x) == greedy_projection_pair(geo, g)
        assert p.length + x.length == g.length
        # The block's word is the climb's letters, which its memo holds.
        assert geo.shortlex_word(x) == left_shortlex_word(sys, x)
        assert sys.element_of_word(geo.shortlex_word(p) + geo.shortlex_word(x)) is g


@pytest.mark.parametrize("name", CROSSING_GROUPS)
def test_inversion_bits_step_down_from_scratch(stack, name):
    # In a fresh system, g^{-1} made from its full-product matrix has no
    # built product with a generator, so its mask steps down from scratch,
    # building each step; every mask stored on the way equals the shortlex
    # walk's.
    source = _fresh_geometry(stack, name).system
    for g in source.ball(6):
        geo = _fresh_geometry(stack, name)
        sys = geo.system
        cols = inverse_matrix(source, g)
        roots = tuple(map(join_root, cols))
        descents = sum(1 << s for s, r in enumerate(roots) if sys.root_sign(r) < 0)
        h = sys._element(tuple(map(sys.wall_of_root, roots)), descents, g.length)
        assert h.products == [None] * sys.rank
        assert geo.inversion_bits(h).bit_count() == h.length
        assert h in geo._inv_bits
        for e, mask in geo._inv_bits.items():
            assert mask == shortlex_inversion_bits(geo, e)


def test_separates_from_wall_frozen(stack):
    dinf = stack("d_infinity")
    geo, search = dinf.geometry, dinf.separators
    g = dinf.element("sts")
    w_s = generator_wall(geo, 0)
    sep = _wall_at(dinf, (2, 1))
    assert search.has_separator(g, w_s, sep.bit)
    # Chambers touching the wall (2,1) are s and st, both across W_s from id,
    # so W_s separates id from that wall; from s it does not.
    assert search.has_separator(dinf.system.identity, sep, w_s.bit)
    assert not search.has_separator(dinf.element("s"), sep, w_s.bit)
    a2 = stack("a2")
    geo2 = a2.geometry
    walls = {w for g in a2.system.ball(3) for w in inversion_walls(geo2, g)}
    for g in a2.system.ball(3):
        for sep, wall in itertools.permutations(walls, 2):
            assert not a2.separators.has_separator(g, wall, sep.bit)


def test_frontier_frozen(stack):
    a2 = stack("a2")
    w0 = a2.element("sts")
    assert frontier_walls(a2.geometry, w0) == inversion_walls(a2.geometry, w0)
    dinf = stack("d_infinity")
    front = frontier_walls(dinf.geometry, dinf.element("sts"))
    assert {_coords(w) for w in front} == {(3, 2)}
    front = frontier_walls(dinf.geometry, dinf.element("s"))
    assert {_coords(w) for w in front} == {(1, 0)}


def test_frontier_basic_invariants(stack):
    for name in ("d_infinity", "triangle_333", "triangle_334"):
        s = stack(name)
        geo = s.geometry
        for g in s.system.ball(GOLD_BALL_RADIUS):
            front = frontier_walls(geo, g)
            inv = inversion_walls(geo, g)
            assert front <= inv
            if g.length:
                assert front  # nonempty for nontrivial elements


def test_frontier_matches_separator_search(stack):
    # Independent re-derivation on every group: a wall is in the frontier iff
    # no separator exists among the walls between g and the wall's incident
    # chamber.
    for name in CONFTEST_GROUPS:
        geo = _fresh_geometry(stack, name)
        search = SeparatorSearch(geo)
        for g in geo.system.ball(GOLD_BALL_RADIUS):
            inv = inversion_walls(geo, g)
            front = frontier_walls(geo, g)
            for wall in inv:
                domain = walls_between(geo, g, search.incident_chamber(wall))
                sep = reference_find_separator(search, g, wall, domain)
                assert (sep is None) == (wall in front), name
                if sep is not None:
                    assert search.has_separator(g, wall, sep.bit)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(name=st.sampled_from(["affine_a3", "h535", "triangle_334"]), draw=st.data())
def test_frontier_of_long_geodesics(stack, name, draw):
    # Past the balls: each letter of a random geodesic of length <= 40 is
    # an ascent of its prefix.  The frontier equals the separator
    # definition, and its pairs' betas are the frontier pulled back.
    geo = _fresh_geometry(stack, name)
    sys = geo.system
    g = sys.identity
    for _ in range(draw.draw(st.integers(0, 40))):
        ascents = [s for s in range(sys.rank) if not g.descents >> s & 1]
        g = sys.right_mul(g, draw.draw(st.sampled_from(ascents)))
    front = geo.frontier_set(g)
    assert front == SeparatorSearch(geo).frontier(g)
    betas = sum(beta.bit for beta in geo.frontier_pairs(g)[::2])
    assert geo.pull_back(g, front) == betas


@pytest.mark.parametrize("name", SHIPPED + sorted(BUILT))
def test_has_separator_matches_reference(stack, name):
    # Over ball(6): every inversion wall of g, with Inv(g) and with every wall
    # as candidates, and every small-root wall, with every wall as candidates.
    geo = _fresh_geometry(stack, name)
    search = SeparatorSearch(geo)
    universe = small_roots(geo)
    for g in geo.system.ball(6):
        inv = inversion_walls(geo, g)
        inv_bits = geo.inversion_bits(g)
        for wall in inv:
            want = reference_find_separator(search, g, wall, inv - {wall})
            assert search.has_separator(g, wall, inv_bits) == (want is not None)
        for wall in inv | set(universe):
            domain = walls_between(geo, g, search.incident_chamber(wall))
            want = reference_find_separator(search, g, wall, domain)
            assert search.has_separator(g, wall) == (want is not None)


def test_projection_frozen(stack):
    a2 = stack("a2")
    assert a2.geometry.voracious_projection(a2.element("sts")) == a2.system.identity
    assert a2.geometry.voracious_projection(a2.element("st")) == a2.system.identity
    dinf = stack("d_infinity")
    geo = dinf.geometry
    assert geo.voracious_projection(dinf.element("sts")) == dinf.element("st")
    assert geo.voracious_projection(dinf.element("s")) == dinf.system.identity
    assert geo.voracious_projection(dinf.system.identity) == dinf.system.identity


def test_projection_candidates_frozen(stack):
    dinf = stack("d_infinity")
    cands = dinf.geometry.projection_walk(dinf.element("sts"))[0]
    assert cands == {
        dinf.system.identity,
        dinf.element("s"),
        dinf.element("st"),
    }
    a2 = stack("a2")
    assert a2.geometry.projection_walk(a2.element("sts"))[0] == {
        a2.system.identity
    }


def test_projection_is_maximum_candidate(stack):
    # The greedy projection equals the length-maximal candidate, uniquely.
    for name in ("d_infinity", "triangle_333", "triangle_334"):
        s = stack(name)
        geo = s.geometry
        for g in s.system.ball(GOLD_BALL_RADIUS):
            cands = geo.projection_walk(g)[0]
            top = max(c.length for c in cands)
            best = [c for c in cands if c.length == top]
            assert len(best) == 1
            assert geo.voracious_projection(g) == best[0]


def test_projection_walk_has_one_terminal(stack):
    # Every greedy run, in every generator order, ends at a terminal node of
    # the walk, so one terminal equal to p(g) settles all orders at once.
    small = [(stack(name).geometry, 3) for name in ("d_infinity", "a2", "triangle_333")]
    large = [(_fresh_geometry(stack, name), 6)
             for name in ("triangle_334", "affine_a3", "triangle_237")]
    for geo, radius in small + large:
        for g in geo.system.ball(radius):
            _, terminals = geo.projection_walk(g)
            assert terminals == [geo.voracious_projection(g)]


def test_projection_candidates_prefix_closed(stack):
    s = stack("triangle_334")
    geo = s.geometry
    for g in s.system.ball(GOLD_BALL_RADIUS):
        cands = geo.projection_walk(g)[0]
        for p in cands:
            assert is_prefix(geo, p, g)
            for q in cands:
                if is_prefix(geo, q, p):
                    assert q in cands


def test_frontier_survives_to_projection_gap(stack):
    # Frontier walls all lie between the projection and the element.
    for name in ("d_infinity", "triangle_334"):
        s = stack(name)
        geo = s.geometry
        for g in s.system.ball(GOLD_BALL_RADIUS):
            p = geo.voracious_projection(g)
            assert frontier_walls(geo, g) <= walls_between(geo, p, g)


@pytest.mark.parametrize("name", ["triangle_334", "triangle_245", "h535", "affine_a3"])
def test_residue_walls_match_translated_dihedral_walls(stack, name):
    # For u in a ball and a pair a, b of finite order m >= 3, the residue
    # walk yields m distinct walls: those of Inv of the dihedral longest
    # element, moved by u with the full-product matrix of u.
    geo = _fresh_geometry(stack, name)
    sys = geo.system
    orders = sys.cox.orders
    pairs = [
        (a, b)
        for a in range(sys.rank)
        for b in range(a + 1, sys.rank)
        if orders[a][b] >= 3
    ]
    for u in sys.ball(5 if sys.rank == 4 else 6):
        for a, b in pairs:
            m = orders[a][b]
            walls = geo.residue_walls(u, a, b)
            assert len(set(walls)) == len(walls) == m
            top = sys.element_of_word(tuple((a, b)[i % 2] for i in range(m)))
            assert set(walls) == {
                translate_wall(geo, u, w) for w in geo.system.walls_of(geo.inversion_bits(top))
            }


def test_reflection_of_wall(stack):
    dinf = stack("d_infinity")
    geo = dinf.geometry
    assert reflection_of_wall(geo, generator_wall(geo, 0)) == dinf.element("s")
    assert reflection_of_wall(geo, _wall_at(dinf, (2, 1))) == dinf.element("sts")
    assert reflection_of_wall(geo, _wall_at(dinf, (3, 2))) == dinf.element("ststs")


def test_translate_wall(stack):
    dinf = stack("d_infinity")
    geo = dinf.geometry
    s_wall = generator_wall(geo, 1)
    moved = translate_wall(geo, dinf.element("s"), s_wall)
    assert _coords(moved) == (2, 1)


def test_stats_count_memo_entries(stack):
    # A fresh geometry holds the identity's empty mask, empty frontier and
    # empty word; each request adds its own.
    geo = _fresh_geometry(stack, "triangle_334")
    sys = geo.system
    assert geo.stats() == {
        "inversion_sets": 1,
        "frontiers": 1,
        "projections": 0,
        "blocks": 0,
        "shortlex_words": 1,
    }
    g = sys.element_of_word((0, 1, 2, 1))
    geo.projection_block(g)
    got = geo.stats()
    assert got["inversion_sets"] == len(geo._inv_bits) >= 1 + g.length
    # The frontier walk keeps the pairs of g and of its three prefixes.
    assert (got["frontiers"], got["projections"], got["blocks"]) == (5, 1, 1)
    assert got["shortlex_words"] == 2  # the identity's and the block's
