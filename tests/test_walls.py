import itertools

import pytest

from voracious import WallGeometry, small_roots
from voracious.field import neg

from conftest import (
    BUILT,
    GROUPS_DIR,
    fresh_geometry,
    incident_far_chamber,
    is_prefix,
    reference_find_separator,
    multiply,
    reflection_of_wall,
)

GOLD_BALL_RADIUS = 4
SHIPPED = sorted(p.stem for p in GROUPS_DIR.glob("*.json"))
FRONTIER_BILINEAR_CALLS = 335


def _fresh_geometry(stack, name):
    if name in BUILT:
        return fresh_geometry(*BUILT[name])
    cox = stack(name).cox
    return fresh_geometry(cox.generators, cox.orders)


def _wall_at(s, coords):
    ctx = s.system.ctx
    return s.geometry.wall_of_root(tuple(ctx.rational(c).coeffs for c in coords))


def _coords(wall):
    # Exact root coordinates; only usable in groups whose field is rational.
    assert all(not any(x[1:]) for x in wall.root)
    return tuple(x[0] for x in wall.root)


def test_generator_walls(stack):
    a2 = stack("a2")
    assert _coords(a2.geometry.wall_of_generator(0)) == (1, 0)
    assert _coords(a2.geometry.wall_of_generator(1)) == (0, 1)


def test_wall_normalization(stack):
    a2 = stack("a2")
    ctx = a2.system.ctx
    pos = a2.geometry.wall_of_root((ctx.rational(1).coeffs, ctx.rational(1).coeffs))
    neg = a2.geometry.wall_of_root((ctx.rational(-1).coeffs, ctx.rational(-1).coeffs))
    assert pos is neg  # interned and sign-normalized


def test_inversion_walls_frozen(stack):
    dinf = stack("d_infinity")
    inv = dinf.geometry.inversion_walls(dinf.element("sts"))
    assert {_coords(w) for w in inv} == {(1, 0), (2, 1), (3, 2)}
    a2 = stack("a2")
    inv = a2.geometry.inversion_walls(a2.element("st"))
    assert {_coords(w) for w in inv} == {(1, 0), (1, 1)}
    assert a2.geometry.inversion_walls(a2.system.identity) == frozenset()


def test_inversion_count_is_length(stack):
    for name in ("a2", "d_infinity", "triangle_334"):
        s = stack(name)
        for g in s.system.ball(GOLD_BALL_RADIUS):
            assert len(s.geometry.inversion_walls(g)) == g.length


def test_inversion_bits_match_walls(stack):
    for name in ("a2", "d_infinity", "triangle_334", "a3"):
        s = stack(name)
        geo = s.geometry
        for g in s.system.ball(GOLD_BALL_RADIUS):
            bits = geo.inversion_bits(g)
            assert bits.bit_count() == g.length
            walls = geo.inversion_walls(g)
            assert sum(w.bit for w in walls) == bits
            assert walls == {w for w in geo._walls.values() if w.bit & bits}


def test_roots_are_positive(stack):
    s = stack("triangle_334")
    sign_of = s.system.ctx.sign_of
    for g in s.system.ball(GOLD_BALL_RADIUS):
        for wall in s.geometry.inversion_walls(g):
            assert all(sign_of(x) >= 0 for x in wall.root)
            assert any(sign_of(x) > 0 for x in wall.root)


def test_on_identity_side(stack):
    dinf = stack("d_infinity")
    geo = dinf.geometry
    ws = geo.wall_of_generator(0)
    assert geo.on_identity_side(dinf.system.identity, ws)
    assert not geo.on_identity_side(dinf.element("s"), ws)
    assert geo.on_identity_side(dinf.element("t"), ws)


def test_walls_between(stack):
    a2 = stack("a2")
    geo = a2.geometry
    g = a2.element("st")
    assert geo.walls_between(g, g) == frozenset()
    assert geo.walls_between(a2.system.identity, g) == geo.inversion_walls(g)
    between = geo.walls_between(a2.element("s"), a2.element("t"))
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
    assert not a2.geometry.walls_disjoint(
        a2.geometry.wall_of_generator(0), a2.geometry.wall_of_generator(1)
    )
    dinf = stack("d_infinity")
    geo = dinf.geometry
    assert geo.walls_disjoint(geo.wall_of_generator(0), geo.wall_of_generator(1))
    assert geo.walls_disjoint(_wall_at(dinf, (2, 1)), _wall_at(dinf, (3, 2)))
    a2 = stack("a2")
    assert not a2.geometry.walls_disjoint(
        a2.geometry.wall_of_generator(0), _wall_at(a2, (1, 1))
    )
    with pytest.raises(ValueError):
        geo.walls_disjoint(geo.wall_of_generator(0), geo.wall_of_generator(0))


@pytest.mark.parametrize("name", ["triangle_334", "affine_a3"])
def test_disjoint_bits_symmetric(stack, name):
    # Decide each pair of ball(4) walls once, in one direction, on a fresh
    # geometry; both walls' masks must then record the |2B| >= 2 answer.
    geo = _fresh_geometry(stack, name)
    walls = set()
    for g in geo.system.ball(4):
        walls |= geo.inversion_walls(g)
    walls = sorted(walls, key=lambda w: w.bit)
    scalar = geo.system.ctx.scalar
    for a, b in itertools.combinations(walls, 2):
        t = scalar(geo.system.bilinear2(a.root, b.root))
        assert geo.walls_disjoint(a, b) == (t >= 2 or t <= -2)
    for a, b in itertools.permutations(walls, 2):
        assert a.known & b.bit
        assert bool(a.disjoint & b.bit) == bool(b.disjoint & a.bit)
        assert geo.walls_disjoint(b, a) == bool(a.disjoint & b.bit)


def test_frontier_bilinear_calls_frozen(stack):
    # Disjointness is decided only for walls whose sides already qualify, and
    # only up to the first disjoint one; this freezes the field products a
    # fresh geometry spends on the frontiers of ball(8) of (3,3,4).
    geo = _fresh_geometry(stack, "triangle_334")
    sys_ = geo.system
    ball = sys_.ball(8)
    calls = 0
    bilinear2 = sys_.bilinear2

    def counted(u, v):
        nonlocal calls
        calls += 1
        return bilinear2(u, v)

    sys_.bilinear2 = counted
    for g in ball:
        geo.frontier_set(g)
    assert calls == FRONTIER_BILINEAR_CALLS


def test_incident_chamber_frozen(stack):
    a2 = stack("a2")
    geo = a2.geometry
    # The wall of a simple generator touches the identity chamber.
    assert geo.incident_chamber(geo.wall_of_generator(0)) == a2.system.identity
    assert incident_far_chamber(geo, geo.wall_of_generator(0)) == a2.element("s")
    # The long root's wall in the triangle tiling touches chamber s.
    mid = _wall_at(a2, (1, 1))
    assert geo.incident_chamber(mid) == a2.element("s")
    assert incident_far_chamber(geo, mid) == a2.element("st")
    dinf = stack("d_infinity")
    geo = dinf.geometry
    assert geo.incident_chamber(_wall_at(dinf, (2, 1))) == dinf.element("s")
    assert geo.incident_chamber(_wall_at(dinf, (3, 2))) == dinf.element("st")


def test_incident_chamber_is_adjacent_to_wall(stack):
    # The chamber pair returned for a wall is swapped by its reflection.
    for name in ("d_infinity", "triangle_334"):
        s = stack(name)
        geo = s.geometry
        walls = set()
        for g in s.system.ball(GOLD_BALL_RADIUS):
            walls |= geo.inversion_walls(g)
        for wall in walls:
            near = geo.incident_chamber(wall)
            far = incident_far_chamber(geo, wall)
            refl = reflection_of_wall(geo, wall)
            assert multiply(s.system, refl, near) == far
            assert geo.walls_between(near, far) == {wall}


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
            wall = geo.translate_wall(g, geo.wall_of_generator(s_idx))
            touching.setdefault(wall, set()).add(g)
    walls = list(touching)
    for a, b in itertools.combinations(walls, 2):
        if not geo.walls_disjoint(a, b):
            continue
        sides = {geo.on_identity_side(g, b) for g in touching[a]}
        assert len(sides) == 1


CROSSING_GROUPS = ("triangle_334", "affine_a3", "triangle_237")


@pytest.mark.parametrize("name", CROSSING_GROUPS)
def test_crossing_chambers_and_prefix_masks(stack, name):
    # Each wall crossed by a walk over ball(6) records a chamber p with
    # p(alpha_s) on the wall, whose step to p s crosses that wall alone, on
    # the identity side; every mask the walks stored, prefixes included, is
    # the inversion set a fresh geometry derives for that element.
    geo = _fresh_geometry(stack, name)
    sys = geo.system
    walls = set()
    for g in sys.ball(6):
        walls |= geo.inversion_walls(g)
    for wall in walls:
        p = wall.crossing
        (s,) = [s for s, root in enumerate(p.matrix) if geo.wall_of_root(root) == wall]
        assert geo.walls_between(p, sys.right_mul(p, s)) == {wall}
        assert geo.on_identity_side(p, wall)
    assert len(geo._inv_bits) >= len(sys.ball(6))
    for p, mask in geo._inv_bits.items():
        fresh = WallGeometry(sys)
        want = {w.root for w in fresh.inversion_walls(p)}
        assert {w.root for w in geo._iter_walls(mask)} == want


@pytest.mark.parametrize("name", CROSSING_GROUPS)
def test_one_wall_per_root(stack, name):
    # wall_of_root makes one wall per positive root, reached from either
    # sign; another geometry over the same system makes its own walls.
    geo = _fresh_geometry(stack, name)
    for g in geo.system.ball(6):
        for root in g.matrix:
            wall = geo.wall_of_root(root)
            assert geo.wall_of_root(tuple(map(neg, root))) is wall
            assert geo.wall_of_root(wall.root) is wall
    other = WallGeometry(geo.system)
    for s in range(geo.system.rank):
        assert other.wall_of_generator(s) != geo.wall_of_generator(s)
        assert other.wall_of_generator(s).root == geo.wall_of_generator(s).root


@pytest.mark.parametrize("name", CROSSING_GROUPS)
def test_has_separator_independent_of_walk_order(stack, name):
    # Two geometries walk ball(6) in opposite orders, so walls record
    # different crossing chambers; every separator answer agrees.  Each
    # geometry has its own system, so elements are compared by matrix.
    answers = []
    crossing = []
    for reverse in (False, True):
        geo = _fresh_geometry(stack, name)
        ball = geo.system.ball(6)
        got = {}
        for g in reversed(ball) if reverse else ball:
            inv_bits = geo.inversion_bits(g)
            for wall in geo.inversion_walls(g):
                got[g.matrix, wall.root] = (
                    geo.has_separator(g, wall),
                    geo.has_separator(g, wall, inv_bits),
                )
        answers.append(got)
        crossing.append({w.root: w.crossing.matrix for w in geo._walls.values()})
    assert answers[0] == answers[1]
    assert crossing[0] != crossing[1]


@pytest.mark.parametrize("name", CROSSING_GROUPS)
def test_pull_back_matches_translate_wall(stack, name):
    geo = _fresh_geometry(stack, name)
    sys = geo.system
    for g in sys.ball(6):
        inv = geo.inversion_walls(g)
        want = {geo.translate_wall(sys.inverse(g), w) for w in inv}
        assert geo.pull_back(g, inv) == want
        front = geo.frontier_set(g)
        assert geo.pull_back(g, front) == {
            geo.translate_wall(sys.inverse(g), w) for w in front
        }
    g = sys.element_of_word((0,))
    with pytest.raises(ValueError, match="inversion walls"):
        geo.pull_back(g, [geo.wall_of_generator(1)])


def test_separates_from_wall_frozen(stack):
    dinf = stack("d_infinity")
    geo = dinf.geometry
    g = dinf.element("sts")
    w_s = geo.wall_of_generator(0)
    sep = _wall_at(dinf, (2, 1))
    assert geo.has_separator(g, w_s, sep.bit)
    # Chambers touching the wall (2,1) are s and st, both across W_s from id,
    # so W_s separates id from that wall; from s it does not.
    assert geo.has_separator(dinf.system.identity, sep, w_s.bit)
    assert not geo.has_separator(dinf.element("s"), sep, w_s.bit)
    a2 = stack("a2")
    geo2 = a2.geometry
    walls = {w for g in a2.system.ball(3) for w in geo2.inversion_walls(g)}
    for g in a2.system.ball(3):
        for sep, wall in itertools.permutations(walls, 2):
            assert not geo2.has_separator(g, wall, sep.bit)


def test_frontier_frozen(stack):
    a2 = stack("a2")
    w0 = a2.element("sts")
    assert a2.geometry.frontier_set(w0) == a2.geometry.inversion_walls(w0)
    dinf = stack("d_infinity")
    assert {_coords(w) for w in dinf.geometry.frontier_set(dinf.element("sts"))} == {
        (3, 2)
    }
    assert {_coords(w) for w in dinf.geometry.frontier_set(dinf.element("s"))} == {
        (1, 0)
    }


def test_frontier_basic_invariants(stack):
    for name in ("d_infinity", "triangle_333", "triangle_334"):
        s = stack(name)
        geo = s.geometry
        for g in s.system.ball(GOLD_BALL_RADIUS):
            front = geo.frontier_set(g)
            inv = geo.inversion_walls(g)
            assert front <= inv
            if g.length:
                assert front  # nonempty for nontrivial elements


def test_frontier_matches_separator_search(stack):
    # Independent re-derivation: a wall is in the frontier iff no separator
    # exists among the walls between g and the wall's incident chamber.
    for name in ("d_infinity", "triangle_334"):
        s = stack(name)
        geo = s.geometry
        for g in s.system.ball(GOLD_BALL_RADIUS):
            inv = geo.inversion_walls(g)
            front = geo.frontier_set(g)
            for wall in inv:
                domain = geo.walls_between(g, geo.incident_chamber(wall))
                sep = reference_find_separator(geo, g, wall, domain)
                assert (sep is None) == (wall in front)
                if sep is not None:
                    assert geo.has_separator(g, wall, sep.bit)


@pytest.mark.parametrize("name", SHIPPED + sorted(BUILT))
def test_has_separator_matches_reference(stack, name):
    # Over ball(6): every inversion wall of g, with Inv(g) and with every wall
    # as candidates, and every small-root wall, with every wall as candidates.
    geo = _fresh_geometry(stack, name)
    universe = small_roots(geo)
    for g in geo.system.ball(6):
        inv = geo.inversion_walls(g)
        inv_bits = geo.inversion_bits(g)
        for wall in inv:
            want = reference_find_separator(geo, g, wall, inv - {wall})
            assert geo.has_separator(g, wall, inv_bits) == (want is not None)
        for wall in inv | set(universe):
            domain = geo.walls_between(g, geo.incident_chamber(wall))
            want = reference_find_separator(geo, g, wall, domain)
            assert geo.has_separator(g, wall) == (want is not None)


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
            assert geo.frontier_set(g) <= geo.walls_between(p, g)


def test_reflection_of_wall(stack):
    dinf = stack("d_infinity")
    geo = dinf.geometry
    assert reflection_of_wall(geo, geo.wall_of_generator(0)) == dinf.element("s")
    assert reflection_of_wall(geo, _wall_at(dinf, (2, 1))) == dinf.element("sts")
    assert reflection_of_wall(geo, _wall_at(dinf, (3, 2))) == dinf.element("ststs")


def test_translate_wall(stack):
    dinf = stack("d_infinity")
    geo = dinf.geometry
    s_wall = geo.wall_of_generator(1)
    moved = geo.translate_wall(dinf.element("s"), s_wall)
    assert _coords(moved) == (2, 1)
