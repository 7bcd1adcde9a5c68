import dataclasses
import functools
import hashlib
import itertools
import json

import pytest

import voracious.verify
from voracious import (
    INF,
    CoxeterMatrix,
    CoxeterSystem,
    Verifier,
    VerifierConfig,
    VoraciousLanguage,
    WallGeometry,
    load_group_file,
    word_from_string,
)
from voracious.automaton import _IndexPass
from voracious.separators import SeparatorSearch

from conftest import (
    BUILT,
    GROUPS_DIR,
    H535,
    TRIANGLE_245,
    descent_chamber,
    fresh_geometry,
    generator_wall,
    inverse_of,
    inversion_walls,
    join_root,
    left_shortlex_word,
    matrix_of,
    multiply,
    projection_monotone_bruteforce,
    translate_wall,
)

CHECK_NAMES = [
    "projection-unique-maximum",
    "constants-monotone-in-radius",
    "projection-monotone-under-prefix",
    "fellow-traveller-bounds",
    "automaton-language-agreement",
    "sharp-angled-separator-sampling",
]


# Groups a test builds on a fresh system by name, beside the shipped ones.
NAMED = {
    **BUILT,
    "h535": ("abcd", H535),
    "triangle_245": ("abc", TRIANGLE_245),
    "inf_2_3": ("abc", ((1, INF, 2), (INF, 1, 3), (2, 3, 1))),
}


def _fresh(stack, name, **overrides):
    return Verifier(stack(name).geometry, VerifierConfig(**overrides))


def _fresh_geometry(stack, name) -> WallGeometry:
    if name in NAMED:
        return fresh_geometry(*NAMED[name])
    return WallGeometry(CoxeterSystem(stack(name).cox))


def test_a2_constants_frozen(stack):
    v = _fresh(stack, "a2", radius=3)
    report = v.run_suite()
    c = report.constants
    assert (c.C_hat, c.N_hat, c.Q_hat) == (3, 3, 1)
    assert c.Q_hat_canonical == 2
    assert c.ft_ii_max == 2
    assert c.ft_iii_max == 3
    assert report.passed


def test_line_constants_frozen(stack):
    v = _fresh(stack, "d_infinity", radius=6)
    report = v.run_suite()
    c = report.constants
    assert (c.C_hat, c.N_hat, c.Q_hat) == (1, 1, 0)
    assert c.ft_ii_max == 1
    assert c.ft_iii_max == 1
    assert report.passed


def test_negative_radius_is_refused():
    with pytest.raises(ValueError, match="radius must be nonnegative"):
        VerifierConfig(radius=-1)
    assert VerifierConfig(radius=0).radius == 0


@pytest.mark.parametrize("radius", [True, 2.5, "3"])
def test_radius_that_is_not_an_int_is_refused(radius):
    # True would run as radius 1 and print as true; 2.5 and "3" would fail
    # deep in the ball.
    with pytest.raises(ValueError, match="radius must be an int"):
        VerifierConfig(radius=radius)


def test_triangle_suite_smoke(stack):
    v = _fresh(stack, "triangle_333", radius=4)
    report = v.run_suite()
    by_name = {c.name: c for c in report.checks}
    assert [c.name for c in report.checks] == CHECK_NAMES
    assert report.passed
    assert by_name["projection-unique-maximum"].status == "pass"
    assert by_name["fellow-traveller-bounds"].status == "pass"
    assert report.constants.C_hat >= 3


def _direct_fellow_traveller_maxima(system, language, radius):
    """(ii_max, iii_max) of the fellow-traveller check, recomputed by walking
    both words letter by letter and measuring each gap as the length of
    a^{-1} b, through a full matrix product."""

    def walk(word, head):
        cur = head
        out = [cur]
        for x in word:
            cur = system.right_mul(cur, x)
            out.append(cur)
        return out

    def dist(a, b):
        return multiply(system, inverse_of(system, a), b).length

    maxima = {"ii": 0, "iii": 0}
    for g in system.ball(radius):
        for s_idx in range(system.rank):
            for kind in ("ii", "iii"):
                if kind == "ii":
                    g2 = system.right_mul(g, s_idx)
                    head = system.identity
                else:
                    head = system.element_of_word((s_idx,))
                    g2 = multiply(system, head, g)
                if g2.length != g.length + 1 or g2.length > radius:
                    continue
                for w1 in language.all_words_of(g):
                    for w2 in language.all_words_of(g2):
                        left = walk(w1, head)
                        right = walk(w2, system.identity)
                        worst = max(
                            dist(
                                left[min(i, len(w1))],
                                right[min(i, len(w2))],
                            )
                            for i in range(max(len(w1), len(w2)) + 1)
                        )
                        maxima[kind] = max(maxima[kind], worst)
    return maxima["ii"], maxima["iii"]


@pytest.mark.parametrize(
    "name,radius",
    [("a2", 3), ("triangle_334", 5), ("affine_a3", 4), ("triangle_245", 5)],
)
def test_fellow_traveller_matches_direct_recomputation(stack, name, radius):
    # The check compares prefix elements by popcounts of inversion-mask
    # XORs; the recomputation lists every word pair and multiplies elements,
    # on a second system.  (2,4,5) has an order 5 and reaches the maxima
    # of its radius-8 report, 4 and 5, at radius 5.
    geo = _fresh_geometry(stack, name)
    verifier = Verifier(geo, VerifierConfig(radius=radius))
    assert verifier.check_fellow_traveller().status == "pass"
    c = verifier.constants
    oracle = fresh_geometry(geo.system.cox.generators, geo.system.cox.orders)
    assert (c.ft_ii_max, c.ft_iii_max) == _direct_fellow_traveller_maxima(
        oracle.system, VoraciousLanguage(oracle), radius
    )


@pytest.mark.parametrize("name,radius", [("triangle_334", 6), ("affine_a3", 5)])
def test_prefix_layers_are_the_prefixes_of_every_language_word(stack, name, radius):
    # Entry t holds the length-t prefix of every language word of g, keyed
    # by its inversion mask; given s, that of s followed by the word.
    geo = _fresh_geometry(stack, name)
    verifier = Verifier(geo, VerifierConfig(radius=radius))
    system, inv = geo.system, geo.inversion_bits
    language = VoraciousLanguage(_fresh_geometry(stack, name))
    oracle = language.system
    for g in system.ball(radius):
        words = language.all_words_of(oracle.element_of_word(geo.shortlex_word(g)))
        heads = [(None, ())] + [
            (s, (s,)) for s in range(system.rank) if not inv(g) >> s & 1
        ]
        for s, head in heads:
            layers = verifier._prefix_layers(g, s)
            assert len(layers) == g.length + 1
            for t, layer in enumerate(layers):
                want = {system.element_of_word(head + w[:t]) for w in words}
                assert set(layer.values()) == want
                assert all(inv(x) == mask for mask, x in layer.items())


def test_fellow_traveller_fails_with_a_witness(stack, monkeypatch):
    # C_hat forced to 1 makes the ii bound 2, which the (3,3,4) ball passes.
    # The witness names both prefix elements at the failing time, and the
    # gap it reports is the length of left^{-1} right.
    verifier = Verifier(_fresh_geometry(stack, "triangle_334"), VerifierConfig(radius=5))
    shrunk = dataclasses.replace(verifier.estimate_constants(), C_hat=1)
    monkeypatch.setattr(verifier, "estimate_constants", lambda: shrunk)
    check = verifier.check_fellow_traveller()
    assert check.status == "fail"
    w = check.witness
    assert set(w) == {
        "kind", "generator", "g", "g2", "time", "left", "right", "observed", "bound"
    }
    assert (w["kind"], w["bound"]) == ("ii", 2)
    assert w["observed"] > w["bound"]
    oracle = fresh_geometry("abc", stack("triangle_334").cox.orders).system
    g, g2, left, right = (
        oracle.element_of_word(word_from_string(w[key], "abc"))
        for key in ("g", "g2", "left", "right")
    )
    assert g2 is oracle.right_mul(g, "abc".index(w["generator"]))
    assert left.length == min(w["time"], g.length)
    assert right.length == w["time"]
    assert multiply(oracle, inverse_of(oracle, left), right).length == w["observed"]
    assert set(check.details) == {"pairs_checked"}


def test_suite_lists_no_word(stack, monkeypatch):
    # Every check runs on elements: no language word set and no reduced
    # word set is built.
    def refuse(*args):
        raise AssertionError("a word set was listed")

    monkeypatch.setattr(VoraciousLanguage, "all_words_of", refuse)
    monkeypatch.setattr(CoxeterSystem, "reduced_words", refuse)
    geo = _fresh_geometry(stack, "triangle_334")
    assert Verifier(geo, VerifierConfig(radius=6)).run_suite().passed


def _q_hat_by_element_distance(stack, name, radius):
    """Q_hat and Q_hat_canonical from their definitions, on a second system:
    for each chamber g at least the trim margin inside the ball and each
    wall of the ball with no separator from g, the least length of g^{-1} h
    over the ball's chambers h incident to the wall, and that length for
    the wall's canonical incident chamber.  The length is that of the
    element of the word of g reversed, then the word of h.  Checks every
    row of the table, and that the boundary warning appears exactly when a
    distance exceeds the margin, which it returns."""
    margin = voracious.verify.TRIM_MARGIN
    verifier = Verifier(_fresh_geometry(stack, name), VerifierConfig(radius=radius))
    constants = verifier.estimate_constants()
    geo = _fresh_geometry(stack, name)
    search = SeparatorSearch(geo)
    sys_ = geo.system
    ball = sys_.ball(radius)
    incident = {}
    first_radius = {}
    for h in ball:
        for column in matrix_of(h):
            incident.setdefault(sys_.wall_of_root(join_root(column)), []).append(h)
        for wall in inversion_walls(geo, h):
            first_radius.setdefault(wall, h.length)

    @functools.cache
    def dist(a, b):
        word = functools.partial(left_shortlex_word, sys_)
        return sys_.element_of_word(word(a)[::-1] + word(b)).length

    rows = []
    for g in ball:
        if g.length > radius - margin:
            continue
        for wall, first in first_radius.items():
            if search.has_separator(g, wall):
                continue
            d = min(dist(g, h) for h in incident[wall])
            d_canon = dist(g, descent_chamber(geo, wall))
            rows.append((g.length, first, d, d_canon))
    assert rows
    for r in range(radius + 1):
        seen = [row for row in rows if row[0] <= r - margin and row[1] <= r]
        want = (max((row[2] for row in seen), default=0),
                max((row[3] for row in seen), default=0))
        got = constants.by_radius[r]
        assert (got["Q_hat"], got["Q_hat_canonical"]) == want, r
    assert (constants.Q_hat, constants.Q_hat_canonical) == want
    beyond = max(row[2] for row in rows) > margin
    assert any("further than the trim margin" in w for w in verifier.warnings) == beyond
    return beyond


def test_q_hat_matches_element_distance(stack):
    assert not _q_hat_by_element_distance(stack, "triangle_334", 6)


def test_q_hat_matches_element_distance_past_the_margin(stack):
    # On (2,3,7) at radius 12 a separator-free wall sits further than the
    # margin, so Q_hat is 5 where Q is 3, and the report says so.
    assert _q_hat_by_element_distance(stack, "triangle_237", 12)


@pytest.mark.parametrize(
    "name, radius",
    [("triangle_334", 6), ("affine_a3", 5), ("triangle_237", 8), ("triangle_245", 6),
     ("inf_2_3", 6)],
)
def test_separator_free_walls_are_g_small(stack, name, radius):
    # estimate_constants takes the walls with no separator from chamber g to
    # be g(Small), which it reads off reflection tables along the shortlex
    # word of g.  Here the separator search decides them over every wall of
    # the ball's chambers and inversion sets, against g(gamma) for gamma
    # small by the full matrix product; and no wall of g(Small) has a
    # separator, in the ball or not.
    geo = _fresh_geometry(stack, name)
    sys_ = geo.system
    search = SeparatorSearch(geo)
    ball = sys_.ball(radius)
    walls = set()
    for h in ball:
        walls.update(h.walls)
        walls |= inversion_walls(geo, h)
    small = sys_.small_roots()
    for g in ball:
        image = {translate_wall(geo, g, gamma) for gamma in small}
        assert len(image) == len(small)
        assert not any(search.has_separator(g, wall) for wall in image)
        free = {wall for wall in walls if not search.has_separator(g, wall)}
        assert free == image & walls


def test_constants_search_no_separator(stack, monkeypatch):
    # The separator-free pairs come from g(Small), so with the separator
    # search made to fail the constants keep their values.
    def refuse(*args, **kwargs):
        raise AssertionError("estimate_constants searched for a separator")

    cases = [("triangle_334", 8, (5, 4, 1, 7)), ("affine_a3", 6, (6, 6, 2, 7))]
    for name, radius, frozen in cases:
        verifier = Verifier(_fresh_geometry(stack, name), VerifierConfig(radius=radius))
        monkeypatch.setattr(SeparatorSearch, "has_separator", refuse)
        monkeypatch.setattr(SeparatorSearch, "walls_disjoint", refuse)
        c = verifier.estimate_constants()
        monkeypatch.undo()
        assert (c.C_hat, c.N_hat, c.Q_hat, c.Q_hat_canonical) == frozen, name


@pytest.mark.parametrize(
    "name, radius", [("a2", 6), ("triangle_334", 8), ("affine_a3", 6), ("triangle_237", 12)]
)
def test_by_radius_c_and_n_match_per_radius_scan(stack, name, radius):
    # The rows are running maxima of values bucketed by length.  The oracle
    # takes each row's maxima over ball(r) afresh, on a second system; on
    # A2 the ball stops growing at radius 3.
    geo = _fresh_geometry(stack, name)
    rows = Verifier(geo, VerifierConfig(radius=radius)).estimate_constants().by_radius
    assert sorted(rows) == list(range(radius + 1))
    oracle = _fresh_geometry(stack, name)
    for r in range(radius + 1):
        row_ball = oracle.system.ball(r)
        c = max(g.length - oracle.voracious_projection(g).length for g in row_ball)
        n = max(oracle.frontier_set(g).bit_count() for g in row_ball)
        assert (rows[r]["C_hat"], rows[r]["N_hat"]) == (c, n), r


@pytest.mark.parametrize(
    "name, radius, exact_q, q_hat",
    [
        ("triangle_334", 8, 1, 1),
        ("affine_a3", 8, 2, 2),
        ("triangle_245", 8, 2, 2),
        ("triangle_237", 12, 3, 5),
        ("h535", 7, 6, 8),
    ],
)
def test_exact_q_bounds_q_hat(stack, name, radius, exact_q, q_hat):
    # The walls with no separator from chamber g are the walls g(gamma), for
    # gamma small, and the distance from chamber g to g(gamma) is that from
    # the identity chamber to gamma: the length of its canonical incident
    # chamber.  So Q is a maximum over the small walls, with no ball.  Q_hat
    # measures each distance to the ball's incident chambers only, so the
    # ball's cutoff can raise it above Q, as on (2,3,7) and H(5,3,5), but
    # never lower it.
    geo = _fresh_geometry(stack, name)
    verifier = Verifier(geo, VerifierConfig(radius=radius))
    chamber = verifier.separators.incident_chamber
    exact = max(chamber(wall).length for wall in geo.system.small_roots())
    constants = verifier.estimate_constants()
    assert (exact, constants.Q_hat) == (exact_q, q_hat)
    assert exact <= constants.Q_hat


def test_separator_search_stats_count_memo_entries(stack):
    # A fresh search knows the generator walls' incident chamber, the
    # identity; each wall it descends from adds its own.
    geo = WallGeometry(CoxeterSystem(stack("triangle_334").cox))
    search = SeparatorSearch(geo)
    assert search.stats() == {"incident_chambers": 3}
    search.frontier(geo.system.element_of_word((0, 1, 2, 1)))
    assert search.stats()["incident_chambers"] == len(search._incident) > 3


def test_constants_by_radius_monotone(stack):
    v = _fresh(stack, "triangle_334", radius=5)
    constants = v.estimate_constants()
    assert v.check_constants_monotone().status == "pass"
    rows = constants.by_radius
    assert sorted(rows) == list(range(6))
    for key in ("C_hat", "N_hat", "Q_hat", "Q_hat_canonical"):
        vals = [rows[r][key] for r in sorted(rows)]
        assert vals == sorted(vals)
    assert rows[5]["C_hat"] == constants.C_hat


def test_report_json_schema_and_determinism(stack):
    a = _fresh(stack, "d_infinity", radius=5).run_suite().to_json()
    b = _fresh(stack, "d_infinity", radius=5).run_suite().to_json()
    assert a == b
    data = json.loads(a)
    assert set(data) == {"group", "radius", "constants", "checks", "warnings"}
    assert data["radius"] == 5
    assert data["group"]["generators"] == ["s", "t"]
    assert set(data["constants"]) == {
        "C_hat",
        "N_hat",
        "Q_hat",
        "Q_hat_canonical",
        "ft_ii_max",
        "ft_iii_max",
        "by_radius",
    }
    for check in data["checks"]:
        assert check["status"] in {"pass", "fail", "skipped"}


def test_334_report_bytes_frozen():
    # The report of `verify --radius 8` on (3,3,4), from a fresh system as
    # the command line builds it.  A reordered universe or wall sort changes
    # these bytes.
    system = CoxeterSystem(load_group_file(str(GROUPS_DIR / "triangle_334.json")))
    config = VerifierConfig(radius=8)
    text = Verifier(WallGeometry(system), config).run_suite().to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "953132976e3f633976ecc6a79c6c2f26902d24eb1eef116a3aef26dd05927202"
    )
    # The distance to the canonical incident chambers, which the depth
    # descents find.
    assert json.loads(text)["constants"]["Q_hat_canonical"] == 7


def test_334_report_is_seed_free():
    # No check samples: the fellow-traveller check compares every prefix
    # element pair, and the separator check visits every chamber.  So the
    # seed, which nothing reads, leaves the report's bytes alone.
    def report(seed):
        system = CoxeterSystem(load_group_file(str(GROUPS_DIR / "triangle_334.json")))
        config = VerifierConfig(radius=8, seed=seed)
        return Verifier(WallGeometry(system), config).run_suite().to_json()

    assert report(0) == report(1) == report(7)


def test_zero_radius_is_vacuous_but_clean(stack):
    report = _fresh(stack, "triangle_333", radius=0).run_suite()
    assert report.passed
    assert report.warnings  # margin warning fires
    c = report.constants
    assert (c.C_hat, c.N_hat, c.Q_hat) == (0, 0, 0)


def test_agreement_builds_every_pivot():
    # (2,3,7) has pivots up to length 12, far past a radius-3 ball and the
    # length-6 words checked; the automaton must still hold all 39.
    cox = CoxeterMatrix(("a", "b", "c"), ((1, 2, 3), (2, 1, 7), (3, 7, 1)))
    geometry = WallGeometry(CoxeterSystem(cox))
    check = Verifier(geometry, VerifierConfig(radius=3)).check_automaton_agreement()
    assert check.status == "pass"
    assert check.details["pivots"] == 39
    assert check.details["max_pivot_length"] == 12


def test_rank2_separator_sampling_skipped(stack):
    # D-infinity, the one infinite group of rank 2, has no finite-order pair.
    check = _fresh(stack, "d_infinity", radius=4).check_separator_sampling()
    assert check.status == "skipped"
    assert check.details == {"reason": "no noncommuting finite-order pair"}


@pytest.mark.parametrize("name", ["rank1", "a2", "b2", "i2_5"])
def test_finite_low_rank_separator_sampling_skipped(stack, name):
    # Every other group of rank below 3 is finite, and skipped as such.
    check = _fresh(stack, name, radius=4).check_separator_sampling()
    assert check.status == "skipped"
    assert check.details == {"reason": "finite group: no wall has a separator"}


def test_finite_group_separator_sampling_skipped(stack):
    # In a finite group every root is small, so no wall has a separator and
    # the separator hypothesis is never met.
    report = _fresh(stack, "a3", radius=4).run_suite()
    by_name = {c.name: c for c in report.checks}
    check = by_name["sharp-angled-separator-sampling"]
    assert check.status == "skipped"
    assert check.details == {"reason": "finite group: no wall has a separator"}
    assert report.passed


def test_separator_sampling_runs_on_triangles(stack):
    # Every (chamber, pair, residue wall with no separator) of the ball.
    check = _fresh(stack, "triangle_334", radius=5).check_separator_sampling()
    assert check.status == "pass"
    assert check.details == {
        "candidate_pairs": 119,
        "chambers": 57,
        "residue_walls_checked": 1862,
    }


@pytest.mark.parametrize("name", ["triangle_333", "triangle_334"])
def test_separator_check_visits_every_unseparated_residue_wall(stack, name):
    # The check reads the walls with no separator off g(Small) through its
    # index of residue walls.  The oracle finds the sharp-angled pairs with
    # their first chamber, walks each pair's residue from that chamber, and
    # asks the separator search about every residue wall from every chamber
    # of the ball.  The (chamber, pair, wall) triples must be the same.
    radius = 5
    v = Verifier(_fresh_geometry(stack, name), VerifierConfig(radius=radius))
    sys_, geo = v.system, v.geometry
    ball = sys_.ball(radius)
    pairs = {}
    for u in ball:
        for a, b in itertools.combinations(range(sys_.rank), 2):
            if sys_.cox.orders[a][b] >= 3:
                pairs.setdefault(u.walls[a].bit | u.walls[b].bit, (u, a, b))
    search = SeparatorSearch(geo)
    want = {
        (g, key, wall)
        for key, (u, a, b) in pairs.items()
        for wall in geo.residue_walls(u, a, b)
        if wall not in (u.walls[a], u.walls[b])
        for g in ball
        if not search.has_separator(g, wall)
    }

    n_pairs, index = v._residue_index()
    assert n_pairs == len(pairs)
    got = {
        (g, key, wall)
        for g in ball
        for wall in v._g_small[geo.shortlex_word(g)]
        for key, _, _, _, _ in index.get(wall, ())
    }
    assert got == want
    check = v.check_separator_sampling()
    assert check.status == "pass"
    assert check.details["residue_walls_checked"] == len(want)
    assert len(want) == {"triangle_333": 1302, "triangle_334": 1862}[name]


@pytest.mark.parametrize("crossed", [0, 2])
def test_separator_check_reports_an_unseparated_residue_wall(stack, crossed):
    # Put a wall of the identity's residue W_ab, other than alpha_a and
    # alpha_b, into g(Small) for a chamber g that meets the hypothesis: a
    # wall separates g from alpha_a or alpha_b, and g is on the same side
    # of both, crossing neither or both.  The check must fail there, on that
    # pair, the first the wall's index entry holds.
    v = _fresh(stack, "triangle_334", radius=5)
    sys_, geo = v.system, v.geometry
    alpha_a, alpha_b = sys_.identity.walls[:2]
    wall = geo.residue_walls(sys_.identity, 0, 1)[1]
    free = v._g_small
    for g in sys_.ball(5):
        inv_g = geo.inversion_bits(g)
        small = free[geo.shortlex_word(g)]
        if (
            bool(inv_g & alpha_a.bit) + bool(inv_g & alpha_b.bit) == crossed
            and not (alpha_a in small and alpha_b in small)
        ):
            break
    assert wall not in small
    free[geo.shortlex_word(g)] = small + (wall,)
    check = v.check_separator_sampling()
    assert check.status == "fail"
    assert check.witness == {
        "g": v._word(g),
        "conjugator": v._word(sys_.identity),
        "pair": ["a", "b"],
        "unseparated_wall": geo.root_strings(wall),
    }


def test_separator_free_pairs_agree_between_search_domains(stack):
    # The verifier's complete separator search (every wall a candidate)
    # agrees with the frontier membership computed from inversion-set
    # candidates.
    s = stack("triangle_334")
    geo, search = s.geometry, s.separators
    for g in s.system.ball(4):
        front = geo.frontier_set(g)
        for wall in geo.system.walls_of(geo.inversion_bits(g)):
            assert (not search.has_separator(g, wall)) == bool(wall.bit & front)


def test_projection_monotone_matches_all_pairs_scan(stack):
    # The interval walk meets exactly the pairs the quadratic scan finds.
    cases = [
        (stack("triangle_334").geometry, 8),
        (fresh_geometry(*BUILT["affine_a3"]), 6),
        (fresh_geometry(*BUILT["triangle_237"]), 8),
    ]
    for geo, radius in cases:
        check = Verifier(geo, VerifierConfig(radius=radius)).check_projection_monotone()
        pairs, holds = projection_monotone_bruteforce(geo, radius)
        assert check.details["pairs"] == pairs
        assert (check.status == "pass") == holds


def test_unique_max_fails_on_a_second_terminal(stack, monkeypatch):
    # Dropping the walls of a and b from the frontier of aba lets greedy runs
    # stop at a or at b.  Two walls go: dropping any single frontier wall left
    # one terminal on every element of the balls searched.
    s = stack("triangle_333")
    geo = WallGeometry(CoxeterSystem(s.cox))
    g = geo.system.element_of_word(s.word("aba"))
    frontier_set = geo.frontier_set
    walls = generator_wall(geo, 0).bit | generator_wall(geo, 1).bit
    assert not walls & ~frontier_set(g)
    dropped = frontier_set(g) & ~walls
    monkeypatch.setattr(
        geo, "frontier_set", lambda h: dropped if h == g else frontier_set(h)
    )
    check = Verifier(geo, VerifierConfig(radius=3)).check_unique_max()
    assert check.status == "fail"
    assert check.witness == {"g": "aba", "greedy": "a", "terminals": ["a", "b"]}


def test_projection_monotone_fails_on_a_raised_projection(stack, monkeypatch):
    # p(st) = 1 in A2; claim p(st) = st, which lies in [p(sts), sts] = A2
    # and is not a prefix of p(sts) = 1.
    s = stack("a2")
    geo = WallGeometry(CoxeterSystem(s.cox))
    identity = geo.system.identity
    st = geo.system.element_of_word(s.word("st"))
    assert geo.voracious_projection(st) == identity
    monkeypatch.setitem(geo._proj, st, st)
    check = Verifier(geo, VerifierConfig(radius=3)).check_projection_monotone()
    assert check.status == "fail"
    assert check.witness == {"g": "sts", "between": "st", "p_g": "", "p_between": "st"}
    assert not projection_monotone_bruteforce(geo, 3)[1]


def test_agreement_fails_on_a_dropped_pivot(stack, monkeypatch):
    # No pivot extends bcbca, so a pass that refuses it alone still finds
    # prefix-closed pivots, and only the ball finds the missing one.
    s = stack("triangle_334")
    geo = WallGeometry(CoxeterSystem(s.cox))
    bcbc = s.word("bcbc")
    (a,) = s.word("a")
    child = _IndexPass._child
    monkeypatch.setattr(
        _IndexPass,
        "_child",
        lambda self, node, letter: None
        if node[1] == bcbc and letter == a
        else child(self, node, letter),
    )
    check = Verifier(geo, VerifierConfig(radius=5)).check_automaton_agreement()
    assert check.status == "fail"
    assert check.witness == {
        "issue": "identity projection but not a pivot",
        "element": "bcbca",
    }


@pytest.mark.parametrize(
    "pair,witness",
    [
        (("a", "b"), {"word": "b", "states": [3], "expected_state": 2}),
        # bcbc = cbcb, as m(b, c) = 4; its edge now enters bcbca's target.
        (("bcbc", "bcbca"), {"word": "cbcb", "states": [16], "expected_state": 17}),
    ],
)
def test_agreement_fails_on_swapped_targets(stack, monkeypatch, pair, witness):
    # The automaton's targets come from Brink-Howlett states; the check
    # pulls each accepted word's frontier back through a matrix, so two
    # pivots with their targets swapped give a wrong accept state.
    s = stack("triangle_334")
    geo = WallGeometry(CoxeterSystem(s.cox))
    build = voracious.verify.build_automaton

    def build_with_swapped_targets(geometry):
        aut = build(geometry)
        words = aut.words
        i, j = (words.index(s.word(text)) for text in pair)
        targets = list(aut.targets)
        targets[i], targets[j] = targets[j], targets[i]
        aut.targets = tuple(targets)
        return aut

    monkeypatch.setattr(
        voracious.verify, "build_automaton", build_with_swapped_targets
    )
    check = Verifier(geo, VerifierConfig(radius=5)).check_automaton_agreement()
    assert check.status == "fail"
    assert check.witness == {"issue": "wrong accept state", **witness}
