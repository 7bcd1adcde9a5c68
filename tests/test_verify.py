import functools
import hashlib
import itertools
import json

import pytest

import voracious.verify
from voracious import (
    CoxeterMatrix,
    CoxeterSystem,
    Verifier,
    VerifierConfig,
    VoraciousAutomaton,
    VoraciousLanguage,
    WallGeometry,
    load_group_file,
    small_roots,
)
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
    left_shortlex_word,
    matrix_of,
    multiply,
    projection_monotone_bruteforce,
)

CHECK_NAMES = [
    "projection-unique-maximum",
    "constants-monotone-in-radius",
    "projection-monotone-under-prefix",
    "fellow-traveller-bounds",
    "automaton-language-agreement",
    "sharp-angled-separator-sampling",
]


def _fresh(stack, name, **overrides):
    return Verifier(stack(name).geometry, VerifierConfig(**overrides))


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
    "name,radius", [("a2", 3), ("triangle_334", 5), ("affine_a3", 4)]
)
def test_fellow_traveller_matches_direct_recomputation(stack, name, radius):
    # The check measures gaps as popcounts of inversion-mask XORs; the
    # recomputation multiplies elements, on a second system.
    if name in BUILT:
        geo = fresh_geometry(*BUILT[name])
    else:
        geo = WallGeometry(CoxeterSystem(stack(name).cox))
    verifier = Verifier(geo, VerifierConfig(radius=radius))
    assert verifier.check_fellow_traveller().status == "pass"
    c = verifier.constants
    oracle = fresh_geometry(geo.system.cox.generators, geo.system.cox.orders)
    assert (c.ft_ii_max, c.ft_iii_max) == _direct_fellow_traveller_maxima(
        oracle.system, VoraciousLanguage(oracle), radius
    )


def test_q_hat_matches_element_distance(stack):
    # Q_hat and Q_hat_canonical from their definitions, on a second system:
    # for each chamber g at least the trim margin inside the ball and each
    # wall of the ball with no separator from g, the least length of g^{-1} h
    # over the ball's chambers h incident to the wall, and that length for
    # the wall's canonical incident chamber.  The length is that of the
    # element of the word of g reversed, then the word of h.
    radius, margin = 6, voracious.verify.TRIM_MARGIN
    verifier = _fresh(stack, "triangle_334", radius=radius)
    constants = verifier.estimate_constants()
    geo = WallGeometry(CoxeterSystem(stack("triangle_334").cox))
    search = SeparatorSearch(geo)
    sys_ = geo.system
    ball = sys_.ball(radius)
    incident = {}
    first_radius = {}
    for h in ball:
        for root in matrix_of(h):
            incident.setdefault(sys_.wall_of_root(root), []).append(h)
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
    if name in BUILT:
        geo = fresh_geometry(*BUILT[name])
    elif name == "h535":
        geo = fresh_geometry("abcd", H535)
    elif name == "triangle_245":
        geo = fresh_geometry("abc", TRIANGLE_245)
    else:
        geo = WallGeometry(CoxeterSystem(stack(name).cox))
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
    # The report of `verify --radius 8 --seed 1` on (3,3,4), from a fresh
    # system as the command line builds it.  A reordered universe, wall sort
    # or seeded sample changes these bytes.
    system = CoxeterSystem(load_group_file(str(GROUPS_DIR / "triangle_334.json")))
    config = VerifierConfig(radius=8, seed=1)
    text = Verifier(WallGeometry(system), config).run_suite().to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "99ed70edfd47b1c7c475bd4557fbb729804020808edeb075dcc22cd2d1db7f99"
    )
    # The distance to the canonical incident chambers, which the depth
    # descents find.
    assert json.loads(text)["constants"]["Q_hat_canonical"] == 7


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
    check = _fresh(stack, "d_infinity", radius=4).check_separator_sampling()
    assert check.status == "skipped"


def test_finite_group_separator_sampling_skipped(stack):
    # Finite groups have no disjoint walls at all, so the separator
    # hypothesis is never met.
    report = _fresh(stack, "a3", radius=4).run_suite()
    by_name = {c.name: c for c in report.checks}
    assert by_name["sharp-angled-separator-sampling"].status == "skipped"
    assert report.passed


def test_separator_sampling_runs_on_triangles(stack, monkeypatch):
    monkeypatch.setattr(voracious.verify, "SEPARATOR_SAMPLES", 25)
    v = _fresh(stack, "triangle_334", radius=5)
    check = v.check_separator_sampling()
    assert check.status == "pass"
    assert check.details["samples"] == 25
    assert check.details["orbit_walls_checked"] > 0


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


def _pivots_without(geometry, word):
    """The shortlex word of every pivot but this one."""
    every = VoraciousAutomaton(geometry, small_roots(geometry)).words
    kept = tuple(w for w in every if w != word)
    assert len(kept) < len(every)
    return kept


def test_automaton_refuses_a_dropped_prefix(stack):
    # bcbca steps down its right descent a to bcbc, so the pivots without
    # bcbc are not prefix-closed, and no automaton is built over them.
    s = stack("triangle_334")
    geo = WallGeometry(CoxeterSystem(s.cox))
    kept = _pivots_without(geo, s.word("bcbc"))
    with pytest.raises(
        ValueError,
        match="^pivots are not prefix-closed: pivot 'bcbca' has the prefix "
        "'bcbc', which is neither the identity nor an earlier pivot$",
    ):
        VoraciousAutomaton(geo, small_roots(geo), kept)


def test_agreement_fails_on_a_dropped_pivot(stack, monkeypatch):
    # No pivot extends bcbca, so the pivots without it are prefix-closed,
    # and only the ball finds it.
    s = stack("triangle_334")
    geo = WallGeometry(CoxeterSystem(s.cox))

    def build_without_pivot(geometry):
        kept = _pivots_without(geometry, s.word("bcbca"))
        return VoraciousAutomaton(geometry, small_roots(geometry), kept)

    monkeypatch.setattr(voracious.verify, "build_automaton", build_without_pivot)
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
