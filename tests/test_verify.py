import itertools
import json

from voracious import (
    CoxeterMatrix,
    CoxeterSystem,
    Verifier,
    VerifierConfig,
    WallGeometry,
)

from conftest import BUILT, fresh_geometry, multiply, projection_monotone_bruteforce

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


def test_triangle_suite_smoke(stack):
    v = _fresh(stack, "triangle_333", radius=4, separator_samples=20)
    report = v.run_suite()
    by_name = {c.name: c for c in report.checks}
    assert [c.name for c in report.checks] == CHECK_NAMES
    assert report.passed
    assert by_name["projection-unique-maximum"].status == "pass"
    assert by_name["fellow-traveller-bounds"].status == "pass"
    assert report.constants.C_hat >= 3


def test_fellow_traveller_matches_direct_recomputation(stack):
    # Independent recomputation for the tiny group: walk both words letter by
    # letter, measure each gap directly through group multiplication.
    s = stack("a2")
    sys_ = s.system
    v = _fresh(stack, "a2", radius=3)
    report = v.run_suite()

    def walk(word, head):
        cur = head
        out = [cur]
        for x in word:
            cur = sys_.right_mul(cur, x)
            out.append(cur)
        return out

    def dist(a, b):
        return multiply(sys_, sys_.inverse(a), b).length

    max_ii = 0
    max_iii = 0
    for g in sys_.ball(3):
        for s_idx in range(2):
            for kind in ("ii", "iii"):
                if kind == "ii":
                    g2 = sys_.right_mul(g, s_idx)
                    head = sys_.identity
                else:
                    g2 = sys_.left_mul(g, s_idx)
                    head = sys_.element_of_word((s_idx,))
                if g2.length != g.length + 1 or g2.length > 3:
                    continue
                for w1 in s.language.all_words_of(g):
                    for w2 in s.language.all_words_of(g2):
                        left = walk(w1, head)
                        right = walk(w2, sys_.identity)
                        worst = max(
                            dist(
                                left[min(i, len(w1))],
                                right[min(i, len(w2))],
                            )
                            for i in range(max(len(w1), len(w2)) + 1)
                        )
                        if kind == "ii":
                            max_ii = max(max_ii, worst)
                        else:
                            max_iii = max(max_iii, worst)
    assert report.constants.ft_ii_max == max_ii
    assert report.constants.ft_iii_max == max_iii


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


def test_separator_sampling_runs_on_triangles(stack):
    v = _fresh(stack, "triangle_334", radius=5, separator_samples=25)
    check = v.check_separator_sampling()
    assert check.status == "pass"
    assert check.details["samples"] == 25
    assert check.details["orbit_walls_checked"] > 0


def test_separator_free_pairs_agree_between_search_domains(stack):
    # The verifier's complete separator search (every wall a candidate)
    # agrees with the frontier membership computed from inversion-set
    # candidates.
    s = stack("triangle_334")
    geo = s.geometry
    for g in s.system.ball(4):
        front = geo.frontier_set(g)
        for wall in geo.inversion_walls(g):
            assert (not geo.has_separator(g, wall)) == (wall in front)


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
    walls = {geo.wall_of_generator(0), geo.wall_of_generator(1)}
    assert walls <= frontier_set(g)
    dropped = frontier_set(g) - walls
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
    monkeypatch.setitem(geo._proj, st, (st, identity))
    check = Verifier(geo, VerifierConfig(radius=3)).check_projection_monotone()
    assert check.status == "fail"
    assert check.witness == {"g": "sts", "between": "st", "p_g": "", "p_between": "st"}
    assert not projection_monotone_bruteforce(geo, 3)[1]
