"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines
alongside the pytest verdicts.  Criteria 1 and 2 carry a timing budget and
therefore build everything from scratch inside the test body.
"""

import functools
import itertools
import time

from voracious import (
    CoxeterSystem,
    Verifier,
    VoraciousLanguage,
    WallGeometry,
    build_automaton,
    load_group_file,
    small_roots,
)

from conftest import (
    GROUPS_DIR,
    all_words_of,
    automorphisms,
    generator_wall,
    reduced_words,
    small_roots_bruteforce,
)


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num} {name}: FAIL", flush=True)
                raise
            suffix = f" ({detail})" if detail else ""
            print(f"ACCEPTANCE {num} {name}: PASS{suffix}", flush=True)

        return wrapper

    return deco


def _fresh(name):
    system = CoxeterSystem(load_group_file(str(GROUPS_DIR / f"{name}.json")))
    geometry = WallGeometry(system)
    return system, geometry, VoraciousLanguage(geometry)


_VERIFIERS: dict[str, Verifier] = {}


def _verifier(stack, name) -> Verifier:
    # Shared radius-6 verifier per triangle group; several criteria read it.
    if name not in _VERIFIERS:
        _VERIFIERS[name] = Verifier(stack(name).geometry)
    return _VERIFIERS[name]


@criterion(1, "finite-group language collapse")
def test_criterion_1_finite_collapse():
    t0 = time.perf_counter()
    longest = {"a2": 3, "b2": 4, "i2_5": 5, "a3": 6}
    for name, top in longest.items():
        system, geometry, language = _fresh(name)
        ball = system.ball(top)
        assert len(system.ball(top + 1)) == len(ball)  # the whole group
        for g in ball:
            assert all_words_of(language, g) == reduced_words(system, g)
        aut = build_automaton(geometry)
        for n in range(top + 1):
            for w in itertools.product(range(system.rank), repeat=n):
                reduced = system.element_of_word(w).length == len(w)
                assert language.contains(w) == reduced
                assert aut.accepts(w) == reduced
        if name == "a2":
            assert len(ball) == 6
            assert sum(len(all_words_of(language, g)) for g in ball) == 7
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    return f"A2/B2/I2(5)/A3 exhaustive, {elapsed:.2f}s"


@criterion(2, "infinite dihedral gold automaton")
def test_criterion_2_dihedral_gold():
    t0 = time.perf_counter()
    system, geometry, language = _fresh("d_infinity")
    aut = build_automaton(geometry)
    w_t, w_s = generator_wall(geometry, 1), generator_wall(geometry, 0)
    assert aut.universe == (w_t, w_s)
    # State n is the target of pivot n - 1: state 1 that of s, {alpha_s},
    # universe wall 1, and state 2 that of t.
    assert aut.states == ((), (1,), (0,))
    assert {(e.source, e.target, e.pivot_word) for e in aut.edges} == {
        (0, 1, (0,)),
        (0, 2, (1,)),
        (2, 1, (0,)),
        (1, 2, (1,)),
    }
    for n in range(11):
        for w in itertools.product(range(2), repeat=n):
            alternating = all(a != b for a, b in zip(w, w[1:]))
            assert aut.accepts(w) == alternating
            assert language.contains(w) == alternating
    for g in system.ball(10):
        assert all_words_of(language, g) == reduced_words(system, g)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    return f"3 states, 4 edges, words to length 10, {elapsed:.2f}s"


@criterion(3, "projection has a unique maximum at scale")
def test_criterion_3_unique_max(stack):
    counts = {}
    for name in ("triangle_333", "triangle_334"):
        check = _verifier(stack, name).check_unique_max()
        assert check.status == "pass", check
        counts[name] = (check.details["elements"], check.details["candidates"])
    assert counts["triangle_333"] == (64, 172)
    assert counts["triangle_334"] == (88, 266)
    return "radius 6, balls of 64 and 88, 172 and 266 candidates"


@criterion(4, "automaton agrees with the language")
def test_criterion_4_regularity(stack):
    totals = []
    for name, n_pivots in (("triangle_333", 15), ("triangle_334", 17)):
        check = _verifier(stack, name).check_automaton_agreement()
        assert check.status == "pass", check
        assert check.details["pivots"] == n_pivots
        assert check.details["words_checked"] == sum(3**n for n in range(7))
        totals.append(check.details["accepted"])
    return f"all words to length 6; accepted {totals[0]} and {totals[1]}"


@criterion(5, "two-sided fellow-traveller bounds hold")
def test_criterion_5_fellow_traveller(stack):
    parts = []
    for name in ("triangle_333", "triangle_334"):
        check = _verifier(stack, name).check_fellow_traveller()
        assert check.status == "pass", check
        d = check.details
        assert d["ii_max"] <= d["ii_bound"]
        assert d["iii_max"] <= d["iii_bound"]
        short = name.removeprefix("triangle_")
        parts.append(
            f"({short}) ii {d['ii_max']}<={d['ii_bound']}"
            f" iii {d['iii_max']}<={d['iii_bound']}"
        )
    return "; ".join(parts)


@criterion(6, "small-root recursion matches brute force")
def test_criterion_6_small_roots(stack):
    counts = {}
    for name in (
        "rank1",
        "a2",
        "b2",
        "i2_5",
        "a3",
        "d_infinity",
        "triangle_333",
        "triangle_334",
    ):
        geo = stack(name).geometry
        recursion = small_roots(geo)
        assert recursion == small_roots_bruteforce(geo, radius=6)
        counts[name] = len(recursion)
    assert counts["d_infinity"] == 2
    assert counts["a2"] == 3
    assert counts["b2"] == 4
    return "8 groups, counts 1/3/4/5/6/2/6/7"


@criterion(7, "diagram symmetries permute the language")
def test_criterion_7_equivariance(stack):
    for name in ("a2", "d_infinity", "triangle_333"):
        s = stack(name)
        words = set()
        for g in s.system.ball(6):
            words |= all_words_of(s.language, g)
        perms = automorphisms(s.cox)
        assert len(perms) > 1  # a nontrivial symmetry exists in each case
        for perm in perms:
            mapped = {tuple(perm[i] for i in w) for w in words}
            assert mapped == words
    return "radius-6 balls, all diagram symmetries"


@criterion(8, "sharp-angled separator lemma on every chamber of the ball")
def test_criterion_8_separator_sampling(stack):
    # Every (chamber, pair, residue wall with no separator) of the radius-6
    # ball is visited, not a sample.
    walls = []
    for name, want in (("triangle_333", 2094), ("triangle_334", 3246)):
        check = _verifier(stack, name).check_separator_sampling()
        assert check.status == "pass", check
        assert check.details["residue_walls_checked"] == want
        walls.append(want)
    return f"{walls[0]} + {walls[1]} unseparated residue walls, zero failures"
