import hashlib
import inspect
import itertools
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voracious import (
    CoxeterMatrix,
    CoxeterSystem,
    ResourceLimitError,
    WallGeometry,
    build_automaton,
    from_json_dict,
    load_group_file,
    small_roots,
    word_to_string,
)
from voracious.automaton import SHOWN_CHARS, _IndexPass

from conftest import (
    AFFINE_A3,
    BUILT,
    GROUPS_DIR,
    H535,
    TRIANGLE_237,
    TRIANGLE_245,
    all_words_of,
    fresh_geometry,
    frontier_walls,
    generator_wall,
    inverse_of,
    inversion_walls,
    left_shortlex_word,
    element_route,
    may_take_automaton_oracle,
    pivots_of,
    pull_back_target,
    reduced_words,
    run_states,
    separator_route,
    small_roots_bruteforce,
    sorted_pivot_search,
    translate_wall,
)

SMALL_ROOT_COUNTS = {
    "rank1": 1,
    "d_infinity": 2,
    "a2": 3,
    "b2": 4,
    "i2_5": 5,
    "a3": 6,
    "triangle_333": 6,
    "triangle_334": 7,
}


@pytest.mark.parametrize("name,count", sorted(SMALL_ROOT_COUNTS.items()))
def test_small_root_counts_frozen(stack, name, count):
    assert len(small_roots(stack(name).geometry)) == count


@pytest.mark.parametrize("name", sorted(SMALL_ROOT_COUNTS))
def test_small_roots_match_bruteforce(stack, name):
    s = stack(name)
    recursion = small_roots(s.geometry)
    brute = small_roots_bruteforce(s.geometry, radius=6)
    assert recursion == brute


def test_small_roots_of_line(stack):
    dinf = stack("d_infinity")
    geo = dinf.geometry
    assert set(small_roots(geo)) == {generator_wall(geo, 0), generator_wall(geo, 1)}


def test_finite_group_small_roots_are_all_walls(stack):
    # In a finite group every positive root is small.
    for name in ("a2", "b2", "i2_5", "a3"):
        s = stack(name)
        geo = s.geometry
        all_walls = set()
        for g in s.system.ball(16):
            all_walls |= inversion_walls(geo, g)
        assert set(small_roots(geo)) == all_walls


def test_pivots_frozen(stack):
    a2 = stack("a2")
    pivs = pivots_of(build_automaton(a2.geometry))
    assert len(pivs) == 5  # every nontrivial element of the finite group
    dinf = stack("d_infinity")
    want = {dinf.element("s"), dinf.element("t")}
    assert set(pivots_of(build_automaton(dinf.geometry))) == want
    t333 = stack("triangle_333")
    pivs = pivots_of(build_automaton(t333.geometry))
    assert len(pivs) == 15
    assert max(g.length for g in pivs) == 4
    t334 = stack("triangle_334")
    pivs = pivots_of(build_automaton(t334.geometry))
    assert len(pivs) == 17
    assert max(g.length for g in pivs) == 5
    order = sorted(pivs, key=lambda g: (g.length, t334.geometry.shortlex_word(g)))
    assert list(pivs) == order


def test_pivots_are_identity_projections(stack):
    # Brute force one length past the longest pivot: the search is complete.
    for name in sorted(SMALL_ROOT_COUNTS):
        s = stack(name)
        geo = s.geometry
        pivs = pivots_of(build_automaton(geo))
        radius = max(g.length for g in pivs) + 1
        expected = {
            g
            for g in s.system.ball(radius)
            if g.length and geo.projection_walk(g)[0] == {s.system.identity}
        }
        assert set(pivs) == expected


@pytest.fixture(scope="module")
def long_pivot_geometries():
    return {
        "affine_a3": fresh_geometry("abcd", AFFINE_A3),
        "triangle_237": fresh_geometry("abc", TRIANGLE_237),
    }


def test_long_pivot_groups_frozen(long_pivot_geometries):
    geo = long_pivot_geometries["affine_a3"]
    aut = build_automaton(geo)
    assert (len(aut.universe), len(aut.states), len(aut.edges)) == (12, 125, 872)
    assert len(aut.words) == 124
    assert max(map(len, aut.words)) == 10
    words = build_automaton(long_pivot_geometries["triangle_237"]).words
    assert len(words) == 39
    assert max(map(len, words)) == 12


def test_h535_automaton_frozen():
    geo = fresh_geometry("abcd", H535)
    aut = build_automaton(geo)
    assert len(aut.words) == 515
    assert max(map(len, aut.words)) == 21
    assert (len(aut.states), len(aut.edges)) == (516, 16_753)
    assert len(_prefix_graph_nodes(aut)) == 516
    # Loaded into a fresh geometry, so every pivot check runs from cold.
    text = aut.to_json()
    clone = from_json_dict(json.loads(text), fresh_geometry("abcd", H535))
    assert clone.to_json() == text
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "b751bf2b44b376a187c7f36df35dccc2c2dc03a6395bf4e3a9424a1566dc07ee"
    )


@pytest.mark.parametrize(
    "name", sorted(SMALL_ROOT_COUNTS) + ["affine_a3", "triangle_237", "h535"]
)
def test_masks_match_may_take_oracle(stack, name):
    built = {**BUILT, "h535": ("abcd", H535)}
    geo = fresh_geometry(*built[name]) if name in built else stack(name).geometry
    aut = build_automaton(geo)
    states, edges = may_take_automaton_oracle(geo)
    assert aut.states == states
    assert [(e.source, e.target, e.pivot_word) for e in aut.edges] == edges
    # The pivots' targets are distinct and none is the empty start state, so
    # there is one state per pivot besides the start.
    assert len(set(aut.states)) == len(aut.states) == len(aut.words) + 1


# Every shipped group and every group the conftest builds.
ALL_GROUPS = sorted(SMALL_ROOT_COUNTS) + [
    "affine_a3", "triangle_237", "h535", "triangle_245"
]


def _fresh(stack, name):
    built = {
        **BUILT,
        "h535": ("abcd", H535),
        "triangle_245": ("abc", TRIANGLE_245),
        "affine_c4": ("abcde", AFFINE_C4),
    }
    if name in built:
        return fresh_geometry(*built[name])
    return fresh_geometry(stack(name).cox.generators, stack(name).cox.orders)


@pytest.mark.parametrize("name", ALL_GROUPS)
def test_targets_match_pull_back_oracle(stack, name):
    # target(q), read along q's shortlex word by the Brink-Howlett
    # transition, is the state of q's frontier pulled back through q^{-1}.
    geo = _fresh(stack, name)
    aut = build_automaton(geo)
    for node, q in enumerate(pivots_of(aut), 1):
        assert aut.state_of_mask(pull_back_target(geo, q)) == node


@pytest.mark.parametrize("name", ALL_GROUPS)
def test_pivot_search_matches_sorted_oracle(stack, name):
    # The search's order and words equal the old sort's, computed on a
    # second fresh system, and each word is the least reduced word of its
    # element, as the climb (WallGeometry.shortlex_word) spells it too.
    geo = _fresh(stack, name)
    sys_ = geo.system
    words = list(build_automaton(geo).words)
    oracle = _fresh(stack, name)
    assert words == [
        left_shortlex_word(oracle.system, q) for q in sorted_pivot_search(oracle)
    ]
    for word in words:
        q = sys_.element_of_word(word)
        assert word == geo.shortlex_word(q) == min(reduced_words(sys_, q))


@pytest.mark.parametrize("name", ALL_GROUPS)
def test_run_pairs_extend_one_letter_at_a_time(stack, name):
    # The agreement check carries each word's (state, node) pairs down the
    # word tree: extending the pairs of a word by one letter gives the pairs
    # of the longer word, and their node-0 states are its run_states.
    aut = build_automaton(_fresh(stack, name))
    rank = len(aut.generators)
    todo = [((), aut.run_pairs(()))]
    words = 0
    while todo:
        word, pairs = todo.pop()
        words += 1
        assert pairs == aut.run_pairs(word), word
        assert {state for state, node in pairs if not node} == run_states(aut, word)
        assert aut.accepts(word) == bool(run_states(aut, word))
        if len(word) < 6:
            todo.extend((word + (s,), aut.run_pairs((s,), pairs)) for s in range(rank))
    assert words == sum(rank**n for n in range(7))


@pytest.mark.parametrize("name", ALL_GROUPS)
def test_build_makes_no_inverse(stack, name):
    # The build and its JSON export make no element but the identity, so
    # they apply no matrix to a root, multiply nothing and climb no word.
    geo = _fresh(stack, name)
    aut = build_automaton(geo)
    aut.to_json()
    stats = geo.system.stats()
    assert (stats["elements"], stats["right_products"]) == (1, 0)
    assert geo.stats()["shortlex_words"] == 1


# Affine C~4, linear 4-3-3-4: the tier-1 build with the most pivots.
AFFINE_C4 = (
    (1, 4, 2, 2, 2),
    (4, 1, 3, 2, 2),
    (2, 3, 1, 3, 2),
    (2, 2, 3, 1, 4),
    (2, 2, 2, 4, 1),
)


def test_affine_c4_build_frozen():
    # 6,560 pivots, the longest of length 50, with 14,580 right descents in
    # all, one prefix-graph entry each.  Once the small-root closure has
    # run, the build adds nothing to the system: no element but the
    # identity, no product, no wall and no wall reflection.
    geo = fresh_geometry("abcde", AFFINE_C4)
    geo.system.small_steps()
    closure = geo.system.stats()
    aut = build_automaton(geo)
    assert len(aut.words) == 6560
    assert max(map(len, aut.words)) == len(aut.words[-1]) == 50
    assert sum(map(bool, itertools.chain.from_iterable(aut.children))) == 14580
    assert geo.system.stats() == closure
    stats = (closure["elements"], closure["right_products"], closure["walls"])
    assert stats == (1, 0, 32)


@pytest.mark.parametrize("name", ALL_GROUPS + ["affine_c4"])
def test_pass_matches_separator_route(stack, name):
    # The pass over the shortlex tree against the route it replaced, on a
    # second fresh system: pivots by projection search, targets by pulling
    # frontiers back, forbid by the separator search.  forbid holds only
    # its universe part, and the masks are compared as sets of roots.
    geo = _fresh(stack, name)
    aut = build_automaton(geo)
    oracle = _fresh(stack, name)
    words, targets, forbid, children = separator_route(oracle)

    def roots(g, masks):
        return [{w.root for w in g.system.walls_of(m)} for m in masks]

    assert list(aut.words) == words
    assert roots(geo, aut._masks[1:]) == roots(oracle, targets)
    assert roots(geo, aut.forbid) == roots(oracle, forbid)
    assert aut.children == children


@pytest.mark.parametrize("name", ALL_GROUPS + ["affine_c4"])
def test_pass_matches_element_route(stack, name):
    # The pass on index tables against the element pass it replaced, on a
    # second fresh system: the same shortlex tree, with each pivot made by
    # right_mul, its sets stepped as Walls and its prefix graph entries
    # read off its right descents.  Masks are compared as sets of roots.
    geo = _fresh(stack, name)
    aut = build_automaton(geo)
    oracle = _fresh(stack, name)
    words, targets, forbid, children = element_route(oracle)

    def roots(g, masks):
        return [{w.root for w in g.system.walls_of(m)} for m in masks]

    assert list(aut.words) == words
    assert roots(geo, aut._masks[1:]) == roots(oracle, targets)
    assert roots(geo, aut.forbid) == roots(oracle, forbid)
    assert aut.children == children


def test_pass_past_255_small_roots():
    # Affine A~16 (the 17-cycle, every label 3) has 272 small roots, more
    # than a byte numbers: the pass's str tables take any count up to
    # MAX_SMALL_ROOTS.  Its 18^16 - 1 pivots are cut by a cap, and those
    # found before it are checked by the projection, the pull-back, the
    # inversion set and right products.
    k = 17
    orders = tuple(
        tuple(1 if i == j else 3 if (i - j) % k in (1, k - 1) else 2 for j in range(k))
        for i in range(k)
    )
    sys_ = CoxeterSystem(
        CoxeterMatrix(tuple("abcdefghijklmnopq"), orders), max_ball_elements=400
    )
    geo = WallGeometry(sys_)
    universe = small_roots(geo)
    assert len(universe) == 272
    tree = _IndexPass(sys_)
    with pytest.raises(ResourceLimitError, match="max_ball_elements = 400"):
        tree.run()
    small = sum(wall.bit for wall in universe)
    nodes = {sys_.identity: 0}
    for n, (word, target, forbid) in enumerate(
        zip(tree.words, tree.targets, tree.forbid), 1
    ):
        q = sys_.element_of_word(word)
        nodes[q] = n
        assert geo.shortlex_word(q) == word
        assert geo.voracious_projection(q) is sys_.identity
        assert target == pull_back_target(geo, q)
        assert forbid & geo.inversion_bits(q) == geo.inversion_bits(q) & small
        for s in sys_.right_descents(q):
            assert tree.children[nodes[sys_.right_mul(q, s)]][s] == n
    assert len(tree.words) > 300


# Affine groups by (finite type, rank n of the finite type, Coxeter number
# h, edges (i, j, m_ij) of the diagram with m_ij > 2); every other pair of
# the n + 1 generators commutes.
AFFINE_FAMILIES = {
    "A~2": ("A", 2, 3, [(0, 1, 3), (1, 2, 3), (2, 0, 3)]),
    "C~2": ("C", 2, 4, [(0, 1, 4), (1, 2, 4)]),
    "G~2": ("G", 2, 6, [(0, 1, 3), (1, 2, 6)]),
    "A~3": ("A", 3, 4, [(0, 1, 3), (1, 2, 3), (2, 3, 3), (3, 0, 3)]),
    "B~3": ("B", 3, 6, [(0, 2, 3), (1, 2, 3), (2, 3, 4)]),
    "C~3": ("C", 3, 6, [(0, 1, 4), (1, 2, 3), (2, 3, 4)]),
    "A~4": ("A", 4, 5, [(0, 1, 3), (1, 2, 3), (2, 3, 3), (3, 4, 3), (4, 0, 3)]),
    "B~4": ("B", 4, 8, [(0, 2, 3), (1, 2, 3), (2, 3, 3), (3, 4, 4)]),
    "C~4": ("C", 4, 8, [(0, 1, 4), (1, 2, 3), (2, 3, 3), (3, 4, 4)]),
    "D~4": ("D", 4, 6, [(0, 4, 3), (1, 4, 3), (2, 4, 3), (3, 4, 3)]),
}
# The Coxeter number of each finite type of rank n.
COXETER_NUMBER = {
    "A": lambda n: n + 1,
    "B": lambda n: 2 * n,
    "C": lambda n: 2 * n,
    "D": lambda n: 2 * n - 2,
    "G": lambda n: 6,
}


@pytest.mark.parametrize("name", sorted(AFFINE_FAMILIES))
def test_affine_closed_form_counts(name):
    # Closed forms that share no code with the engine.  In an affine Weyl
    # group whose finite type has rank n and Coxeter number h, the small
    # roots are the n h roots alpha and delta - alpha, for alpha a positive
    # root of the finite type, and the pivots and the identity number
    # (h + 1)^n, the number of regions of the finite type's Shi arrangement
    # (Shi, 1987).  Each pivot has its own target, so there is one state
    # per pivot besides the start.
    kind, n, h, edges = AFFINE_FAMILIES[name]
    assert COXETER_NUMBER[kind](n) == h
    orders = [[1 if i == j else 2 for j in range(n + 1)] for i in range(n + 1)]
    for i, j, m in edges:
        orders[i][j] = orders[j][i] = m
    aut = build_automaton(fresh_geometry("abcde"[: n + 1], tuple(map(tuple, orders))))
    assert len(aut.words) + 1 == (h + 1) ** n
    assert len(aut.universe) == n * h
    assert len(set(aut.states)) == len(aut.states)


@pytest.mark.parametrize("name", ALL_GROUPS)
def test_build_and_load_search_no_projection_separator_or_inversion(
    stack, name, monkeypatch
):
    # The pass steps small-root index tables alone: once the small-root
    # steps are built, with the projection, the inversion walk, the climb,
    # every product (CoxeterSystem.right_mul) and every 2B
    # (CoxeterSystem.gram2_row_dot, behind the separator search) made to
    # fail, a build and a load still succeed, and each makes no element
    # but the identity.
    built, loaded = _fresh(stack, name), _fresh(stack, name)
    built.system.small_steps()
    loaded.system.small_steps()

    def refuse(*args, **kwargs):
        raise AssertionError("the pass called a replaced route")

    for method in ("voracious_projection", "inversion_bits", "_climb"):
        monkeypatch.setattr(WallGeometry, method, refuse)
    for method in ("gram2_row_dot", "right_mul"):
        monkeypatch.setattr(CoxeterSystem, method, refuse)
    aut = build_automaton(built)
    text = aut.to_json()
    assert built.system.stats()["elements"] == 1
    clone = from_json_dict(json.loads(text), loaded)
    assert clone.to_json() == text
    assert loaded.system.stats()["elements"] == 1


@pytest.fixture(scope="module")
def pivot_trees():
    """A fresh geometry and a pass over it per group, shared by examples."""
    return {}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(name=st.sampled_from(ALL_GROUPS), draw=st.data())
def test_shortlex_state_allows_exactly_the_shortlex_words(
    stack, pivot_trees, name, draw
):
    # The pass's shortlex state X allows a word letter by letter iff the
    # word is the shortlex word of its element, by the climb
    # (WallGeometry.shortlex_word), for every prefix of a word of length up
    # to 12.  A node of the pass holds X at index 4, as the str of the
    # numbers of its small roots, and alpha_s is number s.
    if name not in pivot_trees:
        geo = _fresh(stack, name)
        pivot_trees[name] = geo, _IndexPass(geo.system)
    geo, tree = pivot_trees[name]
    sys_ = geo.system
    word = draw.draw(st.lists(st.integers(0, sys_.rank - 1), max_size=12))
    x, allowed = tree.root[4], True
    for n, s in enumerate(word, 1):
        allowed = allowed and chr(s) not in x
        prefix = tuple(word[:n])
        if allowed:
            x = tree.shortlex_step(x, s)
        assert allowed == (geo.shortlex_word(sys_.element_of_word(prefix)) == prefix)


@pytest.mark.parametrize("name", ALL_GROUPS)
def test_json_load_makes_no_inverse(stack, name):
    # The loader builds the group's automaton by the pass, so a load into a
    # fresh geometry makes no element but the identity.
    text = build_automaton(_fresh(stack, name)).to_json()
    geo = _fresh(stack, name)
    from_json_dict(json.loads(text), geo)
    stats = geo.system.stats()
    assert (stats["elements"], stats["right_products"]) == (1, 0)


def test_334_automaton_bytes_frozen():
    # `automaton --format json` and `--format dot` on (3,3,4), from a fresh
    # system as the command line builds it.  A saved file is read back only
    # if it holds exactly these JSON values.  DOT numbers state n as node n
    # of the pivot prefix graph.
    system = CoxeterSystem(load_group_file(str(GROUPS_DIR / "triangle_334.json")))
    aut = build_automaton(WallGeometry(system))
    digests = [
        hashlib.sha256(text.encode()).hexdigest()
        for text in (aut.to_json(), aut.to_dot())
    ]
    assert digests == [
        "d6933539b88740386e61e6b2d4e0c1954181b89ecbf3bd0be0d05535d89d02fa",
        "81a99468312eddf1528cfb4229f774e7965aa546d509c773c3875c788aa80a9a",
    ]


def test_pivots_are_prefix_closed(stack, long_pivot_geometries):
    geometries = [stack(name).geometry for name in sorted(SMALL_ROOT_COUNTS)]
    for geo in geometries + list(long_pivot_geometries.values()):
        sys_ = geo.system
        pivs = set(pivots_of(build_automaton(geo)))
        for g in pivs:
            for s in sys_.right_descents(g):
                prefix = sys_.right_mul(g, s)
                assert prefix.length == 0 or prefix in pivs


def test_pivot_stepping_down_to_no_pivot_is_an_internal_error(stack, monkeypatch):
    # Were the pass to refuse ts in A2, the pivot sts = tst, reached through
    # st, would step down its right descent t to ts, which is no pivot: the
    # pivots' prefix-closure would have failed, which is no input error.
    geo = _fresh(stack, "a2")
    t = stack("a2").word("t")
    child = _IndexPass._child
    monkeypatch.setattr(
        _IndexPass,
        "_child",
        lambda self, node, s: None if node[1] == t and s == 0 else child(self, node, s),
    )
    with pytest.raises(ArithmeticError) as failed:
        build_automaton(geo)
    assert str(failed.value) == (
        "pivots are not prefix-closed: pivot 'sts' steps down its right "
        "descent 't' to no pivot"
    )


def test_pivot_search_is_bounded(stack):
    cox = stack("triangle_334").cox
    with pytest.raises(ResourceLimitError):
        build_automaton(WallGeometry(CoxeterSystem(cox, max_ball_elements=5)))
    # The pass examines 31 elements of (3,3,4): the identity and the 30
    # letters that the shortlex states allow, 17 of them giving pivots.  A
    # cap of 31 admits it and a cap of 30 does not.  It makes no element
    # but the identity.
    geo = WallGeometry(CoxeterSystem(cox, max_ball_elements=31))
    assert len(build_automaton(geo).words) == 17
    assert geo.system.stats()["elements"] == 1
    with pytest.raises(ResourceLimitError, match="exceeded max_ball_elements = 30"):
        build_automaton(WallGeometry(CoxeterSystem(cox, max_ball_elements=30)))


def test_gold_automaton_of_line(stack):
    dinf = stack("d_infinity")
    geo = dinf.geometry
    aut = build_automaton(geo)
    w_t, w_s = generator_wall(geo, 1), generator_wall(geo, 0)
    assert aut.universe == (w_t, w_s)
    # State n is the target of pivot n - 1, s then t.
    assert aut.states == ((), (1,), (0,))
    got = {(e.source, e.target, e.pivot_word, aut.labels[e.target]) for e in aut.edges}
    assert got == {
        (0, 1, (0,), ((0,),)),
        (0, 2, (1,), ((1,),)),
        (2, 1, (0,), ((0,),)),
        (1, 2, (1,), ((1,),)),
    }


def test_gold_automaton_of_a2(stack):
    a2 = stack("a2")
    aut = build_automaton(a2.geometry)
    assert len(aut.states) == 6
    assert len(aut.edges) == 5
    assert all(e.source == 0 for e in aut.edges)
    longest = [e for e in aut.edges if len(e.pivot_word) == 3]
    assert len(longest) == 1
    assert aut.labels[longest[0].target] == ((0, 1, 0), (1, 0, 1))


def test_gold_automaton_of_rank1(stack):
    aut = build_automaton(stack("rank1").geometry)
    assert aut.states == ((), (0,))
    assert len(aut.edges) == 1
    assert aut.accepts((0,))
    assert not aut.accepts((0, 0))
    # Letters outside the generators spell no label.
    assert not aut.accepts((1,))
    assert not aut.accepts((-1,))


def test_state_and_edge_counts_frozen(stack):
    t333 = build_automaton(stack("triangle_333").geometry)
    assert (len(t333.states), len(t333.edges)) == (16, 51)
    t334 = build_automaton(stack("triangle_334").geometry)
    assert (len(t334.states), len(t334.edges)) == (18, 71)


def test_accepts_frozen(stack):
    dinf = stack("d_infinity")
    aut = build_automaton(dinf.geometry)
    assert aut.accepts(())
    assert aut.accepts(dinf.word("stst"))
    assert aut.accepts(dinf.word("tsts"))
    assert not aut.accepts(dinf.word("stt"))
    assert not aut.accepts(dinf.word("ss"))
    a2 = stack("a2")
    aut2 = build_automaton(a2.geometry)
    assert aut2.accepts(a2.word("sts"))
    assert aut2.accepts(a2.word("tst"))
    assert not aut2.accepts(a2.word("stst"))


def test_run_states_frozen(stack):
    dinf = stack("d_infinity")
    aut = build_automaton(dinf.geometry)
    # A run ends in the state of its last pivot: t is pivot 1, s pivot 0.
    assert run_states(aut, ()) == {0}
    assert run_states(aut, dinf.word("st")) == {2}
    assert run_states(aut, dinf.word("ts")) == {1}
    assert run_states(aut, dinf.word("tt")) == frozenset()
    a2 = stack("a2")
    aut2 = build_automaton(a2.geometry)
    # st is pivot 2 of A2, after s and t.
    assert run_states(aut2, a2.word("st")) == {3}


def _label_scan_states(targets_by_label, start, rank, max_length):
    """Reference splitter: (word, states) for every word of length at most
    max_length, by a depth-first walk over prefixes.

    reach[j] holds the states at which a split of the first j letters into
    consecutive edge labels ends, so it depends on those letters alone and
    is computed once per prefix: t is in reach[j] iff some edge into t leaves
    a state in reach[i] with label word[i:j], for some i < j.
    """
    stack = [((), (frozenset({start}),))]
    while stack:
        word, reach = stack.pop()
        yield word, reach[-1]
        if len(word) == max_length:
            continue
        for letter in range(rank):
            w = word + (letter,)
            here = set()
            for i, states in enumerate(reach):
                tail = w[i:]
                for state in states:
                    here.update(targets_by_label[state].get(tail, ()))
            stack.append((w, reach + (frozenset(here),)))


def _assert_run_states_match_label_scan(aut, rank, max_length):
    targets_by_label = [{} for _ in aut.states]
    for e in aut.edges:
        for lab in aut.labels[e.target]:
            targets_by_label[e.source].setdefault(lab, set()).add(e.target)
    words = 0
    for w, want in _label_scan_states(targets_by_label, aut.start, rank, max_length):
        assert run_states(aut, w) == want, w
        words += 1
    assert words == sum(rank**n for n in range(max_length + 1))


@pytest.mark.parametrize("name", sorted(SMALL_ROOT_COUNTS))
def test_run_states_matches_label_scan(stack, name):
    s = stack(name)
    _assert_run_states_match_label_scan(build_automaton(s.geometry), s.cox.rank, 7)


@pytest.mark.parametrize("name", ["affine_a3", "triangle_237"])
def test_run_states_matches_label_scan_long_pivots(long_pivot_geometries, name):
    geo = long_pivot_geometries[name]
    _assert_run_states_match_label_scan(build_automaton(geo), geo.system.rank, 7)


def test_accepts_long_word(stack):
    dinf = stack("d_infinity")
    aut = build_automaton(dinf.geometry)
    word = dinf.word("st" * 5000)
    assert aut.accepts(word)
    assert not aut.accepts(word + dinf.word("t"))


def _prefix_graph_nodes(aut):
    """The element of each node of the automaton's pivot prefix graph.

    Found by walking the children from node 0.  Asserts that every node is
    reached and one element's, and that children[n][s] is the node of h s
    when h s is longer than h and is a node, and 0 otherwise.
    """
    sys_ = aut.geometry.system
    children = aut.children
    elements = [sys_.identity] + [None] * (len(children) - 1)
    queue = [0]
    for n in queue:
        for s, c in enumerate(children[n]):
            if c and elements[c] is None:
                elements[c] = sys_.right_mul(elements[n], s)
                queue.append(c)
    assert None not in elements
    index = {h: n for n, h in enumerate(elements)}
    assert len(index) == len(elements)
    for n, h in enumerate(elements):
        for s in range(sys_.rank):
            hs = sys_.right_mul(h, s)
            want = index.get(hs, 0) if hs.length > h.length else 0
            assert children[n][s] == want
    return elements


def test_prefix_graph_has_one_node_per_pivot(long_pivot_geometries):
    # Pivots are prefix-closed, so the nodes are the pivots and the identity,
    # and each pivot's node ends exactly the edges that carry it.
    geo = long_pivot_geometries["affine_a3"]
    aut = build_automaton(geo)
    elements = _prefix_graph_nodes(aut)
    assert elements == [geo.system.identity, *pivots_of(aut)]
    ends = [{}] + [
        {
            state: q + 1
            for state, st in enumerate(aut.states)
            if not sum(aut.universe[v].bit for v in st) & aut.forbid[q]
        }
        for q in range(len(aut.words))
    ]
    want = [{} for _ in elements]
    index = {h: n for n, h in enumerate(elements)}
    for e in aut.edges:
        want[index[geo.system.element_of_word(e.pivot_word)]][e.source] = e.target
    assert ends == want


def _json_of(stack, name):
    s = stack(name)
    return build_automaton(s.geometry).to_json_dict(), s.geometry


def _json_of_334(stack):
    return _json_of(stack, "triangle_334")


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("start", 7, "unknown key 'start'"),
        ("cos_denominator", 99, "cos_denominator is 99, but .* writes 12"),
        ("comment", "hand edited", "unknown key 'comment'"),
    ],
)
def test_json_rejects_changed_top_level_key(stack, key, value, message):
    data, geo = _json_of_334(stack)
    data[key] = value
    with pytest.raises(ValueError, match=message):
        from_json_dict(data, geo)
    del data[key]
    if key == "cos_denominator":
        with pytest.raises(ValueError, match=f"{key} is null"):
            from_json_dict(data, geo)


def test_json_rejects_non_reduced_pivot_word(stack):
    # Refused at its entry, after the last pivot or in place of the first.
    for edit in ("append", "replace"):
        data, geo = _json_of(stack, "a2")
        if edit == "append":
            data["pivots"].append("ss")
            want = 'pivots entry 5 is "ss", but the group\'s automaton writes null'
        else:
            data["pivots"][0] = "ss"
            want = 'pivots entry 0 is "ss", but the group\'s automaton writes "s"'
        with pytest.raises(ValueError) as refused:
            from_json_dict(data, geo)
        assert str(refused.value) == want


def test_json_rejects_reduced_word_that_is_not_a_pivot(stack):
    # Refused at its entry, after the last pivot or in place of the first.
    for edit in ("append", "replace"):
        data, geo = _json_of(stack, "d_infinity")
        assert data["pivots"] == ["s", "t"]
        if edit == "append":
            data["pivots"].append("st")
            want = 'pivots entry 2 is "st", but the group\'s automaton writes null'
        else:
            data["pivots"][0] = "st"
            want = 'pivots entry 0 is "st", but the group\'s automaton writes "s"'
        with pytest.raises(ValueError) as refused:
            from_json_dict(data, geo)
        assert str(refused.value) == want


def test_json_rejects_pivot_word_out_of_shortlex_order(stack):
    data, geo = _json_of(stack, "a2")
    assert data["pivots"][-1] == "sts"
    data["pivots"][-1] = "tst"
    with pytest.raises(ValueError) as refused:
        from_json_dict(data, geo)
    assert str(refused.value) == (
        'pivots entry 4 is "tst", but the group\'s automaton writes "sts"'
    )


def test_json_rejects_pivots_out_of_order_or_repeated(stack):
    # Each word is a pivot's, but the list is not the one the build writes.
    data, geo = _json_of(stack, "a2")
    data["pivots"][1], data["pivots"][2] = data["pivots"][2], data["pivots"][1]
    with pytest.raises(ValueError, match=r'pivots entry 1 is "st", but .* "t"'):
        from_json_dict(data, geo)
    data, geo = _json_of(stack, "a2")
    data["pivots"].append("s")
    with pytest.raises(ValueError, match=r'pivots entry 5 is "s", but .* null'):
        from_json_dict(data, geo)


def test_json_rejects_missing_key(stack):
    data, geo = _json_of(stack, "a2")
    del data["pivots"]
    with pytest.raises(ValueError) as refused:
        from_json_dict(data, geo)
    assert str(refused.value) == (
        'pivots is null, but the group\'s automaton writes '
        '["s", "t", "st", "ts", "sts"]'
    )


def test_json_rejects_top_level_list(stack):
    data, geo = _json_of(stack, "a2")
    with pytest.raises(ValueError, match="JSON object"):
        from_json_dict([data], geo)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(name=st.sampled_from(["d_infinity", "a2", "triangle_334"]), draw=st.data())
def test_json_mutation_is_refused_or_written_back(stack, name, draw):
    # One mutation of a saved file is refused if it changes the file, a
    # pivot word missing, repeated, changed or moved among them; a
    # mutation that changes nothing, such as a pivot swapped with itself,
    # loads to the automaton that writes the file back.
    geo = stack(name).geometry
    data = build_automaton(geo).to_json_dict()
    written = json.dumps(data, sort_keys=True)
    pivot_words = data["pivots"]
    gens = "".join(data["generators"])

    def index(seq):
        return draw.draw(st.integers(0, len(seq) - 1))

    values = st.one_of(
        st.integers(-1, 20),
        st.sampled_from([True, 1.0, None, []]),
        st.text(alphabet=gens, max_size=5),
    )
    kind = draw.draw(
        st.sampled_from(
            ["drop pivot", "duplicate pivot", "edit pivot", "swap pivots",
             "edit key", "drop key", "add key"]
        )
    )
    if kind == "drop pivot":
        del pivot_words[index(pivot_words)]
    elif kind == "duplicate pivot":
        i = draw.draw(st.integers(0, len(pivot_words)))
        pivot_words.insert(i, pivot_words[index(pivot_words)])
    elif kind == "edit pivot":
        pivot_words[index(pivot_words)] = draw.draw(values)
    elif kind == "swap pivots":
        i, j = index(pivot_words), index(pivot_words)
        pivot_words[i], pivot_words[j] = pivot_words[j], pivot_words[i]
    elif kind == "edit key":
        key = draw.draw(st.sampled_from(sorted(data)))
        old = json.dumps(data[key])
        data[key] = draw.draw(values.filter(lambda v: json.dumps(v) != old))
    elif kind == "drop key":
        del data[draw.draw(st.sampled_from(sorted(data)))]
    else:
        data[draw.draw(st.text(max_size=5).filter(lambda k: k not in data))] = (
            draw.draw(values)
        )
    if json.dumps(data, sort_keys=True) != written:
        with pytest.raises(ValueError):
            from_json_dict(data, geo)
    else:
        aut = from_json_dict(data, geo)
        assert json.dumps(aut.to_json_dict(), sort_keys=True) == written


def test_json_rejects_root_with_wrong_coordinate_count(stack):
    data, geo = _json_of(stack, "a3")
    data["universe"][0] = ["1"] * 4
    with pytest.raises(ValueError, match="universe entry 0"):
        from_json_dict(data, geo)


def test_json_rejects_root_with_non_integer_coefficients(stack):
    data, geo = _json_of(stack, "a3")
    data["universe"][0] = ["1/3"] * 3
    with pytest.raises(ValueError, match="universe entry 0"):
        from_json_dict(data, geo)
    # c = cos(pi/12) is y/2, so it is not integral either.
    data, geo = _json_of_334(stack)
    data["universe"][0] = ["0", ["0", "1"], "1"]
    with pytest.raises(ValueError, match="universe entry 0"):
        from_json_dict(data, geo)


def test_json_rejects_root_with_mixed_signs(stack):
    data, geo = _json_of_334(stack)
    data["universe"][1] = ["1", "-1", "0"]
    with pytest.raises(ValueError, match="universe entry 1"):
        from_json_dict(data, geo)


def test_json_rejects_zero_root(stack):
    data, geo = _json_of_334(stack)
    data["universe"][1] = ["0", "0", "0"]
    with pytest.raises(ValueError, match="universe entry 1"):
        from_json_dict(data, geo)


def test_json_rejects_positive_non_root(stack):
    data, geo = _json_of_334(stack)
    data["universe"][0] = ["2", "0", "0"]
    with pytest.raises(ValueError, match="universe entry 0"):
        from_json_dict(data, geo)


def test_json_rejects_universe_other_than_small_roots(stack):
    data, geo = _json_of_334(stack)
    data["universe"][0], data["universe"][1] = data["universe"][1], data["universe"][0]
    with pytest.raises(ValueError, match="universe entry 0"):
        from_json_dict(data, geo)
    data, geo = _json_of_334(stack)
    data["universe"].pop()
    with pytest.raises(ValueError, match="universe entry 6 is null"):
        from_json_dict(data, geo)
    data, geo = _json_of_334(stack)
    data["universe"].append(["1", "1", "1"])
    want = r'universe entry 7 is \["1", "1", "1"\], but .* writes null'
    with pytest.raises(ValueError, match=want):
        from_json_dict(data, geo)


def test_json_refusal_cuts_long_values(stack):
    # One huge entry does not flood the message: each value shows at most
    # SHOWN_CHARS characters, then an ellipsis; a short value shows whole.
    data, geo = _json_of(stack, "a2")
    data["universe"][0] = ["1"] * 500
    with pytest.raises(ValueError) as refused:
        from_json_dict(data, geo)
    message = str(refused.value)
    shown = json.dumps(["1"] * 500)[:SHOWN_CHARS] + "…"
    assert message == (
        f"universe entry 0 is {shown}, but the group's automaton writes "
        '["0", "1"]'
    )


def test_edges_are_frontier_pullbacks(stack):
    # Every edge's target is the pivot's frontier pulled back through the
    # pivot, re-expressed in universe indices; its labels are all the words
    # of the pivot's length that spell the pivot.
    for name in ("d_infinity", "triangle_333", "triangle_334"):
        s = stack(name)
        geo = s.geometry
        aut = build_automaton(s.geometry)
        uindex = {w: i for i, w in enumerate(aut.universe)}
        for e in aut.edges:
            w = s.system.element_of_word(e.pivot_word)
            spelled = tuple(
                u
                for u in itertools.product(range(s.cox.rank), repeat=w.length)
                if s.system.element_of_word(u) == w
            )
            assert aut.labels[e.target] == spelled
            back = {
                uindex[translate_wall(geo, inverse_of(s.system, w), f)]
                for f in frontier_walls(geo, w)
            }
            assert aut.states[e.target] == tuple(sorted(back))


def test_run_state_matches_element_frontier(stack):
    # Running any accepted word leaves the machine in exactly one state: the
    # frontier of the word's element, pulled back through the element.
    for name in ("d_infinity", "a2", "triangle_333"):
        s = stack(name)
        geo = s.geometry
        aut = build_automaton(s.geometry)
        for g in s.system.ball(5):
            back = {
                translate_wall(geo, inverse_of(s.system, g), f)
                for f in frontier_walls(geo, g)
            }
            want = aut.state_of_mask(sum(w.bit for w in back))
            assert want is not None
            for w in all_words_of(s.language, g):
                assert run_states(aut, w) == {want}


def test_json_round_trip(stack, long_pivot_geometries):
    geometries = [stack(name).geometry for name in ("d_infinity", "b2", "triangle_334")]
    for geo in geometries + list(long_pivot_geometries.values()):
        aut = build_automaton(geo)
        text = aut.to_json()
        clone = from_json_dict(json.loads(text), geo)
        assert clone.to_json() == text


@pytest.mark.parametrize(
    "name", sorted(SMALL_ROOT_COUNTS) + ["affine_a3", "triangle_237", "h535"]
)
def test_json_load_into_fresh_geometry_rebuilds_the_automaton(stack, name):
    # A file holds only pivot words: loaded into a fresh geometry, they give
    # the build's states, edges, target and forbid masks.  Wall bits are
    # numbered per geometry, so the masks are compared as sets of roots.
    aut = build_automaton(_fresh(stack, name))
    clone = from_json_dict(json.loads(aut.to_json()), _fresh(stack, name))

    def roots(a, masks):
        return [{w.root for w in a.geometry.system.walls_of(m)} for m in masks]

    assert clone.states == aut.states
    assert clone.edges == aut.edges
    assert roots(clone, clone._masks) == roots(aut, aut._masks)
    assert roots(clone, clone.forbid) == roots(aut, aut.forbid)
    assert clone.to_json() == aut.to_json()


def test_json_rejects_other_group(stack):
    aut = build_automaton(stack("a2").geometry)
    data = json.loads(aut.to_json())
    with pytest.raises(ValueError):
        from_json_dict(data, stack("d_infinity").geometry)


def test_json_rejects_old_format(stack):
    # Format-1 files may hold a truncated pivot set; format-2 files store
    # labels, which are now derived; format-3 files store states and edges,
    # which the pivots fix.
    a2 = stack("a2")
    data = json.loads(build_automaton(a2.geometry).to_json())
    assert data["format"] == "voracious-automaton-4"
    assert set(data) == {"format", "generators", "m", "cos_denominator", "universe", "pivots"}
    for old in ("voracious-automaton", "voracious-automaton-2", "voracious-automaton-3"):
        data["format"] = old
        with pytest.raises(ValueError, match="rebuild it"):
            from_json_dict(data, a2.geometry)


def test_json_rejects_format_3_file(stack):
    # The whole D-infinity file as format 3 wrote it.
    text = """{
  "cos_denominator": 1,
  "edges": [
    {"from": 0, "pivot_word": "s", "to": 2},
    {"from": 0, "pivot_word": "t", "to": 1},
    {"from": 1, "pivot_word": "s", "to": 2},
    {"from": 2, "pivot_word": "t", "to": 1}
  ],
  "format": "voracious-automaton-3",
  "generators": ["s", "t"],
  "m": [[1, 0], [0, 1]],
  "start": 0,
  "states": [[], [0], [1]],
  "universe": [["0", "1"], ["1", "0"]]
}"""
    want = "format 'voracious-automaton-3' is not 'voracious-automaton-4'; rebuild it"
    with pytest.raises(ValueError, match=want):
        from_json_dict(json.loads(text), stack("d_infinity").geometry)


def test_json_exact_coordinates(stack):
    b2 = stack("b2")
    aut = build_automaton(b2.geometry)
    data = aut.to_json_dict()
    assert data["cos_denominator"] == 4
    # Roots with irrational coordinates serialize as cos-basis coefficient
    # lists; rational ones as plain fraction strings.
    flat = [c for root in data["universe"] for c in root]
    assert ["0", "2"] in flat  # the coordinate sqrt(2) = 2 cos(pi/4)
    assert "1" in flat


def test_json_universe_entry_of_237_frozen(long_pivot_geometries):
    # The loader compares rendered coordinates, so the rendering is part of
    # the file format.  (2,3,7) has degree 12 over powers of c = cos(pi/42).
    data = build_automaton(long_pivot_geometries["triangle_237"]).to_json_dict()
    assert data["cos_denominator"] == 42
    assert len(data["universe"]) == 12
    a = ["-2", "0", "36", "0", "-96", "0", "64", "0", "0", "0", "0", "0"]
    b = ["2", "0", "-80", "0", "720", "0", "-2176", "0", "2560", "0", "-1024", "0"]
    assert data["universe"][1] == [a, b, a]


def test_build_is_deterministic(stack):
    s = stack("triangle_334")
    a = build_automaton(s.geometry)
    b = build_automaton(s.geometry)
    assert a.to_json() == b.to_json()
    assert a.to_dot() == b.to_dot()


@pytest.mark.parametrize("name", ALL_GROUPS)
def test_labels_match_reduced_words_oracle(stack, name):
    # The labels read off the prefix graph are the reduced words of each
    # pivot, as the oracle lists them by stepping down right descents on a
    # second fresh system.
    aut = build_automaton(_fresh(stack, name))
    oracle = _fresh(stack, name).system
    assert aut.labels[0] == ((),)
    for word, labels in zip(aut.words, aut.labels[1:]):
        assert labels == tuple(sorted(reduced_words(oracle, oracle.element_of_word(word))))


@pytest.mark.parametrize("name", ["triangle_334", "affine_a3"])
def test_dot_makes_no_element(stack, name):
    # The labels come from the prefix graph, so a DOT export, like the
    # build, makes no element but the identity.
    geo = _fresh(stack, name)
    build_automaton(geo).to_dot()
    assert geo.system.stats()["elements"] == 1


def test_repeated_target_is_an_internal_error(stack, monkeypatch):
    # Each pivot has its own target, so state n can be node n; a pass that
    # gave two pivots one target would have broken that lemma.
    run = _IndexPass.run

    def run_repeating_a_target(self):
        run(self)
        self.targets[1] = self.targets[0]

    monkeypatch.setattr(_IndexPass, "run", run_repeating_a_target)
    with pytest.raises(ArithmeticError, match="two pivots share a target"):
        build_automaton(_fresh(stack, "a2"))


def test_labels_are_bounded(stack):
    # The labels of A3 are 66 words: one for each reduced word of each of
    # its 24 elements, all of them pivots, with the 16 of the longest.  The
    # build tries 24 elements, so a cap of 65 admits it and refuses the
    # labels, before DOT lists any state or edge.
    cox = stack("a3").cox
    aut = build_automaton(WallGeometry(CoxeterSystem(cox, max_ball_elements=66)))
    assert sum(map(len, aut.labels)) == 66
    assert len(aut.labels[-1]) == 16
    aut = build_automaton(WallGeometry(CoxeterSystem(cox, max_ball_elements=65)))
    with pytest.raises(ResourceLimitError, match="reduced words exceeded 65 words"):
        aut.to_dot()
    assert "states" not in vars(aut) and "edges" not in vars(aut)


def test_labels_past_recursion_limit():
    # H(5,3,5) has pivots of length 21.  Its labels and DOT walk no pivot
    # letter by letter on the call stack: both run with fewer frames to
    # spare than that.
    aut = build_automaton(fresh_geometry("abcd", H535))
    assert max(map(len, aut.words)) == 21
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 15)
    try:
        dot = aut.to_dot()
    finally:
        sys.setrecursionlimit(limit)
    assert dot.count("->") == len(aut.edges) + 1


def test_dot_output_shape(stack):
    aut = build_automaton(stack("d_infinity").geometry)
    dot = aut.to_dot()
    assert dot.startswith("digraph voracious {")
    assert "qstart" in dot
    assert dot.count("->") == len(aut.edges) + 1  # plus the start marker
    assert '"{(0, 1)}"' in dot


def test_exhaustive_agreement_small_groups(stack):
    # accepts == language membership for every word up to length 7.
    for name in ("a2", "b2", "d_infinity"):
        s = stack(name)
        aut = build_automaton(s.geometry)
        for n in range(8):
            for w in itertools.product(range(s.cox.rank), repeat=n):
                assert aut.accepts(w) == s.language.contains(w)
