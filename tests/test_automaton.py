import itertools
import json

import pytest

from voracious import (
    CoxeterSystem,
    ResourceLimitError,
    WallGeometry,
    build_automaton,
    from_json_dict,
    pivots,
    small_roots,
)

from conftest import AFFINE_A3, TRIANGLE_237, fresh_geometry, small_roots_bruteforce

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
    assert set(small_roots(geo)) == {geo.wall_of_generator(0), geo.wall_of_generator(1)}


def test_finite_group_small_roots_are_all_walls(stack):
    # In a finite group every positive root is small.
    for name in ("a2", "b2", "i2_5", "a3"):
        s = stack(name)
        geo = s.geometry
        all_walls = set()
        for g in s.system.ball(16):
            all_walls |= geo.inversion_walls(g)
        assert set(small_roots(geo)) == all_walls


def test_pivots_frozen(stack):
    a2 = stack("a2")
    pivs = pivots(a2.geometry)
    assert len(pivs) == 5  # every nontrivial element of the finite group
    dinf = stack("d_infinity")
    assert set(pivots(dinf.geometry)) == {dinf.element("s"), dinf.element("t")}
    t333 = stack("triangle_333")
    pivs = pivots(t333.geometry)
    assert len(pivs) == 15
    assert max(g.length for g in pivs) == 4
    t334 = stack("triangle_334")
    pivs = pivots(t334.geometry)
    assert len(pivs) == 17
    assert max(g.length for g in pivs) == 5
    order = sorted(pivs, key=lambda g: (g.length, t334.system.shortlex_word(g)))
    assert list(pivs) == order


def test_pivots_are_identity_projections(stack):
    # Brute force one length past the longest pivot: the search is complete.
    for name in sorted(SMALL_ROOT_COUNTS):
        s = stack(name)
        geo = s.geometry
        pivs = pivots(geo)
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
    pivs = pivots(geo)
    assert len(pivs) == 124
    assert max(g.length for g in pivs) == 10
    pivs = pivots(long_pivot_geometries["triangle_237"])
    assert len(pivs) == 39
    assert max(g.length for g in pivs) == 12


# Hyperbolic H(5,3,5): the longest pivots of any group here.  Built in the
# test, not shipped, so the SHIPPED-parametrised tests do not all take it.
H535 = ((1, 5, 2, 2), (5, 1, 3, 2), (2, 3, 1, 5), (2, 2, 5, 1))


def test_h535_automaton_frozen():
    geo = fresh_geometry("abcd", H535)
    pivs = pivots(geo)
    assert len(pivs) == 515
    assert max(g.length for g in pivs) == 21
    aut = build_automaton(geo)
    assert (len(aut.states), len(aut.edges)) == (516, 16_753)
    # Loaded into a fresh geometry, so every edge check runs from cold.
    text = aut.to_json()
    clone = from_json_dict(json.loads(text), fresh_geometry("abcd", H535))
    assert clone == aut
    assert clone.to_json() == text


def test_pivots_are_prefix_closed(stack, long_pivot_geometries):
    geometries = [stack(name).geometry for name in sorted(SMALL_ROOT_COUNTS)]
    for geo in geometries + list(long_pivot_geometries.values()):
        sys_ = geo.system
        pivs = set(pivots(geo))
        for g in pivs:
            for s in sys_.right_descents(g):
                prefix = sys_.right_mul(g, s)
                assert prefix.length == 0 or prefix in pivs


def test_pivot_search_is_bounded(stack):
    cox = stack("triangle_334").cox
    with pytest.raises(ResourceLimitError):
        build_automaton(WallGeometry(CoxeterSystem(cox, max_ball_elements=5)))


def test_gold_automaton_of_line(stack):
    dinf = stack("d_infinity")
    geo = dinf.geometry
    aut = build_automaton(geo)
    w_t, w_s = geo.wall_of_generator(1), geo.wall_of_generator(0)
    assert aut.universe == (w_t, w_s)
    assert aut.states == ((), (0,), (1,))
    got = {
        (e.source, e.target, e.pivot_word, aut.labels(e.pivot_word))
        for e in aut.edges
    }
    assert got == {
        (0, 2, (0,), ((0,),)),
        (0, 1, (1,), ((1,),)),
        (1, 2, (0,), ((0,),)),
        (2, 1, (1,), ((1,),)),
    }


def test_gold_automaton_of_a2(stack):
    a2 = stack("a2")
    aut = build_automaton(a2.geometry)
    assert len(aut.states) == 6
    assert len(aut.edges) == 5
    assert all(e.source == 0 for e in aut.edges)
    longest = [e for e in aut.edges if len(e.pivot_word) == 3]
    assert len(longest) == 1
    assert aut.labels(longest[0].pivot_word) == ((0, 1, 0), (1, 0, 1))


def test_gold_automaton_of_rank1(stack):
    aut = build_automaton(stack("rank1").geometry)
    assert aut.states == ((), (0,))
    assert len(aut.edges) == 1
    assert aut.accepts((0,))
    assert not aut.accepts((0, 0))


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
    assert aut.run_states(()) == {0}
    assert aut.run_states(dinf.word("st")) == {1}
    assert aut.run_states(dinf.word("ts")) == {2}
    assert aut.run_states(dinf.word("tt")) == frozenset()
    a2 = stack("a2")
    aut2 = build_automaton(a2.geometry)
    assert aut2.run_states(a2.word("st")) == {3}


def _label_scan_states(by_source, start, word):
    """Reference splitter: at each position try every label of every state."""
    n = len(word)
    reach = [set() for _ in range(n + 1)]
    reach[0].add(start)
    for i in range(n):
        for state in reach[i]:
            for lab, target in by_source[state]:
                if word[i : i + len(lab)] == lab:
                    reach[i + len(lab)].add(target)
    return frozenset(reach[n])


def _assert_run_states_match_label_scan(aut, rank, max_length):
    by_source = [[] for _ in aut.states]
    for e in aut.edges:
        for lab in aut.labels(e.pivot_word):
            by_source[e.source].append((lab, e.target))
    for n in range(max_length + 1):
        for w in itertools.product(range(rank), repeat=n):
            want = _label_scan_states(by_source, aut.start, w)
            assert aut.run_states(w) == want, w


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


def test_label_trie_is_shared(long_pivot_geometries):
    # One trie over the distinct pivots' labels, not one per source state.
    aut = build_automaton(long_pivot_geometries["affine_a3"])
    labels = {e.pivot_word: aut.labels(e.pivot_word) for e in aut.edges}
    letters = sum(len(lab) for labs in labels.values() for lab in labs)
    children, _ = aut._label_trie()
    assert len(children) < letters


def _json_of_334(stack):
    s = stack("triangle_334")
    return build_automaton(s.geometry).to_json_dict(), s.geometry


def test_json_rejects_edge_outside_states(stack):
    data, geo = _json_of_334(stack)
    data["edges"][3]["to"] = len(data["states"])
    with pytest.raises(ValueError):
        from_json_dict(data, geo)
    data, geo = _json_of_334(stack)
    data["edges"][3]["from"] = -1
    with pytest.raises(ValueError):
        from_json_dict(data, geo)


def test_json_rejects_repeated_source_and_pivot(stack):
    data, geo = _json_of_334(stack)
    data["edges"].append(dict(data["edges"][0]))
    with pytest.raises(ValueError):
        from_json_dict(data, geo)


def test_json_rejects_non_reduced_pivot_word(stack):
    a2 = stack("a2")
    data = build_automaton(a2.geometry).to_json_dict()
    data["edges"][0]["pivot_word"] = "ss"
    with pytest.raises(ValueError, match="'ss' is empty or not reduced"):
        from_json_dict(data, a2.geometry)


def _json_of(stack, name):
    s = stack(name)
    return build_automaton(s.geometry).to_json_dict(), s.geometry


def _edge(data, source, pivot_word):
    (e,) = [
        e for e in data["edges"] if (e["from"], e["pivot_word"]) == (source, pivot_word)
    ]
    return e


def test_json_rejects_edge_into_wrong_state(stack):
    # With this edge redirected, the file would accept the non-geodesic tss.
    data, geo = _json_of(stack, "d_infinity")
    _edge(data, 1, "s")["to"] = 1
    with pytest.raises(ValueError, match=r"edge 1 -> 1 with pivot 's' must enter"):
        from_json_dict(data, geo)


def test_json_rejects_reduced_word_that_is_not_a_pivot(stack):
    data, geo = _json_of(stack, "d_infinity")
    _edge(data, 0, "s")["pivot_word"] = "st"
    with pytest.raises(ValueError, match="'st' is not a pivot"):
        from_json_dict(data, geo)


def test_json_rejects_pivot_word_out_of_shortlex_order(stack):
    data, geo = _json_of(stack, "a2")
    _edge(data, 0, "sts")["pivot_word"] = "tst"
    with pytest.raises(ValueError, match="'tst' is not the shortlex word"):
        from_json_dict(data, geo)


def test_json_rejects_edge_from_state_that_may_not_take_its_pivot(stack):
    # State 2 holds the wall of s, an inversion wall of the pivot s.
    data, geo = _json_of(stack, "d_infinity")
    data["edges"].append({"from": 2, "to": 2, "pivot_word": "s"})
    with pytest.raises(ValueError, match="edge 2 -> 2 with pivot 's' leaves"):
        from_json_dict(data, geo)


def _json_of_a2(stack):
    s = stack("a2")
    return build_automaton(s.geometry).to_json_dict(), s.geometry


def test_json_rejects_missing_key(stack):
    data, geo = _json_of_a2(stack)
    del data["edges"]
    with pytest.raises(ValueError, match="'edges'"):
        from_json_dict(data, geo)


def test_json_rejects_top_level_list(stack):
    data, geo = _json_of_a2(stack)
    with pytest.raises(ValueError, match="JSON object"):
        from_json_dict([data], geo)


def test_json_rejects_state_outside_universe(stack):
    data, geo = _json_of_a2(stack)
    data["states"][1] = [99]
    with pytest.raises(ValueError, match=r"state \[99\]"):
        from_json_dict(data, geo)
    data, geo = _json_of_a2(stack)
    data["states"][-1] = data["states"][-1][::-1]
    with pytest.raises(ValueError, match="strictly increasing"):
        from_json_dict(data, geo)


def _json_of_a3(stack):
    s = stack("a3")
    return build_automaton(s.geometry).to_json_dict(), s.geometry


def test_json_rejects_root_with_wrong_coordinate_count(stack):
    data, geo = _json_of_a3(stack)
    data["universe"][0] = ["1"] * 4
    with pytest.raises(ValueError, match="universe entry 0"):
        from_json_dict(data, geo)


def test_json_rejects_root_with_non_integer_coefficients(stack):
    data, geo = _json_of_a3(stack)
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
    with pytest.raises(ValueError, match="small root 7 of the group is null"):
        from_json_dict(data, geo)


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
            assert aut.labels(e.pivot_word) == spelled
            back = {
                uindex[geo.translate_wall(s.system.inverse(w), f)]
                for f in geo.frontier_set(w)
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
                geo.translate_wall(s.system.inverse(g), f)
                for f in geo.frontier_set(g)
            }
            want = aut.state_of_walls(back)
            assert want is not None
            for w in s.language.all_words_of(g):
                assert aut.run_states(w) == {want}


def test_json_round_trip(stack, long_pivot_geometries):
    geometries = [stack(name).geometry for name in ("d_infinity", "b2", "triangle_334")]
    for geo in geometries + list(long_pivot_geometries.values()):
        aut = build_automaton(geo)
        text = aut.to_json()
        clone = from_json_dict(json.loads(text), geo)
        assert clone == aut
        assert clone.to_json() == text


def test_json_rejects_other_group(stack):
    aut = build_automaton(stack("a2").geometry)
    data = json.loads(aut.to_json())
    with pytest.raises(ValueError):
        from_json_dict(data, stack("d_infinity").geometry)


def test_json_rejects_old_format(stack):
    # Format-1 files may hold a truncated pivot set; format-2 files store
    # labels, which are now derived.
    a2 = stack("a2")
    data = json.loads(build_automaton(a2.geometry).to_json())
    assert data["format"] == "voracious-automaton-3"
    assert set(data["edges"][0]) == {"from", "to", "pivot_word"}
    for old in ("voracious-automaton", "voracious-automaton-2"):
        data["format"] = old
        with pytest.raises(ValueError, match="rebuild it"):
            from_json_dict(data, a2.geometry)


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
    assert a == b
    assert a.to_json() == b.to_json()
    assert a.to_dot() == b.to_dot()


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
