import itertools
import math
import pathlib
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voracious import (
    INF,
    CoxeterMatrix,
    CoxeterSystem,
    GroupConfigError,
    ResourceLimitError,
    parse_group_config,
    word_from_string,
    word_to_string,
)

from conftest import (
    AFFINE_A3,
    BUILT,
    TRIANGLE_237,
    fresh_geometry,
    multiply,
    positive_definite_sylvester,
)


SHIPPED = sorted(
    p.stem for p in (pathlib.Path(__file__).parent.parent / "groups").glob("*.json")
)


def _system(rows, gens=None):
    k = len(rows)
    gens = gens or tuple("stuvw"[:k])
    return CoxeterSystem(CoxeterMatrix(tuple(gens), tuple(tuple(r) for r in rows)))


def test_parse_valid_config():
    cox = parse_group_config('{"generators": ["s", "t"], "m": [[1, 3], [3, 1]]}')
    assert cox.generators == ("s", "t")
    assert cox.order(0, 1) == 3
    assert cox.rank == 2
    assert cox.field_modulus() == 3


def test_parse_infinite_order():
    cox = parse_group_config('{"generators": ["s", "t"], "m": [[1, 0], [0, 1]]}')
    assert cox.order(0, 1) == INF
    assert cox.field_modulus() == 1


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        "[1, 2]",
        '{"generators": ["s", "t"]}',
        '{"generators": ["s", "t"], "m": [[1, 3], [2, 1]]}',  # not symmetric
        '{"generators": ["s", "t"], "m": [[2, 3], [3, 1]]}',  # bad diagonal
        '{"generators": ["s", "t"], "m": [[1, 1], [1, 1]]}',  # order 1 off-diagonal
        '{"generators": ["s", "s"], "m": [[1, 3], [3, 1]]}',  # duplicate names
        '{"generators": ["s", "t"], "m": [[1, 3]]}',  # not square
        '{"generators": [], "m": []}',
        '{"generators": ["s", "t"], "m": [[1, 3.0], [3.0, 1]]}',  # non-integer
        '{"generators": ["s", "t"], "m": [[true, 3], [3, true]]}',  # bool, not int
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(GroupConfigError):
        parse_group_config(text)


def test_word_string_round_trip():
    gens = ("s", "t", "u")
    assert word_to_string((0, 1, 0), gens) == "sts"
    assert word_from_string("sts", gens) == (0, 1, 0)
    assert word_from_string("s,t,s", gens) == (0, 1, 0)
    assert word_from_string("", gens) == ()
    long_gens = ("r1", "r2")
    assert word_to_string((0, 1), long_gens) == "r1,r2"
    assert word_from_string("r1,r2", long_gens) == (0, 1)
    with pytest.raises(GroupConfigError):
        word_from_string("sx", gens)


def test_gram_matrix_entries(stack):
    a2 = stack("a2")
    scalar = a2.system.ctx.scalar
    assert scalar(a2.system.gram2[0][1]) == -1
    assert scalar(a2.system.gram2[0][0]) == 2
    dinf = stack("d_infinity")
    assert dinf.system.ctx.scalar(dinf.system.gram2[0][1]) == -2
    b2 = stack("b2")
    x = b2.system.ctx.scalar(b2.system.gram2[0][1])
    assert x.sign() < 0
    y = 2.0 * math.cos(math.pi / 4)
    assert abs(sum(float(c) * y**j for j, c in enumerate(x.coeffs)) + y) < 1e-12


def test_a2_multiplication_table(stack):
    sys_ = stack("a2").system
    words = ["", "s", "t", "st", "ts", "sts"]
    elems = {w: stack("a2").element(w) for w in words}
    assert len({id(e) for e in elems.values()}) == 6
    # Frozen Cayley table: (row word) * s and * t, computed by hand.
    right_s = {"": "s", "s": "", "t": "ts", "st": "sts", "ts": "t", "sts": "st"}
    right_t = {"": "t", "s": "st", "t": "", "st": "s", "ts": "sts", "sts": "ts"}
    for w in words:
        assert sys_.right_mul(elems[w], 0) == elems[right_s[w]]
        assert sys_.right_mul(elems[w], 1) == elems[right_t[w]]
    # Left multiplication example: s * (st) = t.
    assert sys_.left_mul(elems["st"], 0) == elems["t"]


def test_element_identities(stack):
    a2 = stack("a2")
    assert a2.element("ss") == a2.element("")
    assert a2.element("sts") == a2.element("tst")
    assert a2.element("sts").length == 3
    dinf = stack("d_infinity")
    assert dinf.element("sts").matrix != dinf.element("tst").matrix
    assert dinf.element("stst").length == 4


def test_descents(stack):
    a2 = stack("a2")
    sys_ = a2.system
    assert sys_.left_descents(sys_.identity) == ()
    assert sys_.right_descents(sys_.identity) == ()
    st_elem = a2.element("st")
    assert sys_.left_descents(st_elem) == (0,)
    assert sys_.right_descents(st_elem) == (1,)
    w0 = a2.element("sts")
    assert sys_.left_descents(w0) == (0, 1)
    assert sys_.right_descents(w0) == (0, 1)


def test_shortlex(stack):
    a2 = stack("a2")
    assert a2.system.shortlex_word(a2.element("tst")) == (0, 1, 0)
    assert a2.system.shortlex_word(a2.system.identity) == ()
    dinf = stack("d_infinity")
    assert dinf.system.shortlex_word(dinf.element("tst")) == (1, 0, 1)
    for s in (a2, dinf):
        for g in s.system.ball(4):
            word = s.system.shortlex_word(g)
            assert len(word) == g.length
            assert s.system.element_of_word(word) == g


@pytest.mark.parametrize("name", SHIPPED)
def test_shortlex_is_least_reduced_word(stack, name):
    # A fresh system, long elements first: short words then come from the
    # suffixes that the long walks put in the memo.
    sys_ = CoxeterSystem(stack(name).cox)
    for g in sorted(sys_.ball(5), key=lambda g: -g.length):
        assert sys_.shortlex_word(g) == min(sys_.reduced_words(g))


def test_shortlex_second_pass_is_memo_hits(stack):
    sys_ = CoxeterSystem(stack("triangle_334").cox)
    ball = sys_.ball(6)
    first = [sys_.shortlex_word(g) for g in ball]
    calls = []
    for name in ("_mul_gen_left", "_mul_gen_right"):
        inner = getattr(sys_, name)

        def counted(*args, _inner=inner, _name=name):
            calls.append(_name)
            return _inner(*args)

        setattr(sys_, name, counted)
    assert [sys_.shortlex_word(g) for g in ball] == first
    assert calls == []


def test_reduced_words(stack):
    a2 = stack("a2")
    assert a2.system.reduced_words(a2.element("s")) == {(0,)}
    assert a2.system.reduced_words(a2.element("sts")) == {(0, 1, 0), (1, 0, 1)}
    dinf = stack("d_infinity")
    assert dinf.system.reduced_words(dinf.element("sts")) == {(0, 1, 0)}


def test_reduced_words_past_recursion_limit():
    sys_ = _system([[1, INF], [INF, 1]])
    word = (0, 1) * 700
    assert sys_.reduced_words(sys_.element_of_word(word)) == {word}


def test_reduced_words_of_a3_longest_element(stack):
    a3 = stack("a3")
    w0 = a3.element("abacba")
    assert w0.length == 6
    assert sorted(a3.system.reduced_words(w0)) == [
        (0, 1, 0, 2, 1, 0), (0, 1, 2, 0, 1, 0), (0, 1, 2, 1, 0, 1),
        (0, 2, 1, 0, 2, 1), (0, 2, 1, 2, 0, 1), (1, 0, 1, 2, 1, 0),
        (1, 0, 2, 1, 0, 2), (1, 0, 2, 1, 2, 0), (1, 2, 0, 1, 0, 2),
        (1, 2, 0, 1, 2, 0), (1, 2, 1, 0, 1, 2), (2, 0, 1, 0, 2, 1),
        (2, 0, 1, 2, 0, 1), (2, 1, 0, 1, 2, 1), (2, 1, 0, 2, 1, 2),
        (2, 1, 2, 0, 1, 2),
    ]


@pytest.mark.parametrize("name,radius", [("a2", 4), ("d_infinity", 4), ("a3", 4)])
def test_reduced_words_match_bruteforce(stack, name, radius):
    s = stack(name)
    sys_ = s.system
    for g in sys_.ball(radius):
        brute = {
            w
            for w in itertools.product(range(s.cox.rank), repeat=g.length)
            if sys_.element_of_word(w) == g
        }
        assert sys_.reduced_words(g) == brute


def test_ball_counts(stack):
    assert len(stack("a2").system.ball(0)) == 1
    assert len(stack("a2").system.ball(3)) == 6
    assert len(stack("a2").system.ball(9)) == 6  # group is exhausted
    assert len(stack("d_infinity").system.ball(3)) == 7
    assert [len(stack("a3").system.sphere(r)) for r in range(7)] == [
        1, 3, 5, 6, 5, 3, 1,
    ]
    assert len(stack("b2").system.ball(4)) == 8
    assert len(stack("i2_5").system.ball(5)) == 10


def test_ball_matches_bruteforce_enumeration(stack):
    s = stack("triangle_333")
    for radius in range(4):
        brute = set()
        for n in range(radius + 1):
            for w in itertools.product(range(3), repeat=n):
                g = s.system.element_of_word(w)
                if g.length == n:
                    brute.add(g)
        assert set(s.system.ball(radius)) == brute


def test_is_finite(stack):
    assert stack("a2").system.is_finite()
    assert stack("b2").system.is_finite()
    assert stack("i2_5").system.is_finite()
    assert stack("a3").system.is_finite()
    assert stack("rank1").system.is_finite()
    assert not stack("d_infinity").system.is_finite()
    assert not stack("triangle_333").system.is_finite()
    assert not stack("triangle_334").system.is_finite()


def _chain(orders):
    """The Coxeter matrix of a path diagram with these consecutive orders."""
    k = len(orders) + 1
    rows = [[1 if i == j else 2 for j in range(k)] for i in range(k)]
    for i, m in enumerate(orders):
        rows[i][i + 1] = rows[i + 1][i] = m
    return rows


def _e8():
    rows = _chain([3] * 6 + [2])
    rows[2][7] = rows[7][2] = 3
    return rows


@pytest.mark.parametrize(
    "rows,small",
    [
        (_e8(), 120),
        (_chain([3, 4, 3]), 24),
        (_chain([5, 3, 3]), 60),
        ([list(r) for r in AFFINE_A3], None),
        ([list(r) for r in TRIANGLE_237], None),
        ([[1, 5, 2, 2], [5, 1, 3, 2], [2, 3, 1, 5], [2, 2, 5, 1]], None),
    ],
    ids=["E8", "F4", "H4", "affine_A3", "triangle_237", "H535"],
)
def test_is_finite_named_groups(rows, small):
    # A finite group's small roots are all its positive roots.
    system = _system(rows, gens=[f"s{i}" for i in range(len(rows))])
    assert system.is_finite() == (small is not None)
    assert positive_definite_sylvester(system) == (small is not None)
    if small is not None:
        assert len(system.small_roots()) == small


def test_is_finite_matches_sylvester():
    rng = random.Random(13)
    orders = (INF, 2, 2, 2, 3, 3, 4, 5, 6)
    finite = 0
    for _ in range(400):
        k = rng.randint(1, 6)
        rows = [[1] * k for _ in range(k)]
        for i, j in itertools.combinations(range(k), 2):
            rows[i][j] = rows[j][i] = rng.choice(orders)
        system = _system(rows, gens=[f"s{i}" for i in range(k)])
        want = positive_definite_sylvester(system)
        assert system.is_finite() == want, rows
        finite += want
    assert 100 < finite < 300


def test_length_changes_by_one(stack):
    for name in ("a2", "d_infinity", "triangle_334"):
        s = stack(name)
        for g in s.system.ball(3):
            for i in range(s.cox.rank):
                assert abs(s.system.right_mul(g, i).length - g.length) == 1
                assert abs(s.system.left_mul(g, i).length - g.length) == 1


@pytest.mark.parametrize("name", SHIPPED)
def test_left_mul_matches_multiply(stack, name):
    sys_ = stack(name).system
    for g in sys_.ball(5):
        for s in range(sys_.rank):
            got = sys_.left_mul(g, s)
            want = multiply(sys_, sys_.element_of_word((s,)), g)
            assert got == want
            assert got.inv == want.inv
            assert got.length == want.length


@pytest.mark.parametrize("name", SHIPPED + sorted(BUILT))
def test_entries_are_int_coefficient_tuples(stack, name):
    # Matrices, inverses and roots hold canonical coefficient tuples of ints,
    # one entry per power of y below the field degree.
    geo = fresh_geometry(*BUILT[name]) if name in BUILT else stack(name).geometry
    sys_ = geo.system
    d = sys_.ctx.degree

    def is_coeff_tuple(x):
        return type(x) is tuple and len(x) == d and all(type(c) is int for c in x)

    for g in sys_.ball(5):
        for mat in (g.matrix, g.inv):
            assert all(is_coeff_tuple(x) for row in mat for x in row)
        for wall in geo.inversion_walls(g):
            assert all(is_coeff_tuple(x) for x in wall.root)


@pytest.mark.parametrize("name", SHIPPED + sorted(BUILT))
def test_columns_are_root_images(stack, name):
    # Column s of g is g(alpha_s) and column s of g^{-1} is g^{-1}(alpha_s):
    # alpha_s pushed through reflect along g's shortlex word, right to left,
    # or along the reversed word.
    sys_ = fresh_geometry(*BUILT[name]).system if name in BUILT else stack(name).system
    simple = sys_.identity.matrix
    for g in sys_.ball(5):
        word = sys_.shortlex_word(g)
        for s in range(sys_.rank):
            root = inv_root = simple[s]
            for t in reversed(word):
                root = sys_.reflect(t, root)
            for t in word:
                inv_root = sys_.reflect(t, inv_root)
            assert g.matrix[s] == root
            assert g.inv[s] == inv_root
        # Each reflection is an involution and preserves the form.
        for t in range(sys_.rank):
            image = [sys_.reflect(t, col) for col in g.matrix]
            assert [sys_.reflect(t, v) for v in image] == list(g.matrix)
            for u, u2 in zip(g.matrix, image):
                for v, v2 in zip(g.matrix, image):
                    assert sys_.bilinear2(u2, v2) == sys_.bilinear2(u, v)


def test_form_is_invariant(stack):
    # g^T (2B) g = 2B, checked exactly entry by entry.
    for name in ("a2", "d_infinity", "triangle_334"):
        s = stack(name)
        sys_ = s.system
        k = s.cox.rank
        for g in sys_.ball(4):
            for i in range(k):
                for j in range(k):
                    got = sys_.bilinear2(g.matrix[i], g.matrix[j])
                    assert got == sys_.gram2[i][j]


def test_inverse_and_multiply(stack):
    s = stack("triangle_334")
    sys_ = s.system
    for g in sys_.ball(3):
        gi = sys_.inverse(g)
        assert sys_.inverse(g) is gi and sys_.inverse(gi) is g
        assert gi.length == g.length
        assert multiply(sys_, g, gi) == sys_.identity
        for h in sys_.ball(2):
            prod = multiply(sys_, g, h)
            assert prod == sys_.element_of_word(
                sys_.shortlex_word(g) + sys_.shortlex_word(h)
            )


IDENTITY_GROUPS = ("triangle_334", "affine_a3", "triangle_237")


@pytest.mark.parametrize("name", IDENTITY_GROUPS)
def test_one_element_per_matrix(stack, name):
    # The system builds each element once, so every route to g, by any
    # reduced word, by inverses or from the left, returns g itself.
    sys_ = fresh_geometry(*BUILT[name]).system if name in BUILT else stack(name).system
    for g in sys_.ball(6):
        for u in sys_.reduced_words(g):
            assert sys_.element_of_word(u) is g
        assert sys_.inverse(sys_.inverse(g)) is g
        word = sys_.shortlex_word(g)
        for s in range(sys_.rank):
            assert sys_.left_mul(g, s) is sys_.element_of_word((s,) + word)


def test_elements_belong_to_their_system():
    rows = ((1, 3, 3), (3, 1, 4), (3, 4, 1))
    a, b = _system(rows), _system(rows)
    assert a.identity != b.identity
    for g in a.ball(3):
        h = b.element_of_word(a.shortlex_word(g))
        assert h.matrix == g.matrix
        assert h != g


def test_element_reached_with_another_length_raises():
    sys_ = _system(((1, 3, 3), (3, 1, 4), (3, 4, 1)))
    g = sys_.element_of_word((0, 1, 2))
    assert sys_._element(g.matrix, g.inv, g.length) is g
    with pytest.raises(ArithmeticError, match="two lengths"):
        sys_._element(g.matrix, g.inv, g.length + 2)


def test_ball_cap_leaves_built_layers_unchanged():
    # (3,3,4) has 20 elements of length <= 3 and 35 of length <= 4.
    cox = CoxeterMatrix(("s", "t", "u"), ((1, 3, 3), (3, 1, 4), (3, 4, 1)))
    sys_ = CoxeterSystem(cox, max_ball_elements=30)
    ball = sys_.ball(3)
    assert len(ball) == 20
    layers = [list(layer) for layer in sys_._layers]
    for _ in range(2):
        with pytest.raises(ResourceLimitError):
            sys_.ball(6)
        assert sys_._layers == layers
    assert sys_.ball(3) == ball


def test_automorphisms(stack):
    assert stack("a2").cox.automorphisms() == [(0, 1), (1, 0)]
    assert stack("d_infinity").cox.automorphisms() == [(0, 1), (1, 0)]
    assert stack("triangle_334").cox.automorphisms() == [(0, 1, 2), (0, 2, 1)]
    assert len(stack("triangle_333").cox.automorphisms()) == 6
    assert stack("b2").cox.automorphisms() == [(0, 1), (1, 0)]


def test_field_degree_is_bounded():
    t0 = time.perf_counter()
    with pytest.raises(ResourceLimitError):
        _system([[1, 1001, 2], [1001, 1, 3], [2, 3, 1]])  # degree 1440
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize(
    "rows",
    [
        [[1, 5, 2, 2], [5, 1, 3, 2], [2, 3, 1, 5], [2, 2, 5, 1]],  # H(5,3,5)
        [[1, 3, 2, 3], [3, 1, 3, 2], [2, 3, 1, 3], [3, 2, 3, 1]],  # affine A3
        [[1, 2, 3], [2, 1, 7], [3, 7, 1]],  # (2,3,7), degree 12
    ],
)
def test_field_degree_guard_admits_named_groups(rows):
    assert _system(rows).rank == len(rows)


def test_field_degree_guard_admits_shipped_groups(stack):
    for name in SHIPPED:
        assert stack(name).system.ctx.degree <= 12


@settings(max_examples=80, deadline=None, derandomize=True)
@given(word=st.lists(st.integers(min_value=0, max_value=1), max_size=10))
def test_length_parity(word):
    sys_ = _SYS_334_RANK2
    g = sys_.element_of_word(tuple(w % 2 for w in word))
    assert g.length % 2 == len(word) % 2
    assert g.length <= len(word)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(word=st.lists(st.integers(min_value=0, max_value=2), max_size=8))
def test_descent_shortens(word):
    sys_ = _SYS_333
    g = sys_.element_of_word(tuple(word))
    for i in sys_.right_descents(g):
        assert sys_.right_mul(g, i).length == g.length - 1
    for i in sys_.left_descents(g):
        assert sys_.left_mul(g, i).length == g.length - 1


_SYS_334_RANK2 = _system([[1, 4], [4, 1]])
_SYS_333 = _system([[1, 3, 3], [3, 1, 3], [3, 3, 1]])
