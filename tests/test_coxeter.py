import itertools
import json
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
    WallGeometry,
    load_group_file,
    parse_group_config,
    word_from_string,
    word_to_string,
)
from voracious.field import neg, two_cos_degree

from conftest import (
    AFFINE_A3,
    BUILT,
    GROUPS_DIR,
    H535,
    TRIANGLE_237,
    TRIANGLE_245,
    automorphisms,
    bilinear2,
    check_full_field_products,
    element_of_matrix,
    fresh_geometry,
    inverse_of,
    join_root,
    left_descents,
    left_shortlex_word,
    matrix_of,
    multiply,
    positive_definite_sylvester,
    reduced_words,
    reflect,
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
    assert cox.orders[0][1] == 3
    assert cox.rank == 2
    assert cox.field_modulus() == 3


def test_parse_infinite_order():
    cox = parse_group_config('{"generators": ["s", "t"], "m": [[1, 0], [0, 1]]}')
    assert cox.orders[0][1] == INF
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
        # a list is no name, and cannot be hashed to compare the names
        '{"generators": [["a"], "b"], "m": [[1, 3], [3, 1]]}',
        '{"generators": ["s", "t"], "m": [[1, 3]]}',  # not square
        '{"generators": [], "m": []}',
        '{"generators": ["s", "t"], "m": [[1, 3.0], [3.0, 1]]}',  # non-integer
        '{"generators": ["s", "t"], "m": [[true, 3], [3, true]]}',  # bool, not int
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(GroupConfigError):
        parse_group_config(text)


@pytest.mark.parametrize(
    "text, key",
    [
        # json alone keeps the last "m", so this read as B2 once.
        ('{"generators": ["a", "b"], "m": [[1, 3], [3, 1]], "m": [[1, 4], [4, 1]]}', "m"),
        # A repeat is refused even when both values agree.
        ('{"generators": ["s"], "generators": ["s"], "m": [[1]]}', "generators"),
    ],
)
def test_parse_rejects_duplicate_keys(text, key):
    with pytest.raises(GroupConfigError, match=f"duplicate key '{key}'"):
        parse_group_config(text)


@pytest.mark.parametrize("gens", [[",", "b"], ["a,b", "c"], ["a", "b,"]])
def test_generator_names_with_commas_are_refused(gens):
    # Words of several-letter names are written comma-joined, so a name
    # holding "," could not be read back: "," alone writes the pivot ba as
    # ",b" and reads it back as the empty name, and with a,b and c the word
    # a,b,c has two readings.
    text = json.dumps({"generators": gens, "m": [[1, 3], [3, 1]]})
    with pytest.raises(GroupConfigError, match="must not contain ','"):
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
    assert sys_.element_of_word((0, 0, 1)) == elems["t"]
    assert multiply(sys_, elems["s"], elems["st"]) == elems["t"]


def test_element_identities(stack):
    a2 = stack("a2")
    assert a2.element("ss") == a2.element("")
    assert a2.element("sts") == a2.element("tst")
    assert a2.element("sts").length == 3
    dinf = stack("d_infinity")
    assert matrix_of(dinf.element("sts")) != matrix_of(dinf.element("tst"))
    assert dinf.element("stst").length == 4


def test_descents(stack):
    a2 = stack("a2")
    sys_ = a2.system
    assert left_descents(sys_, sys_.identity) == ()
    assert sys_.right_descents(sys_.identity) == ()
    st_elem = a2.element("st")
    assert left_descents(sys_, st_elem) == (0,)
    assert sys_.right_descents(st_elem) == (1,)
    w0 = a2.element("sts")
    assert left_descents(sys_, w0) == (0, 1)
    assert sys_.right_descents(w0) == (0, 1)


def test_shortlex(stack):
    a2 = stack("a2")
    assert a2.geometry.shortlex_word(a2.element("tst")) == (0, 1, 0)
    assert a2.geometry.shortlex_word(a2.system.identity) == ()
    dinf = stack("d_infinity")
    assert dinf.geometry.shortlex_word(dinf.element("tst")) == (1, 0, 1)
    for s in (a2, dinf):
        for g in s.system.ball(4):
            word = s.geometry.shortlex_word(g)
            assert len(word) == g.length
            assert s.system.element_of_word(word) == g


def test_shortlex_second_pass_is_memo_hits(stack):
    geo = WallGeometry(CoxeterSystem(stack("triangle_334").cox))
    sys_ = geo.system
    ball = sys_.ball(6)
    first = [geo.shortlex_word(g) for g in ball]
    calls = []
    inner = sys_._element

    def counted(*args):
        calls.append(args)
        return inner(*args)

    sys_._element = counted
    assert [geo.shortlex_word(g) for g in ball] == first
    assert calls == []


def test_reduced_words(stack):
    # The conftest oracle for the automaton's labels.
    a2 = stack("a2")
    assert reduced_words(a2.system, a2.element("s")) == {(0,)}
    assert reduced_words(a2.system, a2.element("sts")) == {(0, 1, 0), (1, 0, 1)}
    dinf = stack("d_infinity")
    assert reduced_words(dinf.system, dinf.element("sts")) == {(0, 1, 0)}


def test_reduced_words_of_a3_longest_element(stack):
    a3 = stack("a3")
    w0 = a3.element("abacba")
    assert w0.length == 6
    assert sorted(reduced_words(a3.system, w0)) == [
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
        assert reduced_words(sys_, g) == brute


def test_ball_counts(stack):
    assert len(stack("a2").system.ball(0)) == 1
    assert len(stack("a2").system.ball(3)) == 6
    assert len(stack("a2").system.ball(9)) == 6  # group is exhausted
    assert len(stack("d_infinity").system.ball(3)) == 7
    a3_ball = stack("a3").system.ball(6)
    assert [sum(g.length == r for g in a3_ball) for r in range(7)] == [
        1, 3, 5, 6, 5, 3, 1,
    ]
    assert len(stack("b2").system.ball(4)) == 8
    assert len(stack("i2_5").system.ball(5)) == 10


def test_ball_stops_growing_past_the_diameter():
    # A2 has diameter 3: its layers are lengths 0 to 3 and one empty layer,
    # however often and however far past the diameter they are asked for.
    sys_ = _system(((1, 3), (3, 1)))
    assert len(sys_.ball(3)) == 6
    for radius in (10, 10, 10, 50):
        assert len(sys_.ball(radius)) == 6
        assert len(sys_.ball(radius + 1)) == 6
    assert len(sys_._layers) == 5


def test_negative_sphere_is_empty(stack):
    # No layer is counted from the end in a ball.
    sys_ = stack("triangle_334").system
    ball = sys_.ball(3)
    assert [sum(g.length == r for g in ball) for r in range(4)] == [1, 3, 6, 10]
    for radius in (-1, -2, -5):
        assert sys_.ball(radius) == []


# Groups beyond groups/ whose balls are checked for shortlex order: the
# conftest groups, free rank 3 and (inf,2,3).
ORDERED_BALLS = {
    "affine_a3": ("abcd", AFFINE_A3),
    "triangle_237": ("abc", TRIANGLE_237),
    "triangle_245": ("abc", TRIANGLE_245),
    "h535": ("abcd", H535),
    "free3": ("abc", ((1, INF, INF), (INF, 1, INF), (INF, INF, 1))),
    "inf_2_3": ("abc", ((1, INF, 2), (INF, 1, 3), (2, 3, 1))),
}


@pytest.mark.parametrize("name", SHIPPED + sorted(ORDERED_BALLS))
def test_ball_is_in_shortlex_order(name):
    # next_layer reads each layer in order and the letters ascending, so
    # the ball comes out in (length, shortlex) order.  The words are those
    # of the weak-order climb (WallGeometry.shortlex_word), which reads no
    # layer.
    if name in ORDERED_BALLS:
        geo = fresh_geometry(*ORDERED_BALLS[name])
    else:
        geo = WallGeometry(CoxeterSystem(load_group_file(str(GROUPS_DIR / f"{name}.json"))))
    words = [geo.shortlex_word(g) for g in geo.system.ball(7)]
    assert words == sorted(words, key=lambda w: (len(w), w))


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
            word = s.geometry.shortlex_word(g)
            for i in range(s.cox.rank):
                assert abs(s.system.right_mul(g, i).length - g.length) == 1
                sg = s.system.element_of_word((i,) + word)
                assert abs(sg.length - g.length) == 1


@pytest.mark.parametrize("name", SHIPPED)
def test_left_mul_matches_multiply(stack, name):
    # A left product s g is the element of the word s followed by a reduced
    # word of g, as the verifier forms it; it is the full matrix product.
    s_ = stack(name)
    sys_ = s_.system
    for g in sys_.ball(5):
        word = s_.geometry.shortlex_word(g)
        for s in range(sys_.rank):
            got = sys_.element_of_word((s,) + word)
            want = multiply(sys_, sys_.element_of_word((s,)), g)
            assert got == want
            assert got.length == want.length
            # the wall of alpha_s, bit s, is an inversion wall of g iff s g
            # is shorter
            shorter = bool(s_.geometry.inversion_bits(g) >> s & 1)
            assert shorter == (got.length < g.length)


@pytest.mark.parametrize("name", SHIPPED + sorted(BUILT))
def test_entries_are_int_coefficient_tuples(stack, name):
    # Each root, a column of an element or its inverse or an inversion
    # wall's, is one flat tuple of k d ints: coordinate by coordinate, one
    # entry per power of y below the field degree.
    geo = fresh_geometry(*BUILT[name]) if name in BUILT else stack(name).geometry
    sys_ = geo.system
    size = sys_.rank * sys_.ctx.degree

    def is_flat_root(root):
        return type(root) is tuple and len(root) == size and all(
            type(c) is int for c in root
        )

    for g in sys_.ball(5):
        for h in (g, inverse_of(sys_, g)):
            assert all(is_flat_root(w.root) for w in h.walls)
        for wall in sys_.walls_of(geo.inversion_bits(g)):
            assert is_flat_root(wall.root)


@pytest.mark.parametrize("name", SHIPPED + sorted(BUILT))
def test_columns_are_root_images(stack, name):
    # Column s of g is g(alpha_s) and column s of g^{-1} is g^{-1}(alpha_s):
    # alpha_s pushed through reflect along g's shortlex word, right to left,
    # or along the reversed word.
    sys_ = fresh_geometry(*BUILT[name]).system if name in BUILT else stack(name).system
    simple = matrix_of(sys_.identity)
    for g in sys_.ball(5):
        word = left_shortlex_word(sys_, g)
        for s in range(sys_.rank):
            root = inv_root = simple[s]
            for t in reversed(word):
                root = reflect(sys_, t, root)
            for t in word:
                inv_root = reflect(sys_, t, inv_root)
            assert matrix_of(g)[s] == root
            assert matrix_of(inverse_of(sys_, g))[s] == inv_root
        # Each reflection is an involution and preserves the form.
        cols = matrix_of(g)
        for t in range(sys_.rank):
            image = [reflect(sys_, t, col) for col in cols]
            assert [reflect(sys_, t, v) for v in image] == list(cols)
            for u, u2 in zip(cols, image):
                for v, v2 in zip(cols, image):
                    want = bilinear2(sys_, join_root(u), join_root(v))
                    assert bilinear2(sys_, join_root(u2), join_root(v2)) == want


def test_form_is_invariant(stack):
    # g^T (2B) g = 2B, checked exactly entry by entry.
    for name in ("a2", "d_infinity", "triangle_334"):
        s = stack(name)
        sys_ = s.system
        k = s.cox.rank
        for g in sys_.ball(4):
            cols = tuple(map(join_root, matrix_of(g)))
            for i in range(k):
                for j in range(k):
                    got = bilinear2(sys_, cols[i], cols[j])
                    assert got == sys_.gram2[i][j]


def test_inverse_and_multiply(stack):
    s = stack("triangle_334")
    sys_ = s.system
    for g in sys_.ball(3):
        gi = inverse_of(sys_, g)
        assert inverse_of(sys_, gi) is g
        assert gi.length == g.length
        assert multiply(sys_, g, gi) == sys_.identity
        for h in sys_.ball(2):
            prod = multiply(sys_, g, h)
            assert prod == sys_.element_of_word(
                s.geometry.shortlex_word(g) + s.geometry.shortlex_word(h)
            )


# Every shipped group and four built ones, for inverses by reversed words.
INVERSE_GROUPS = {
    **{name: load_group_file(str(GROUPS_DIR / f"{name}.json")) for name in SHIPPED},
    "affine_a3": CoxeterMatrix(tuple("abcd"), AFFINE_A3),
    "triangle_237": CoxeterMatrix(tuple("abc"), TRIANGLE_237),
    "h535": CoxeterMatrix(tuple("abcd"), H535),
    "triangle_245": CoxeterMatrix(tuple("abc"), TRIANGLE_245),
}


@pytest.mark.parametrize("name", sorted(INVERSE_GROUPS))
def test_shortlex_is_least_reduced_word(name):
    # The climb of a fresh geometry, long elements first, spells the word
    # the left walk finds, and it is the least reduced word.  The climb
    # passes prefixes of ball elements only, so it makes no element.
    geo = WallGeometry(CoxeterSystem(INVERSE_GROUPS[name]))
    sys_ = geo.system
    ball = sorted(sys_.ball(6), key=lambda g: -g.length)
    words = [geo.shortlex_word(g) for g in ball]
    assert sys_.stats()["elements"] == len(ball)
    for g, word in zip(ball, words):
        assert word == min(reduced_words(sys_, g)) == left_shortlex_word(sys_, g)


def _check_inverse(sys_, g):
    # The reversed word of g, evaluated by right_mul, carries the
    # full-product inverse matrix (element_of_matrix checks it) and g's
    # length, and the reversed word of g^{-1} reaches g itself.
    gi = inverse_of(sys_, g)
    assert inverse_of(sys_, gi) is g
    assert gi.length == g.length
    assert element_of_matrix(sys_, matrix_of(g)) is g


@pytest.mark.parametrize("name", sorted(INVERSE_GROUPS))
def test_inverse_of_ball_elements(name):
    sys_ = CoxeterSystem(INVERSE_GROUPS[name])
    for g in sys_.ball(5):
        _check_inverse(sys_, g)


@pytest.mark.parametrize("name", sorted(INVERSE_GROUPS))
def test_inverse_of_left_products(name):
    # Elements reached by left products only: s g is the element of the
    # word s followed by the word g was reached by, so every word is
    # evaluated from its first letter and the memo holds no ball walk.
    sys_ = CoxeterSystem(INVERSE_GROUPS[name])
    layer = {sys_.identity: ()}
    reached = {}
    for _ in range(4):
        nxt = {}
        for word in layer.values():
            for s in range(sys_.rank):
                sg = sys_.element_of_word((s,) + word)
                if sg not in reached and sg not in nxt:
                    nxt[sg] = (s,) + word
        layer = nxt
        reached.update(layer)
    for g in reached:
        _check_inverse(sys_, g)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(sorted(INVERSE_GROUPS)),
    draw=st.data(),
)
def test_inverse_after_descending_products(name, draw):
    # The word u v v^{-1} spells u, so it is not reduced: walking it takes
    # descending products and leaves a memo of built products unlike a ball
    # walk's.
    cox = INVERSE_GROUPS[name]
    letters = st.integers(min_value=0, max_value=cox.rank - 1)
    u = draw.draw(st.lists(letters, max_size=8))
    v = draw.draw(st.lists(letters, min_size=1, max_size=6))
    sys_ = CoxeterSystem(cox)
    g = sys_.identity
    passed = []
    for s in u + v + v[::-1]:
        g = sys_.right_mul(g, s)
        passed.append(g)
    assert g is sys_.element_of_word(tuple(u))
    for h in reversed(passed):
        _check_inverse(sys_, h)


def test_inverse_is_built_on_request():
    # A fresh system evaluates a length-16 geodesic by its 16 prefixes and
    # no inverse; the reversed word makes at most one element per letter,
    # and reversing again makes nothing.
    cox = INVERSE_GROUPS["triangle_334"]
    other = WallGeometry(CoxeterSystem(cox))
    word = other.shortlex_word(other.system.ball(16)[-1])
    sys_ = CoxeterSystem(cox)
    g = sys_.element_of_word(word)
    assert g.length == len(word) == 16
    assert sys_.stats()["elements"] == 17
    gi = inverse_of(sys_, g)
    built = sys_.stats()["elements"]
    assert 17 < built <= 17 + g.length
    assert inverse_of(sys_, gi) is g and inverse_of(sys_, g) is gi
    assert sys_.stats()["elements"] == built


def test_stats_count_memo_entries():
    # (3,3,4) has 20 elements of length <= 3.  The ball walk multiplies
    # each shorter element by every generator, and each product is memoised
    # both ways, so an element of length 3 holds one entry per descent.
    # A fresh system has the simple walls, whose roots' coordinates 0 and 1
    # are its two decided signs.
    sys_ = CoxeterSystem(INVERSE_GROUPS["triangle_334"])
    assert sys_.stats() == {
        "elements": 1,
        "right_products": 0,
        "walls": 3,
        "reflections": 0,
        "signs": 2,
    }
    ball = sys_.ball(3)
    got = sys_.stats()
    assert got["elements"] == len(ball) == 20
    assert got["right_products"] == sum(
        len(sys_.right_descents(h)) if h.length == 3 else 3 for h in ball
    )
    # The walls are those of the ball's columns.  Each product made fills
    # two right_products entries and reflects the columns of the two
    # neighbours of its generator, each at most once per wall pair.
    assert got["walls"] == len({w for h in ball for w in h.walls})
    assert 0 < got["reflections"] <= got["right_products"]
    # The words live in a geometry's memo: the identity's, and one per
    # element asked for, whose climb makes no element outside the ball.
    geo = WallGeometry(sys_)
    assert geo.stats()["shortlex_words"] == 1
    geo.shortlex_word(ball[-1])
    assert geo.stats()["shortlex_words"] == 2
    assert sys_.stats()["elements"] == 20


IDENTITY_GROUPS = ("triangle_334", "affine_a3", "triangle_237")


@pytest.mark.parametrize("name", IDENTITY_GROUPS)
def test_one_element_per_matrix(stack, name):
    # The system builds each element once, so every route to g, by any
    # reduced word, by reversed words or from the left, returns g itself.
    geo = fresh_geometry(*BUILT[name]) if name in BUILT else stack(name).geometry
    sys_ = geo.system
    for g in sys_.ball(6):
        for u in reduced_words(sys_, g):
            assert sys_.element_of_word(u) is g
        assert inverse_of(sys_, inverse_of(sys_, g)) is g
        word = geo.shortlex_word(g)
        for s in range(sys_.rank):
            sg = multiply(sys_, sys_.element_of_word((s,)), g)
            assert sg is sys_.element_of_word((s,) + word)


def test_elements_belong_to_their_system():
    rows = ((1, 3, 3), (3, 1, 4), (3, 4, 1))
    a, b = _system(rows), _system(rows)
    assert a.identity != b.identity
    for g in a.ball(3):
        h = b.element_of_word(left_shortlex_word(a, g))
        assert matrix_of(h) == matrix_of(g)
        assert h != g


def test_element_reached_with_another_length_raises():
    sys_ = _system(((1, 3, 3), (3, 1, 4), (3, 4, 1)))
    g = sys_.element_of_word((0, 1, 2))
    assert sys_._element(g.walls, g.descents, g.length) is g
    with pytest.raises(ArithmeticError, match="two lengths"):
        sys_._element(g.walls, g.descents, g.length + 2)


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
    assert automorphisms(stack("a2").cox) == [(0, 1), (1, 0)]
    assert automorphisms(stack("d_infinity").cox) == [(0, 1), (1, 0)]
    assert automorphisms(stack("triangle_334").cox) == [(0, 1, 2), (0, 2, 1)]
    assert len(automorphisms(stack("triangle_333").cox)) == 6
    assert automorphisms(stack("b2").cox) == [(0, 1), (1, 0)]


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


# name: (orders, degree of the arithmetic field, degree of the output basis)
FIELDS = {
    "triangle_334": (((1, 3, 3), (3, 1, 4), (3, 4, 1)), 2, 4),
    "affine_a3": (AFFINE_A3, 1, 2),
    "h535": (H535, 2, 8),
    "triangle_237": (TRIANGLE_237, 3, 12),
}


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_arithmetic_degree_frozen(name):
    # Orders 2 and 3 give the rational entries 0 and -1 of 2B, so they do
    # not enter the field the engine computes in; outputs keep all of M.
    orders, degree, output_degree = FIELDS[name]
    system = _system(orders)
    assert system.ctx.degree == degree
    assert two_cos_degree(system.cox.field_modulus()) == output_degree


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_elements_match_products_over_the_full_field(name):
    assert check_full_field_products(_system(FIELDS[name][0]), 5) > 20


# A reflection-table entry adds -(2B)_st times a flat root: scaled by 2 for
# m = infinity, as it is for m = 3, and through an integer matrix for m = 4,
# so this group takes every kind in one product.  (2,4,5) has the largest
# field, of degree 8.
MULTIPLIER_KINDS = {
    "inf_3_4": ((1, INF, 3), (INF, 1, 4), (3, 4, 1)),
    "triangle_245": TRIANGLE_245,
}


@pytest.mark.parametrize("name", sorted(MULTIPLIER_KINDS))
def test_every_multiplier_kind_matches_full_products(name):
    sys_ = _system(MULTIPLIER_KINDS[name])
    assert check_full_field_products(sys_, 6) > 50
    geo = WallGeometry(sys_)
    for g in sys_.ball(6):
        word = geo.shortlex_word(g)
        for s in range(sys_.rank):
            want = multiply(sys_, sys_.element_of_word((s,)), g)
            assert sys_.element_of_word((s,) + word) is want


@pytest.mark.parametrize("name", ["triangle_334", "inf_3_4"])
def test_registry_holds_both_signs_of_each_root(name):
    # A root of either sign is one registry entry: its negation maps to the
    # same wall with the flip set, and looking it up makes no wall and
    # decides no sign.
    sys_ = _system(FIELDS[name][0] if name in FIELDS else MULTIPLIER_KINDS[name])
    ball = sys_.ball(4)
    walls = {w for g in ball for w in g.walls}
    before = sys_.stats()
    assert len(sys_._walls) == 2 * before["walls"] == 2 * len(walls)
    for wall in walls:
        assert sys_._signed_wall(wall.root) == (wall, 0)
        assert sys_._signed_wall(neg(wall.root)) == (wall, 1)
        assert sys_.wall_of_root(neg(wall.root)) is wall
    assert sys_.stats() == before


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
    for i in left_descents(sys_, g):
        sg = multiply(sys_, sys_.element_of_word((i,)), g)
        assert sg.length == g.length - 1


_SYS_334_RANK2 = _system([[1, 4], [4, 1]])
_SYS_333 = _system([[1, 3, 3], [3, 1, 3], [3, 3, 1]])


@pytest.mark.parametrize("name", ["triangle_334", "a3"])
def test_right_mul_memoises_both_directions(stack, monkeypatch, name):
    # (g s) s is g, read from the memo that g s filled: no product is made.
    sys_ = CoxeterSystem(stack(name).cox)
    make = sys_._element
    calls = []

    def counted(walls, descents, length):
        calls.append(length)
        return make(walls, descents, length)

    monkeypatch.setattr(sys_, "_element", counted)
    for g in sys_.ball(4):
        for s in range(sys_.rank):
            h = sys_.right_mul(g, s)
            made = len(calls)
            assert h.products[s] is g
            assert sys_.right_mul(h, s) is g
            assert len(calls) == made
    assert calls
