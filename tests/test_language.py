import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import multiply


def test_chain_identity(stack):
    a2 = stack("a2")
    chain = a2.language.chain(a2.system.identity)
    assert chain.elements == (a2.system.identity,)
    assert chain.blocks == ()


def test_chain_frozen(stack):
    a2 = stack("a2")
    chain = a2.language.chain(a2.element("sts"))
    assert chain.elements == (a2.element("sts"), a2.system.identity)
    assert chain.blocks == (a2.element("sts"),)
    dinf = stack("d_infinity")
    chain = dinf.language.chain(dinf.element("sts"))
    assert chain.elements == (
        dinf.element("sts"),
        dinf.element("st"),
        dinf.element("s"),
        dinf.system.identity,
    )
    assert chain.blocks == (
        dinf.element("s"),
        dinf.element("t"),
        dinf.element("s"),
    )


def test_chain_block_lengths(stack):
    for name in ("d_infinity", "triangle_333", "triangle_334"):
        s = stack(name)
        for g in s.system.ball(5):
            chain = s.language.chain(g)
            assert sum(b.length for b in chain.blocks) == g.length
            assert all(b.length > 0 for b in chain.blocks)
            assert chain.elements[0] == g
            assert chain.elements[-1] == s.system.identity
            # consecutive elements are joined by the blocks
            for i, block in enumerate(chain.blocks):
                assert (
                    multiply(s.system, chain.elements[i + 1], block)
                    == chain.elements[i]
                )


def test_membership_frozen(stack):
    a2 = stack("a2")
    assert a2.language.contains(a2.word("sts"))
    assert a2.language.contains(a2.word("tst"))
    assert a2.language.contains(a2.word(""))
    assert not a2.language.contains(a2.word("ss"))
    dinf = stack("d_infinity")
    assert dinf.language.contains(dinf.word("sts"))
    assert dinf.language.contains(dinf.word("tst"))
    assert not dinf.language.contains(dinf.word("stt"))


def test_canonical_word(stack):
    for name in ("a2", "d_infinity", "triangle_334"):
        s = stack(name)
        for g in s.system.ball(5):
            word = s.language.canonical_word(g)
            assert len(word) == g.length
            assert s.system.element_of_word(word) == g
            assert s.language.contains(word)


def test_one_accepted_word_per_element(stack):
    # The language is a bijective normal form on every finite ball.
    for name in ("a2", "d_infinity", "triangle_333"):
        s = stack(name)
        radius = 5
        by_element = {}
        for n in range(radius + 1):
            for w in itertools.product(range(s.cox.rank), repeat=n):
                if s.language.contains(w):
                    g = s.system.element_of_word(w)
                    by_element.setdefault(g, set()).add(w)
        ball = set(s.system.ball(radius))
        covered = {g for g in by_element}
        assert covered == ball
        for g, words in by_element.items():
            assert words == s.language.all_words_of(g)


def test_all_words_frozen(stack):
    a2 = stack("a2")
    assert a2.language.all_words_of(a2.element("s")) == {(0,)}
    assert a2.language.all_words_of(a2.element("sts")) == {(0, 1, 0), (1, 0, 1)}
    assert a2.language.all_words_of(a2.system.identity) == {()}
    dinf = stack("d_infinity")
    assert dinf.language.all_words_of(dinf.element("sts")) == {(0, 1, 0)}


def test_words_are_geodesic(stack):
    s = stack("triangle_334")
    for g in s.system.ball(5):
        for w in s.language.all_words_of(g):
            assert len(w) == g.length
            assert s.system.element_of_word(w) == g


def test_language_is_suffix_closed(stack):
    # Dropping letters from the front of an accepted word leaves an accepted
    # word: the chain structure is built from the last letters inward.
    for name in ("d_infinity", "triangle_333"):
        s = stack(name)
        for g in s.system.ball(5):
            for w in s.language.all_words_of(g):
                for cut in range(len(w)):
                    assert s.language.contains(w[cut:])


def test_prefixes_follow_projection_chain(stack):
    # Peeling one whole block off the end of an accepted word lands exactly
    # on the projection of the word's element.
    for name in ("d_infinity", "triangle_334"):
        s = stack(name)
        geo = s.geometry
        for g in s.system.ball(5):
            chain = s.language.chain(g)
            if len(chain.blocks) < 1:
                continue
            word = s.language.canonical_word(g)
            head = word[: len(word) - chain.blocks[0].length]
            assert s.system.element_of_word(head) == chain.elements[1]
            assert geo.voracious_projection(g) == chain.elements[1]


def test_equivariance_under_diagram_symmetry(stack):
    # Any symmetry of the Coxeter diagram permutes the accepted words.
    for name in ("a2", "d_infinity", "triangle_333"):
        s = stack(name)
        for perm in s.cox.automorphisms():
            for g in s.system.ball(4):
                for w in s.language.all_words_of(g):
                    mapped = tuple(perm[i] for i in w)
                    assert s.language.contains(mapped)


_WORDS2 = st.lists(st.integers(min_value=0, max_value=1), max_size=8)
_WORDS3 = st.lists(st.integers(min_value=0, max_value=2), max_size=7)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(word=_WORDS2)
def test_membership_requires_geodesic(word, stack):
    s = stack("d_infinity")
    w = tuple(word)
    g = s.system.element_of_word(w)
    if s.language.contains(w):
        assert len(w) == g.length
    assert s.language.contains(s.language.canonical_word(g))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(word=_WORDS3)
def test_membership_matches_word_set(word, stack):
    s = stack("triangle_334")
    w = tuple(word)
    g = s.system.element_of_word(w)
    if len(w) == g.length:
        assert s.language.contains(w) == (w in s.language.all_words_of(g))
    else:
        assert not s.language.contains(w)
