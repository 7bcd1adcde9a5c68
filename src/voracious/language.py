"""The voracious language: words built from iterated projection chains.

Every nontrivial g has a proper prefix p(g), its voracious projection, so
iterating the projection yields a chain g, p(g), p(p(g)), ..., id.  The
blocks are the quotients between consecutive chain elements; lengths add up
along the chain.  A word belongs to the language iff it is a geodesic that
splits, from its tail, into reduced words of the successive blocks.  The
canonical representative uses each block's shortlex word.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .coxeter import GroupElement, Word
from .walls import WallGeometry


@dataclass(frozen=True)
class FactorizationChain:
    """Projection chain of g: elements g = g_0, g_1, ..., g_n = id.

    blocks[i] = g_{i+1}^{-1} g_i, so g = blocks[n-1] * ... * blocks[0] and
    lengths are additive.  blocks[0] is the outermost factor: in any word of
    the language it occupies the final letters.
    """

    elements: tuple[GroupElement, ...]
    blocks: tuple[GroupElement, ...]


class VoraciousLanguage:
    """Membership, canonical words, and full word sets of the language."""

    def __init__(self, geometry: WallGeometry):
        self.geometry = geometry
        self.system = geometry.system
        self._chains: dict[GroupElement, FactorizationChain] = {}
        self._words: dict[GroupElement, frozenset[Word]] = {}

    def chain(self, g: GroupElement) -> FactorizationChain:
        got = self._chains.get(g)
        if got is not None:
            return got
        geo = self.geometry
        elements = [g]
        blocks = []
        cur = g
        while cur.length:
            p = geo.voracious_projection(cur)
            if p.length >= cur.length:
                raise ArithmeticError("voracious projection made no progress")
            blocks.append(geo.projection_block(cur))
            elements.append(p)
            cur = p
        got = FactorizationChain(tuple(elements), tuple(blocks))
        self._chains[g] = got
        return got

    def canonical_word(self, g: GroupElement) -> Word:
        """Shortlex words of the blocks, innermost block first."""
        sys = self.system
        out: list[int] = []
        for block in reversed(self.chain(g).blocks):
            out.extend(sys.shortlex_word(block))
        return tuple(out)

    def contains(self, word: Word) -> bool:
        """True iff the word is geodesic and splits along the projection chain."""
        sys = self.system
        g = sys.element_of_word(word)
        if g.length != len(word):
            return False
        pos = len(word)
        for block in self.chain(g).blocks:
            tail = word[pos - block.length : pos]
            if sys.element_of_word(tail) is not block:
                return False
            pos -= block.length
        return pos == 0

    def all_words_of(self, g: GroupElement) -> frozenset[Word]:
        """Every language word evaluating to g."""
        got = self._words.get(g)
        if got is not None:
            return got
        sys = self.system
        parts = [sys.reduced_words(b) for b in reversed(self.chain(g).blocks)]
        out = frozenset(
            tuple(x for piece in combo for x in piece) for combo in product(*parts)
        )
        self._words[g] = out
        return out
