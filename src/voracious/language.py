"""The voracious language: words built from iterated projection chains.

Every nontrivial g has a proper prefix p(g), its voracious projection, so
iterating the projection yields a chain g, p(g), p(p(g)), ..., id.  The
blocks are the quotients between consecutive chain elements; lengths add up
along the chain.  A word belongs to the language iff it is a geodesic that
splits, from its tail, into reduced words of the successive blocks.  The
canonical representative uses each block's shortlex word, the letters of
the climb that WallGeometry.projection_block takes to find the block.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """Membership and canonical words of the language."""

    def __init__(self, geometry: WallGeometry):
        self.geometry = geometry
        self.system = geometry.system
        self._chains: dict[GroupElement, FactorizationChain] = {}

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
        """Shortlex words of the blocks, innermost block first: the letters
        projection_block recorded for each block as it climbed it."""
        word = self.geometry.shortlex_word
        out: list[int] = []
        for block in reversed(self.chain(g).blocks):
            out.extend(word(block))
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
