"""Walls of a Coxeter chamber system and the voracious projection.

A wall is the fixed hyperplane of a reflection, represented by its positive
root; the system owns the walls (coxeter.Wall, CoxeterSystem.wall_of_root),
and an element is its walls, one per generator with a descent bit (see
coxeter.py).  Sides, frontiers and projections are read off walks along
the weak order: chamber g lies on the identity side of the wall of beta
iff g^{-1}(beta) is positive, and a sign is decided only when the system
makes a wall.

Each wall carries a bit, 1 << (its creation index), and every set of walls
is a Python int mask: inversion sets, frontiers and pulled-back frontiers
alike, so every side question is a mask operation, and
CoxeterSystem.walls_of lists a mask's walls.  Inversion sets are built by
stepping down right descents (inversion_bits).

The frontier of g collects the inversion walls of g that no other wall
separates from g; the voracious projection is the longest prefix of g whose
chamber stays on the identity side of every frontier wall.  Pulled back by
g^{-1}, the frontier is the Brink-Howlett state of g, a set of small walls,
so frontier_pairs steps each frontier wall's pull-back along a word by the
small-root steps (CoxeterSystem.small_steps), with no separator search.
The greedy walk to the projection carries the prefix p alone: p s is a
longer prefix of g iff p(alpha_s) is a positive root whose wall is in
Inv(g), so a descent bit and a wall bit decide a move.  _climb takes the
least move, and walk_up every move.  The climb spells words: from the
identity the shortlex word of g, and from p(g) that of the block
p(g)^{-1} g.  The step by s from h crosses h.walls[s], so pull_back,
frontier_pairs and residue_walls read their walls off elements, with no
inverse.
"""

from __future__ import annotations

from .coxeter import CoxeterSystem, GroupElement, Wall, Word
from .field import cos_string


class WallGeometry:
    """Wall-level operations over one Coxeter system, with memoized geometry."""

    def __init__(self, system: CoxeterSystem):
        self.system = system
        self._inv_bits: dict[GroupElement, int] = {system.identity: 0}
        # g -> the flat (beta, wall) pairs of its frontier (frontier_pairs).
        self._frontier: dict[GroupElement, tuple[Wall, ...]] = {system.identity: ()}
        # g -> p(g), and g -> p(g)^{-1} g, the block it leaves, on request.
        self._proj: dict[GroupElement, GroupElement] = {}
        self._blocks: dict[GroupElement, GroupElement] = {}
        self._shortlex: dict[GroupElement, Word] = {system.identity: ()}
        self._output_roots: dict[Wall, tuple] = {}

    # -- output --------------------------------------------------------------

    def output_root(self, wall: Wall):
        """The wall's root written over y = 2 cos(pi/M) (see
        CoxeterSystem.output_vector), once per wall.  Every output writes
        roots this way, and every wall order that reaches output sorts by it."""
        got = self._output_roots.get(wall)
        if got is None:
            got = self._output_roots[wall] = self.system.output_vector(wall.root)
        return got

    def root_strings(self, wall: Wall) -> list[str]:
        """The wall's root coordinates, rendered over powers of c = cos(pi/M)."""
        return [cos_string(x) for x in self.output_root(wall)]

    def stats(self) -> dict[str, int]:
        """Sizes of the geometry's memos: inversion masks, frontier pairs,
        projections, projection blocks and shortlex words; the walls are the
        system's (CoxeterSystem.stats)."""
        return {
            "inversion_sets": len(self._inv_bits),
            "frontiers": len(self._frontier),
            "projections": len(self._proj),
            "blocks": len(self._blocks),
            "shortlex_words": len(self._shortlex),
        }

    def pull_back(self, g: GroupElement, mask: int) -> int:
        """The mask of the walls g^{-1}(W), for W the inversion walls of g in
        mask: the definition of an accept state, which the verifier reads.

        For the shortlex word s_1 ... s_n of g, step i crosses the wall of
        p(alpha_s), p = s_1 ... s_{i-1} and s = s_i, and g^{-1} p =
        s_n ... s_i maps it to the wall of q(alpha_s), q = s_n ... s_{i+1}:
        the wall the reversed word crosses at its step n - i + 1.  So both
        words are climbed by right products.  The automaton build steps the
        same states on small-root index tables (automaton._IndexPass).
        """
        if mask & ~self.inversion_bits(g):
            raise ValueError("only inversion walls of g are pulled back")
        right_mul = self.system.right_mul
        word = self.shortlex_word(g)
        crossed = []
        p = self.system.identity
        for s in word:
            crossed.append(p.walls[s].bit)
            p = right_mul(p, s)
        out = 0
        q = self.system.identity
        for s, bit in zip(reversed(word), reversed(crossed)):
            if bit & mask:
                out |= q.walls[s].bit
            q = right_mul(q, s)
        return out

    # -- sides and inversion sets -------------------------------------------

    def inversion_bits(self, g: GroupElement) -> int:
        """Walls separating chamber g from the identity chamber, as a mask.

        Steps down right descents (CoxeterSystem.descent_step) to an
        element whose mask is known, then adds back one wall per step: for a
        descent s of h, Inv(h) is Inv(h s) plus the wall of (h s)(alpha_s) =
        -h(alpha_s), which h s is incident to.  Each element passed keeps
        its mask."""
        memo = self._inv_bits
        bits = memo.get(g)
        if bits is not None:
            return bits
        descent_step = self.system.descent_step
        path = []
        cur = g
        while bits is None:
            s, down = descent_step(cur)
            path.append((cur, down.walls[s]))
            cur = down
            bits = memo.get(cur)
        for h, wall in reversed(path):
            if bits & wall.bit:
                raise ArithmeticError(
                    "inversion walls of a reduced word must be distinct"
                )
            bits |= wall.bit
            memo[h] = bits
        return bits

    # -- frontier and projection --------------------------------------------

    def frontier_pairs(self, g: GroupElement) -> tuple[Wall, ...]:
        """The frontier walls W of g, each after its pull-back beta = g^{-1} W,
        as one flat tuple beta_1, W_1, beta_2, W_2, ...; memoised.

        A wall W of Inv(g) has a separator from chamber g iff g^{-1} W, a wall
        of Inv(g^{-1}), has one from the identity chamber, and a wall with
        none is small.  So the betas are the Brink-Howlett state D(g), the
        small walls of Inv(g^{-1}), and the frontier is g D(g).  For g = h s
        longer than h, D(g) = {alpha_s} + (s D(h) & Small) (Brink and
        Howlett, Math. Ann. 296, 1993): the wall h.walls[s] that the step
        crosses pulls back to g^{-1} h(alpha_s) = -alpha_s, and a pair
        (beta, W) of h stays, as (s(beta), W), iff s(beta) is small, which
        CoxeterSystem.small_steps tells.  Steps down right descents
        (CoxeterSystem.descent_step) to an element whose pairs are known,
        then adds them back one step at a time; each element passed keeps
        its pairs.  No separator is searched for and no 2B is evaluated.
        """
        memo = self._frontier
        got = memo.get(g)
        if got is not None:
            return got
        sys = self.system
        descent_step = sys.descent_step
        path = []
        cur = g
        while got is None:
            s, down = descent_step(cur)
            path.append((cur, s, down))
            cur = down
            got = memo.get(cur)
        steps = sys.small_steps()
        simple = sys.identity.walls
        for up, s, h in reversed(path):
            step = steps[s]
            pairs = [simple[s], h.walls[s]]
            for beta, wall in zip(got[::2], got[1::2]):
                image = step.get(beta)
                if image is not None:
                    pairs += (image, wall)
            got = memo[up] = tuple(pairs)
        return got

    def frontier_set(self, g: GroupElement) -> int:
        """Inversion walls of g that no wall separates from chamber g, as a
        mask: the walls of frontier_pairs."""
        return sum(wall.bit for wall in self.frontier_pairs(g)[1::2])

    def _moves(self, p: GroupElement, free: int):
        """Generators by which the prefix p of g may grow, least first.

        p s is a longer prefix of g iff p(alpha_s) is a positive root, which
        bit s of p's descents tells, whose wall is in Inv(g); such a wall is
        not in Inv(p).  free masks the walls of Inv(g) that may be crossed:
        all of them, or all but the frontier walls of g.
        """
        descents = p.descents
        for s, wall in enumerate(p.walls):
            if wall.bit & free and not descents >> s & 1:
                yield s

    def _climb(self, h: GroupElement, free: int) -> tuple[GroupElement, Word]:
        """(end, letters): from h, the least move _moves allows, until none
        does; the letters are the moves taken."""
        right_mul = self.system.right_mul
        letters = []
        s = next(self._moves(h, free), None)
        while s is not None:
            letters.append(s)
            h = right_mul(h, s)
            s = next(self._moves(h, free), None)
        return h, tuple(letters)

    def shortlex_word(self, g: GroupElement) -> Word:
        """Lexicographically least reduced word of g, memoised.

        By the prefix characterisation of the right weak order
        (Bjorner-Brenti, Combinatorics of Coxeter Groups, 3.1-3.2), h s is
        a prefix of g exactly when _moves(h, Inv(g)) yields s, and every
        prefix of g extends to a reduced word of g.  So the climb from the
        identity by the least move spells the least word (Casselman,
        "Computation in Coxeter groups I", 2002), with no inverse.
        """
        got = self._shortlex.get(g)
        if got is None:
            _, got = self._climb(self.system.identity, self.inversion_bits(g))
            self._shortlex[g] = got
        return got

    def voracious_projection(self, g: GroupElement) -> GroupElement:
        """Longest prefix of g on the identity side of every frontier wall.

        Greedy construction: climb from the identity by the least generator
        the move rule allows, crossing no frontier wall, until none does.
        Every greedy run, in any order and with any choices, ends at a
        terminal node of projection_walk's graph; the verification suite
        checks that this node is unique, so the order taken here does not
        matter.  projection_block finds the block it leaves when asked.
        """
        got = self._proj.get(g)
        if got is None:
            free = self.inversion_bits(g) & ~self.frontier_set(g)
            got = self._proj[g] = self._climb(self.system.identity, free)[0]
        return got

    def projection_block(self, g: GroupElement) -> GroupElement:
        """p(g)^{-1} g, the rest of g that the greedy walk to p(g) leaves.

        Built on first request, by the climb from p(g) to g under Inv(g).
        Left multiplication by p(g) maps the weak-order interval
        [1, p(g)^{-1} g] onto [p(g), g], so the least moves spell the
        block's shortlex word, which is recorded in the shortlex memo.
        """
        got = self._blocks.get(g)
        if got is not None:
            return got
        end, letters = self._climb(self.voracious_projection(g), self.inversion_bits(g))
        if end is not g:
            raise ArithmeticError("the projection is not a prefix of g")
        got = self._blocks[g] = self.system.element_of_word(letters)
        self._shortlex[got] = letters
        return got

    def walk_up(self, start: GroupElement, free: int) -> tuple[tuple, list]:
        """(reached, terminals): the elements that moves crossing walls of
        free reach from start, in order of discovery, and those of them that
        allow no move.  For free within Inv(g), g above start, they lie in
        the weak-order interval [start, g], and the walk meets each once.
        """
        right_mul = self.system.right_mul
        seen = {start: None}
        stack = [start]
        terminals = []
        while stack:
            p = stack.pop()
            terminal = True
            for s in self._moves(p, free):
                terminal = False
                up = right_mul(p, s)
                if up not in seen:
                    seen[up] = None
                    stack.append(up)
            if terminal:
                terminals.append(p)
        return tuple(seen), terminals

    def projection_walk(
        self, g: GroupElement
    ) -> tuple[frozenset[GroupElement], list[GroupElement]]:
        """The graph of every greedy run towards p(g): (candidates, terminals).

        The candidates are the prefixes of g that the move rule reaches from
        the identity, which are all prefixes of g on the identity side of
        every frontier wall.  The terminals are the candidates that allow no
        move; each greedy run ends at one.
        """
        free = self.inversion_bits(g) & ~self.frontier_set(g)
        reached, terminals = self.walk_up(self.system.identity, free)
        return frozenset(reached), terminals

    def residue_walls(self, u: GroupElement, a: int, b: int) -> tuple[Wall, ...]:
        """The m walls of the residue u W_ab, for a finite order m = m_ab,
        in the order the alternating word a b a ... from u crosses them.

        The residue is a 2m-cycle of chambers, so the m steps of that word
        from u cross each of its walls once: the step by s from h crosses
        the wall of h(alpha_s), walls[s] of h.
        """
        right_mul = self.system.right_mul
        out = []
        h = u
        for i in range(self.system.cox.orders[a][b]):
            s = b if i % 2 else a
            out.append(h.walls[s])
            h = right_mul(h, s)
        return tuple(out)
