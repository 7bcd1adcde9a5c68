"""Walls of a Coxeter chamber system and the voracious projection.

A wall is the fixed hyperplane of a reflection, represented by its positive
root.  Everything here reduces to exact sign evaluations:

  * chamber g lies on the identity side of the wall of beta iff
    g^{-1}(beta) is positive;
  * two distinct walls are disjoint (do not cross) iff |B(beta, beta')| >= 1;
  * a wall separates chamber g from a disjoint wall W iff g and the chambers
    incident to W lie on opposite sides.

Each wall carries a bit, 1 << (its creation index), so an inversion set is a
Python int and every side question is a mask operation.  Disjointness costs a
field product, so it is decided one wall pair at a time, only for walls whose
sides already qualify, and memoised in both directions as per-wall bitmasks.

The shortlex walk that builds an inversion set passes, for each wall it
crosses, a chamber incident to that wall.  The first such chamber is kept as
the wall's crossing chamber, and every prefix's mask is kept too, so a
separator test against a wall some walk has crossed reads both sides from
memoised masks, with no depth descent to a canonical incident chamber.  The
walk also pulls walls back: g^{-1} maps the wall crossed at each step to the
wall of a column stored on the remaining suffix.

The frontier of g collects the inversion walls of g that no other wall
separates from g; the voracious projection is the longest prefix of g whose
chamber stays on the identity side of every frontier wall.  Candidate
separators of (g, W) for W in Inv(g) always lie in Inv(g): a geodesic from
the identity to g crosses W between two chambers incident to W, and those
chambers sit on W's side of any disjoint separator.
"""

from __future__ import annotations

from .coxeter import CoxeterSystem, GroupElement
from .field import cos_string, neg


class Wall:
    """Wall of a reflection, with its sign-normalized positive root.

    The root is a tuple of coefficient tuples.  Walls are made only by
    WallGeometry.wall_of_root, one per positive root and geometry, so
    identity is equality.  `bit` is 1 << (creation index in its geometry).
    `known` masks the walls whose disjointness from this one is decided,
    `disjoint` those found disjoint; WallGeometry.walls_disjoint keeps both.
    `crossing` is the first chamber an inversion walk saw cross the wall
    (see WallGeometry.inversion_bits), or None while no walk has crossed it.
    """

    __slots__ = ("root", "bit", "known", "disjoint", "crossing")

    def __init__(self, root, bit):
        self.root = root
        self.bit = bit
        self.known = 0
        self.disjoint = 0
        self.crossing = None

    def __repr__(self):
        return f"Wall{self.root}"


class WallGeometry:
    """Wall-level operations over one Coxeter system, with memoized geometry."""

    def __init__(self, system: CoxeterSystem):
        self.system = system
        self._walls: dict[tuple, Wall] = {}
        self._by_index: list[Wall] = []
        self._inv_bits: dict[GroupElement, int] = {}
        self._frontier: dict[GroupElement, frozenset[Wall]] = {}
        # g -> (p(g), p(g)^{-1} g): the projection and the block it leaves.
        self._proj: dict[GroupElement, tuple[GroupElement, GroupElement]] = {}
        self._incident: dict[Wall, GroupElement] = {}
        self._output_roots: dict[Wall, tuple] = {}
        # Made first, so the wall of generator s has bit s.
        self._gen_walls = tuple(map(self.wall_of_root, system.identity.matrix))

    # -- construction ------------------------------------------------------

    def wall_of_root(self, root) -> Wall:
        # Walls are keyed by their positive root, so a hit needs no sign.
        got = self._walls.get(root)
        if got is None:
            if self.system.root_sign(root) < 0:
                root = tuple(map(neg, root))
                got = self._walls.get(root)
            if got is None:
                got = self._walls[root] = Wall(root, 1 << len(self._by_index))
                self._by_index.append(got)
        return got

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

    def _iter_walls(self, mask: int):
        """The walls whose bits are set in mask, lowest bit first."""
        by_index = self._by_index
        while mask:
            low = mask & -mask
            yield by_index[low.bit_length() - 1]
            mask ^= low

    def translate_wall(self, g: GroupElement, wall: Wall) -> Wall:
        return self.wall_of_root(self.system.apply_matrix(g.matrix, wall.root))

    def pull_back(self, g: GroupElement, walls) -> frozenset[Wall]:
        """The walls g^{-1}(W) for the given inversion walls W of g.

        Read off the shortlex walk with no matrix product: along the word
        s_1 ... s_n of g, step i crosses the wall p(alpha_s) for s = s_i and
        the prefix p = s_1 ... s_{i-1}, and g^{-1} p is the inverse of the
        suffix q = s_i ... s_n, so that wall pulls back to the wall of the
        stored column q^{-1}(alpha_s).
        """
        sys = self.system
        want = 0
        for wall in walls:
            want |= wall.bit
        if want & ~self.inversion_bits(g):
            raise ValueError("only inversion walls of g are pulled back")
        out = []
        prefix, suffix = sys.identity, g
        for s in sys.shortlex_word(g):
            if not want:
                break
            bit = self.wall_of_root(prefix.matrix[s]).bit
            if want & bit:
                want ^= bit
                out.append(self.wall_of_root(suffix.inv[s]))
            prefix = sys.right_mul(prefix, s)
            suffix = sys.left_mul(suffix, s)
        return frozenset(out)

    # -- sides and inversion sets -------------------------------------------

    def on_identity_side(self, g: GroupElement, wall: Wall) -> bool:
        """True iff g and the identity chamber agree about the wall.

        Equivalent to g^{-1}(beta) being positive; phrased through the
        inversion set so that repeated side queries share one computation.
        """
        return not self.inversion_bits(g) & wall.bit

    def inversion_bits(self, g: GroupElement) -> int:
        """Walls separating chamber g from the identity chamber, as a mask."""
        memo = self._inv_bits
        got = memo.get(g)
        if got is not None:
            return got
        sys = self.system
        bits = 0
        prefix = sys.identity
        crossed = []
        for s in sys.shortlex_word(g):
            wall = self.wall_of_root(prefix.matrix[s])
            crossed.append((prefix, bits, wall))
            bits |= wall.bit
            prefix = sys.right_mul(prefix, s)
        if bits.bit_count() != g.length:
            raise ArithmeticError("inversion walls of a reduced word must be distinct")
        # Each prefix p of the walk is incident to the wall p(alpha_s) it
        # crosses next; keep its mask and, if none is known, it as the wall's
        # crossing chamber.
        for p, mask, wall in crossed:
            memo[p] = mask
            if wall.crossing is None:
                wall.crossing = p
        memo[g] = bits
        return bits

    def inversion_walls(self, g: GroupElement) -> frozenset[Wall]:
        """Walls separating chamber g from the identity chamber."""
        return frozenset(self._iter_walls(self.inversion_bits(g)))

    def walls_between(self, g: GroupElement, h: GroupElement) -> frozenset[Wall]:
        return frozenset(
            self._iter_walls(self.inversion_bits(g) ^ self.inversion_bits(h))
        )

    # -- wall-versus-wall geometry ------------------------------------------

    def walls_disjoint(self, a: Wall, b: Wall) -> bool:
        """True iff the two distinct walls do not cross: |B(alpha, beta)| >= 1."""
        if a is b:
            raise ValueError("wall disjointness needs two distinct walls")
        if a.known & b.bit:
            return bool(a.disjoint & b.bit)
        sys = self.system
        t = sys.bilinear2(a.root, b.root)
        a.known |= b.bit
        b.known |= a.bit
        if not sys.ctx.in_band(t):
            a.disjoint |= b.bit
            b.disjoint |= a.bit
            return True
        return False

    def incident_chamber(self, wall: Wall) -> GroupElement:
        """A canonical chamber having the wall among its own walls.

        Descends the root's depth: while beta is not simple, applying the
        least generator s with B(alpha_s, beta) > 0 keeps beta positive and
        brings it closer to simplicity.  The resulting chamber lies on the
        identity side of the wall.
        """
        got = self._incident.get(wall)
        if got is None:
            got = self._incident[wall] = self._locate_incident(wall)
        return got

    def _locate_incident(self, wall: Wall) -> GroupElement:
        sys = self.system
        beta = wall.root
        chamber = sys.identity
        for _ in range(len(self._walls) + sys.max_ball_elements):
            if beta in sys.identity.matrix:
                return chamber
            for s in range(sys.rank):
                if sys.ctx.sign_of(sys.gram2_row_dot(s, beta)) > 0:
                    beta = sys.reflect(s, beta)
                    chamber = sys.right_mul(chamber, s)
                    break
            else:
                raise ArithmeticError("depth descent stalled on a non-root vector")
        raise ArithmeticError("depth descent failed to terminate")

    def has_separator(self, g: GroupElement, wall: Wall, candidates: int = -1) -> bool:
        """True iff some wall in the candidates mask separates chamber g from wall.

        A separator is disjoint from wall and lies on different sides of g
        and of a chamber incident to wall.  Every chamber incident to wall
        sits on one side of any wall disjoint from it, so the wall's crossing
        chamber serves when a walk has recorded one, and incident_chamber(wall)
        otherwise.  The side condition is one mask; then disjointness is read
        from the memo, and otherwise decided one wall at a time up to the
        first disjoint one.  The default mask is every wall.
        """
        near = wall.crossing
        if near is None:
            near = self.incident_chamber(wall)
        sides = self.inversion_bits(g) ^ self.inversion_bits(near)
        mask = candidates & sides & ~wall.bit
        if mask & wall.disjoint:
            return True
        for sep in self._iter_walls(mask & ~wall.known):
            if self.walls_disjoint(wall, sep):
                return True
        return False

    # -- frontier and projection --------------------------------------------

    def frontier_set(self, g: GroupElement) -> frozenset[Wall]:
        """Inversion walls of g that no wall separates from chamber g."""
        got = self._frontier.get(g)
        if got is not None:
            return got
        # Separators of an inversion wall of g are themselves in Inv(g).
        inv = self.inversion_bits(g)
        out = frozenset(
            w for w in self._iter_walls(inv) if not self.has_separator(g, w, inv)
        )
        self._frontier[g] = out
        return out

    def _moves(self, p: GroupElement, x: GroupElement, frontier):
        """Generators by which the prefix p of g = p x may grow, least first.

        s may move when it is a left descent of x, which keeps ps a prefix of
        g, and the wall p(alpha_s) that ps newly crosses is not a frontier wall.
        """
        sys = self.system
        for s in range(sys.rank):
            if sys.root_sign(x.inv[s]) < 0 and (
                self.wall_of_root(p.matrix[s]) not in frontier
            ):
                yield s

    def voracious_projection(self, g: GroupElement) -> GroupElement:
        """Longest prefix of g on the identity side of every frontier wall.

        Greedy construction: extend the prefix by the least generator the
        move rule allows until none does.  Every greedy run, in any order
        and with any choices, ends at a terminal node of projection_walk's
        graph; the verification suite checks that this node is unique, so
        the order taken here does not matter.
        """
        got = self._proj.get(g)
        if got is not None:
            return got[0]
        sys = self.system
        frontier = self.frontier_set(g)
        p = sys.identity
        x = g
        s = next(self._moves(p, x, frontier), None)
        while s is not None:
            p = sys.right_mul(p, s)
            x = sys.left_mul(x, s)
            s = next(self._moves(p, x, frontier), None)
        self._proj[g] = (p, x)
        return p

    def projection_block(self, g: GroupElement) -> GroupElement:
        """p(g)^{-1} g, the rest of g that the greedy walk to p(g) leaves."""
        self.voracious_projection(g)
        return self._proj[g][1]

    def projection_walk(
        self, g: GroupElement
    ) -> tuple[frozenset[GroupElement], list[GroupElement]]:
        """The graph of every greedy run towards p(g): (candidates, terminals).

        The candidates are the prefixes of g that the move rule reaches from
        the identity, which are all prefixes of g on the identity side of
        every frontier wall.  The terminals are the candidates that allow no
        move; each greedy run ends at one.
        """
        sys = self.system
        frontier = self.frontier_set(g)
        start = sys.identity
        seen = {start}
        queue = [(start, g)]
        terminals = []
        while queue:
            p, x = queue.pop()
            terminal = True
            for s in self._moves(p, x, frontier):
                terminal = False
                p2 = sys.right_mul(p, s)
                if p2 not in seen:
                    seen.add(p2)
                    queue.append((p2, sys.left_mul(x, s)))
            if terminal:
                terminals.append(p)
        return frozenset(seen), terminals
