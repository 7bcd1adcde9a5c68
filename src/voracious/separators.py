"""The separator search: a frontier by its definition, the verifier's oracle.

The frontier of g is the set of inversion walls of g that no other wall
separates from chamber g.  The engine searches no separator: it steps
Brink-Howlett states (WallGeometry.frontier_pairs), and the verifier reads
the walls with no separator from chamber g off g(Small).  The verifier's
automaton agreement check and the tests hold them to the definition
through SeparatorSearch, which decides exactly that two distinct walls are
disjoint iff |B(beta, beta')| >= 1, and that a wall separates chamber g
from a disjoint wall W iff g and the chambers incident to W lie on
opposite sides.
"""

from __future__ import annotations

from collections import defaultdict
from operator import mul

from .coxeter import GroupElement, Wall
from .walls import WallGeometry


class SeparatorSearch:
    """The separator search over one geometry; every memo is keyed by wall."""

    def __init__(self, geometry: WallGeometry):
        self.geometry = geometry
        self.system = sys = geometry.system
        # The masks of walls whose disjointness from the wall is decided, and
        # of those found disjoint (walls_disjoint); its functional (form2).
        self._known: dict[Wall, int] = defaultdict(int)
        self._disjoint: dict[Wall, int] = defaultdict(int)
        self._functional: dict[Wall, tuple] = {}
        # Its canonical incident chamber, and that chamber's inversion mask
        # (incident_bits).
        self._incident = dict.fromkeys(sys.identity.walls, sys.identity)
        self._near: dict[Wall, int] = {}

    def stats(self) -> dict[str, int]:
        """Sizes of the search's memos: the incident chambers."""
        return {"incident_chambers": len(self._incident)}

    def form_functional(self, vec):
        """The integer map u -> 2 B(u, vec), as d rows of k d ints.

        2 B(u, vec) is the sum over s of u_s times c_s = 2 B(alpha_s, vec),
        and u_s c_s the sum over a of u_s[a] y^a c_s.  So coefficient r of
        2 B(u, vec) is the dot product of row r, entry r of each y^a c_s in
        that order, with the flat root u.
        """
        sys = self.system
        times_powers = sys.ctx.times_powers
        columns = [
            col
            for s in range(sys.rank)
            for col in times_powers(sys.gram2_row_dot(s, vec))
        ]
        return tuple(zip(*columns))

    def form2(self, a: Wall, b: Wall):
        """2B(alpha, beta) for the roots of walls a and b: the rows of one
        wall's functional dotted with the other's flat root.  A wall's
        functional serves if it has one, and otherwise a's is built and kept."""
        functional = self._functional
        rows = functional.get(a)
        if rows is None:
            rows = functional.get(b)
            if rows is None:
                rows = functional[a] = self.form_functional(a.root)
            else:
                a, b = b, a
        return tuple([sum(map(mul, row, b.root)) for row in rows])

    def walls_disjoint(self, a: Wall, b: Wall) -> bool:
        """True iff the two distinct walls do not cross: |B(alpha, beta)| >= 1,
        decided once per pair by form2 and memoised in both walls' masks."""
        if a is b:
            raise ValueError("wall disjointness needs two distinct walls")
        known, disjoint = self._known, self._disjoint
        if known[a] & b.bit:
            return bool(disjoint[a] & b.bit)
        known[a] |= b.bit
        known[b] |= a.bit
        if not self.system.ctx.in_band(self.form2(a, b)):
            disjoint[a] |= b.bit
            disjoint[b] |= a.bit
            return True
        return False

    def incident_chamber(self, wall: Wall) -> GroupElement:
        """A canonical chamber having the wall among its own walls, on the
        identity side of it.

        Descends the root's depth: while beta is not simple, the least
        generator s with B(alpha_s, beta) > 0 keeps beta positive and brings
        it closer to simplicity, and chamber(beta) = s chamber(s(beta)).  So
        the descent stops at the first wall whose chamber c is known, and on
        the way back fills in each wall it passed: the element of the letters
        descended from it, followed by the shortlex word of c.  Each step
        reads the reflection table of a simple wall
        (CoxeterSystem.simple_reflection).
        """
        memo = self._incident
        got = memo.get(wall)
        if got is not None:
            return got
        sys = self.system
        sign_of = sys.ctx.sign_of
        path = []
        for _ in range(len(sys._by_index) + sys.max_ball_elements):
            for s in range(sys.rank):
                if sign_of(sys.gram2_row_dot(s, wall.root)) > 0:
                    break
            else:
                raise ArithmeticError("depth descent stalled on a non-root vector")
            path.append((wall, s))
            wall = sys.simple_reflection(s, wall)[0]
            got = memo.get(wall)
            if got is not None:
                break
        else:
            raise ArithmeticError("depth descent failed to terminate")
        word = self.geometry.shortlex_word(got)
        for passed, s in reversed(path):
            word = (s,) + word
            got = memo[passed] = sys.element_of_word(word)
        return got

    def incident_bits(self, wall: Wall) -> int:
        """The inversion mask of the wall's canonical incident chamber,
        memoised."""
        near = self._near.get(wall)
        if near is None:
            near = self._near[wall] = self.geometry.inversion_bits(
                self.incident_chamber(wall)
            )
        return near

    def has_separator(self, g: GroupElement, wall: Wall, candidates: int = -1) -> bool:
        """True iff some wall in the candidates mask separates chamber g from wall.

        A separator is disjoint from wall, and every chamber incident to wall
        sits on one side of it, so the sides of g and of incident_chamber(wall)
        differ.  That is one mask; then disjointness is read from the memo, and
        otherwise decided one wall at a time up to the first disjoint one.
        The default mask is every wall.
        """
        inv = self.geometry.inversion_bits
        mask = candidates & (inv(g) ^ self.incident_bits(wall)) & ~wall.bit
        if mask & self._disjoint[wall]:
            return True
        for sep in self.system.walls_of(mask & ~self._known[wall]):
            if self.walls_disjoint(wall, sep):
                return True
        return False

    def frontier(self, g: GroupElement) -> int:
        """The frontier of g by its definition, as a mask, where a separator
        of an inversion wall of g is itself in Inv(g): the agreement check's
        oracle for WallGeometry.frontier_set."""
        inv = self.geometry.inversion_bits(g)
        out = 0
        for wall in self.system.walls_of(inv):
            if not self.has_separator(g, wall, inv):
                out |= wall.bit
        return out
