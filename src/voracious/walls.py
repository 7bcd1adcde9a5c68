"""Walls of a Coxeter chamber system and the voracious projection.

A wall is the fixed hyperplane of a reflection, represented by its positive
root.  Everything here reduces to exact sign evaluations:

  * chamber g lies on the identity side of the wall of beta iff
    g^{-1}(beta) is positive;
  * two distinct walls are disjoint (do not cross) iff |B(beta, beta')| >= 1;
  * a wall separates chamber g from a disjoint wall W iff g and the chambers
    incident to W lie on opposite sides.

The frontier of g collects the inversion walls of g that no other wall
separates from g; the voracious projection is the longest prefix of g whose
chamber stays on the identity side of every frontier wall.  Candidate
separators of (g, W) for W in Inv(g) always lie in Inv(g): a geodesic from
the identity to g crosses W between two chambers incident to W, and those
chambers sit on W's side of any disjoint separator.
"""

from __future__ import annotations

from .coxeter import CoxeterSystem, GroupElement, _column


class Wall:
    """Wall of a reflection, keyed by its sign-normalized positive root."""

    __slots__ = ("root", "key", "_hash")

    def __init__(self, root, key):
        self.root = root
        self.key = key
        self._hash = hash(key)

    def __eq__(self, other):
        if not isinstance(other, Wall):
            return NotImplemented
        return self.key == other.key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Wall{self.key}"


def _root_key(root):
    return tuple(x.coeffs for x in root)


class WallGeometry:
    """Wall-level operations over one Coxeter system, with memoized geometry."""

    def __init__(self, system: CoxeterSystem):
        self.system = system
        self._walls: dict[tuple, Wall] = {}
        self._inv: dict[GroupElement, frozenset[Wall]] = {}
        self._frontier: dict[GroupElement, frozenset[Wall]] = {}
        # g -> (p(g), p(g)^{-1} g): the projection and the block it leaves.
        self._proj: dict[GroupElement, tuple[GroupElement, GroupElement]] = {}
        self._incident: dict[Wall, tuple[GroupElement, int]] = {}
        self._disjoint: dict[frozenset[Wall], bool] = {}
        self._gen_walls = tuple(
            self.wall_of_root(system.simple_root(s)) for s in range(system.rank)
        )

    # -- construction ------------------------------------------------------

    def wall_of_root(self, root) -> Wall:
        # Walls are keyed by their positive root, so a hit needs no sign.
        key = _root_key(root)
        got = self._walls.get(key)
        if got is None:
            if self.system.root_sign(root) < 0:
                root = tuple(-x for x in root)
                key = _root_key(root)
            got = self._walls.get(key)
            if got is None:
                got = self._walls[key] = Wall(root, key)
        return got

    def wall_of_generator(self, s: int) -> Wall:
        return self._gen_walls[s]

    def translate_wall(self, g: GroupElement, wall: Wall) -> Wall:
        return self.wall_of_root(self.system.apply_matrix(g.matrix, wall.root))

    def reflection_of_wall(self, wall: Wall) -> GroupElement:
        """The reflection fixing the wall, as a group element."""
        sys = self.system
        k = sys.rank
        beta = wall.root
        coefs = tuple(sys.gram2_row_dot(j, beta) for j in range(k))
        rows = []
        for i in range(k):
            rows.append(
                tuple(
                    (sys.ctx.one if i == j else sys.ctx.zero) - beta[i] * coefs[j]
                    for j in range(k)
                )
            )
        matrix = tuple(rows)
        return GroupElement(matrix, matrix, sys.length_of_matrix(matrix))

    # -- sides and inversion sets -------------------------------------------

    def on_identity_side(self, g: GroupElement, wall: Wall) -> bool:
        """True iff g and the identity chamber agree about the wall.

        Equivalent to g^{-1}(beta) being positive; phrased through the
        inversion set so that repeated side queries share one computation.
        """
        return wall not in self.inversion_walls(g)

    def inversion_walls(self, g: GroupElement) -> frozenset[Wall]:
        """Walls separating chamber g from the identity chamber."""
        got = self._inv.get(g)
        if got is not None:
            return got
        sys = self.system
        word = sys.shortlex_word(g)
        walls = set()
        prefix = sys.identity
        for s in word:
            walls.add(self.wall_of_root(_column(prefix.matrix, s)))
            prefix = sys.right_mul(prefix, s)
        if len(walls) != g.length:
            raise ArithmeticError("inversion walls of a reduced word must be distinct")
        out = frozenset(walls)
        self._inv[g] = out
        return out

    def walls_between(self, g: GroupElement, h: GroupElement) -> frozenset[Wall]:
        return self.inversion_walls(g) ^ self.inversion_walls(h)

    def is_prefix(self, p: GroupElement, g: GroupElement) -> bool:
        """p lies on a geodesic from the identity to g."""
        return self.inversion_walls(p) <= self.inversion_walls(g)

    # -- wall-versus-wall geometry ------------------------------------------

    def walls_disjoint(self, a: Wall, b: Wall) -> bool:
        """True iff the two distinct walls do not cross: |B(alpha, beta)| >= 1."""
        if a == b:
            raise ValueError("wall disjointness needs two distinct walls")
        pair = frozenset((a, b))
        got = self._disjoint.get(pair)
        if got is None:
            t = self.system.bilinear2(a.root, b.root)
            got = t >= 2 or t <= -2
            self._disjoint[pair] = got
        return got

    def incident_chamber(self, wall: Wall) -> GroupElement:
        """A canonical chamber having the wall among its own walls.

        Descends the root's depth: while beta is not simple, applying the
        least generator s with B(alpha_s, beta) > 0 keeps beta positive and
        brings it closer to simplicity.  The resulting chamber lies on the
        identity side of the wall.
        """
        got = self._incident.get(wall)
        if got is None:
            got = self._locate_incident(wall)
            self._incident[wall] = got
        return got[0]

    def incident_far_chamber(self, wall: Wall) -> GroupElement:
        """The neighbour of incident_chamber(wall) across the wall."""
        got = self._incident.get(wall)
        if got is None:
            got = self._locate_incident(wall)
            self._incident[wall] = got
        near, s = got
        return self.system.right_mul(near, s)

    def _locate_incident(self, wall: Wall):
        sys = self.system
        beta = wall.root
        chamber = sys.identity
        for _ in range(len(self._walls) + sys.max_ball_elements):
            simple = next(
                (s for s in range(sys.rank) if beta == sys.simple_root(s)), None
            )
            if simple is not None:
                return sys.intern(chamber), simple
            for s in range(sys.rank):
                if sys.gram2_row_dot(s, beta).sign() > 0:
                    beta = sys.apply_matrix(sys.generator_matrix(s), beta)
                    chamber = sys.right_mul(chamber, s)
                    break
            else:
                raise ArithmeticError("depth descent stalled on a non-root vector")
        raise ArithmeticError("depth descent failed to terminate")

    def separates_from_wall(self, sep: Wall, g: GroupElement, wall: Wall) -> bool:
        """True iff chamber g and wall lie strictly on opposite sides of sep."""
        if sep == wall:
            return False
        if not self.walls_disjoint(sep, wall):
            return False
        return self.on_identity_side(g, sep) != self.on_identity_side(
            self.incident_chamber(wall), sep
        )

    def find_separator(self, g: GroupElement, wall: Wall, candidates):
        """Deterministic search: least candidate (by root key) separating g from wall."""
        for sep in sorted(candidates, key=lambda w: w.key):
            if self.separates_from_wall(sep, g, wall):
                return sep
        return None

    # -- frontier and projection --------------------------------------------

    def frontier_set(self, g: GroupElement) -> frozenset[Wall]:
        """Inversion walls of g that no wall separates from chamber g."""
        got = self._frontier.get(g)
        if got is not None:
            return got
        inv = self.inversion_walls(g)
        out = frozenset(
            w for w in inv if self.find_separator(g, w, inv - {w}) is None
        )
        self._frontier[g] = out
        return out

    def voracious_projection(self, g: GroupElement, order=None) -> GroupElement:
        """Longest prefix of g on the identity side of every frontier wall.

        Greedy construction: extend the prefix p by any generator s that is a
        left descent of p^{-1} g (which keeps ps a prefix of g) and whose new
        inversion wall p(alpha_s) avoids the frontier.  Maximal elements of
        the prefix set are unique, so the greedy order does not matter; the
        verification suite checks that claim against brute force.
        """
        if order is None:
            got = self._proj.get(g)
            if got is not None:
                return got[0]
        sys = self.system
        frontier = self.frontier_set(g)
        seq = tuple(order) if order is not None else tuple(range(sys.rank))
        p = sys.identity
        x = g
        moved = True
        while moved:
            moved = False
            for s in seq:
                if sys.root_sign(_column(x.inv, s)) >= 0:
                    continue
                if self.wall_of_root(_column(p.matrix, s)) in frontier:
                    continue
                p = sys.right_mul(p, s)
                x = sys.left_mul(x, s)
                moved = True
                break
        p = sys.intern(p)
        if order is None:
            self._proj[g] = (p, x)
        return p

    def projection_block(self, g: GroupElement) -> GroupElement:
        """p(g)^{-1} g, the rest of g that the greedy walk to p(g) leaves."""
        self.voracious_projection(g)
        return self._proj[g][1]

    def projection_candidates(self, g: GroupElement) -> frozenset[GroupElement]:
        """All prefixes of g on the identity side of every frontier wall."""
        sys = self.system
        frontier = self.frontier_set(g)
        start = sys.identity
        seen = {start}
        queue = [(start, g)]
        out = []
        while queue:
            p, x = queue.pop()
            out.append(p)
            for s in range(sys.rank):
                if sys.root_sign(_column(x.inv, s)) >= 0:
                    continue
                if self.wall_of_root(_column(p.matrix, s)) in frontier:
                    continue
                p2 = sys.intern(sys.right_mul(p, s))
                if p2 in seen:
                    continue
                seen.add(p2)
                queue.append((p2, sys.left_mul(x, s)))
        return frozenset(out)
