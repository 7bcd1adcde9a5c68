"""Coxeter systems: presentation matrix, geometric representation, words, balls.

A group element g is stored as its walls: for each generator s, the wall of
the root g(alpha_s) and a descent bit, set iff g(alpha_s) < 0, beside the
cached word length.  Since l(gs) < l(g) iff g(alpha_s) < 0, every length
and right descent test reads one bit.  The system owns the walls, one per
positive root, each with a bit 1 << (creation index), so a set of walls is
an int mask (walls.py).  A product g s reflects the walls of the neighbours
of s in the wall of g(alpha_s), through one memoised table per wall (see
right_mul).  Words are built from the right: descent_step steps down a
right descent, and shortlex words climb the weak order (walls.py).  One
breadth-first step, next_layer, grows the ball by a layer, in (length,
shortlex) order with no sort.  A left product s g is the element of the
word s followed by a reduced word of g, and g^{-1} that of the reversed
word, so the system has one product direction and no inverse link.

Roots and the form 2B are coefficient tuples of ints over y' = 2 cos(pi/M'),
for M' the lcm of the finite orders other than 2 and 3 (see field.py).  A
root is one flat tuple of k d ints, for k the rank and d the degree of y':
coordinate j is root[j d : (j + 1) d].  So a new reflection-table entry is
one elementwise sum of two flat tuples.  Those two orders give the rational
entries 0 and -1 of 2B, so one context over M' does all arithmetic;
output_vector writes a root's coordinates over y = 2 cos(pi/M), for M the
lcm of every finite order, the one basis every output uses.

The representation is faithful, so a system builds each element once, from
one table keyed by its walls and descent bits: two elements of one system
are equal iff they are the same object, and every memo hashes elements and
walls by identity.  A root's sign is decided once, when its wall is made.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from functools import cached_property

from .field import FieldContext, add, neg, sub, two_cos_degree

INF = 0  # encoding of an infinite Coxeter matrix entry, here and in config files

# Largest degree of Q(2 cos(pi/M)), M = CoxeterMatrix.field_modulus(), that a
# system may write its outputs in; the field it computes in is a subfield.
# The groups shipped or named in the docs need at most 12, for (2,3,7);
# orders {1001, 2, 3} would need 1440, and their minimal polynomial alone
# takes seconds to build.
MAX_FIELD_DEGREE = 64

# Most small roots the small-root closure finds before it gives up.  Every
# Coxeter group has finitely many (Brink-Howlett), so this only bounds work.
MAX_SMALL_ROOTS = 10_000

Word = tuple[int, ...]


class GroupConfigError(ValueError):
    """Malformed group configuration (file contents or matrix data)."""


class ResourceLimitError(RuntimeError):
    """A configured enumeration cap was exceeded."""


@dataclass(frozen=True)
class CoxeterMatrix:
    """Symmetric matrix of pairwise orders m_st; diagonal 1, INF encodes infinity."""

    generators: tuple[str, ...]
    orders: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        k = len(self.generators)
        if k == 0:
            raise GroupConfigError("at least one generator is required")
        if any(not isinstance(g, str) or not g for g in self.generators):
            raise GroupConfigError("generator names must be nonempty strings")
        if len(set(self.generators)) != k:
            raise GroupConfigError("generator names must be distinct")
        if any("," in g for g in self.generators):
            # words of several-letter names are written comma-joined
            raise GroupConfigError("generator names must not contain ','")
        if len(self.orders) != k or any(len(row) != k for row in self.orders):
            raise GroupConfigError("order matrix must be square of rank len(generators)")
        for i in range(k):
            for j in range(k):
                m = self.orders[i][j]
                if not isinstance(m, int) or isinstance(m, bool):
                    raise GroupConfigError("matrix entries must be integers")
                if m != self.orders[j][i]:
                    raise GroupConfigError("order matrix must be symmetric")
                if i == j:
                    if m != 1:
                        raise GroupConfigError("diagonal entries must equal 1")
                elif m != INF and m < 2:
                    raise GroupConfigError(
                        "off-diagonal entries must be >= 2 (or 0 for infinity)"
                    )

    @property
    def rank(self) -> int:
        return len(self.generators)

    def field_modulus(self) -> int:
        """lcm of the finite entries; 1 when every off-diagonal order is infinite."""
        return self._lcm_of_orders(())

    def arithmetic_modulus(self) -> int:
        """lcm of the finite entries other than 2 and 3, or 1 when there are
        none: 2 cos(pi/2) = 0 and 2 cos(pi/3) = 1 need no field."""
        return self._lcm_of_orders((2, 3))

    def _lcm_of_orders(self, skip) -> int:
        m = 1
        for i in range(self.rank):
            for j in range(i + 1, self.rank):
                order = self.orders[i][j]
                if order != INF and order not in skip:
                    m = math.lcm(m, order)
        return m


def unique_keys(pairs) -> dict:
    """json's object_pairs_hook for parse_json: the object as a dict, or a
    GroupConfigError naming a key given twice, where json alone would keep
    the last value without a word."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise GroupConfigError(f"duplicate key {key!r} in a JSON object")
        out[key] = value
    return out


def parse_json(text: str):
    """The JSON value of a text, as the program reads every file: a group
    file or an automaton file.  Invalid JSON, a key given twice and nesting
    too deep for the parser are GroupConfigErrors."""
    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as e:
        raise GroupConfigError(f"invalid JSON: {e}") from e
    except RecursionError as e:
        raise GroupConfigError("invalid JSON: nested too deeply") from e


def parse_group_config(text: str) -> CoxeterMatrix:
    """Parse a JSON group config: {"generators": [...], "m": [[...]]}; 0 = infinity."""
    data = parse_json(text)
    if not isinstance(data, dict):
        raise GroupConfigError("group config must be a JSON object")
    gens = data.get("generators")
    rows = data.get("m")
    if not isinstance(gens, list) or not isinstance(rows, list):
        raise GroupConfigError('group config needs "generators" and "m" lists')
    try:
        orders = tuple(tuple(row) for row in rows)
    except TypeError as e:
        raise GroupConfigError('"m" must be a list of lists') from e
    return CoxeterMatrix(tuple(gens), orders)


def load_group_file(path: str) -> CoxeterMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_group_config(fh.read())


def word_to_string(word: Word, generators) -> str:
    """Render a word; single-character alphabets concatenate, others comma-join."""
    names = [generators[i] for i in word]
    if all(len(g) == 1 for g in generators):
        return "".join(names)
    return ",".join(names)


def word_from_string(text: str, generators) -> Word:
    if text == "":
        return ()
    index = dict(zip(generators, range(len(generators))))
    if "," in text or max(map(len, generators)) > 1:
        letters = text.split(",")
    else:
        letters = text
    try:
        return tuple(map(index.__getitem__, letters))
    except KeyError as e:
        raise GroupConfigError(f"unknown generator {e.args[0]!r}") from None


class Wall:
    """Wall of a reflection, with its sign-normalized positive root.

    The root is one flat tuple of coefficients over y', coordinate by
    coordinate (outputs use WallGeometry.output_root).  Walls are made only
    by CoxeterSystem.wall_of_root, one per positive root and system, so
    identity is equality.  `bit` is 1 << (creation index in its system).
    `reflections` maps a wall W to (W', flip), r(beta_W) = -beta_W' if flip
    else beta_W', for r the reflection in this wall (CoxeterSystem.right_mul).
    """

    __slots__ = ("root", "bit", "reflections")

    def __init__(self, root, bit):
        self.root = root
        self.bit = bit
        self.reflections: dict[Wall, tuple[Wall, int]] = {}

    def __repr__(self):
        return f"Wall({self.root})"


class GroupElement:
    """Element g of a Coxeter group, stored as its walls.

    g(alpha_s) is the root of walls[s], negated iff bit s of descents is
    set, so descents masks the right descents; length is the word length.
    products[s] is g s once CoxeterSystem.right_mul has built it, else
    None.  Elements are made only by their CoxeterSystem
    (CoxeterSystem._element), one per (walls, descents), so identity is
    equality.  Elements of two systems never compare equal, even over one
    Coxeter matrix.
    """

    __slots__ = ("walls", "descents", "length", "products")

    def __init__(self, walls, descents, length):
        self.walls = walls
        self.descents = descents
        self.length = length
        self.products: list[GroupElement | None] = [None] * len(walls)

    def __repr__(self):
        return f"<element of length {self.length}>"


class CoxeterSystem:
    """A Coxeter group with its geometric representation and word machinery."""

    def __init__(self, cox: CoxeterMatrix, max_ball_elements: int = 1_000_000):
        self.cox = cox
        self.rank = cox.rank
        self.max_ball_elements = max_ball_elements
        modulus = cox.field_modulus()
        # phi(2M) >= sqrt(M), so the degree is at least sqrt(M)/2 and a larger
        # modulus is refused without factoring it.
        if (
            modulus > 4 * MAX_FIELD_DEGREE**2
            or two_cos_degree(modulus) > MAX_FIELD_DEGREE
        ):
            raise ResourceLimitError(
                f"field Q(2 cos(pi/{modulus})) has degree above {MAX_FIELD_DEGREE}"
            )
        self.ctx = FieldContext(cox.arithmetic_modulus())
        ctx = self.ctx
        self._output_map = None
        k = self.rank

        # 2B has integer polynomial entries; it is the only form kept.
        zero = (0,) * ctx.degree
        gram2 = []
        for i in range(k):
            row = []
            for j in range(k):
                if i == j:
                    row.append((2,) + zero[1:])
                elif cox.orders[i][j] == INF:
                    row.append((-2,) + zero[1:])
                else:
                    row.append(neg(ctx.two_cos_pi_over(cox.orders[i][j])))
            gram2.append(tuple(row))
        self.gram2 = tuple(gram2)
        # Row s of 2B off the diagonal, negated, as (j, x -> -(2B)_sj x) over
        # its nonzero entries; every diagonal entry is 2.  Each map acts on
        # one coordinate or on a whole flat root (FieldContext.multiplier).
        self._reflect_times = tuple(
            tuple(
                (j, ctx.multiplier(neg(x)))
                for j, x in enumerate(row)
                if j != s and any(x)
            )
            for s, row in enumerate(self.gram2)
        )

        # Root of either sign -> (its wall, 1 if it is the negated root).
        self._walls: dict[tuple, tuple[Wall, int]] = {}
        self._by_index: list[Wall] = []
        # Column s of the identity is the simple root alpha_s, 1 at the
        # constant term of coordinate s, so the wall of generator s has bit s.
        size = k * ctx.degree
        simple = tuple(
            self.wall_of_root(tuple(int(i == j * ctx.degree) for i in range(size)))
            for j in range(k)
        )
        self._elements: dict[tuple, GroupElement] = {}
        self.identity = self._element(simple, 0, 0)

        self._layers: list[list[GroupElement]] = [[self.identity]]

    # -- linear algebra ----------------------------------------------------

    def output_vector(self, vec):
        """The coordinates of the flat vector vec, each written over
        y = 2 cos(pi/M), for M the field modulus, through one integer map
        built on first use: the basis of every output."""
        rewrite = self._output_map
        if rewrite is None:
            rewrite = self._output_map = self.ctx.basis_change(
                self.cox.field_modulus()
            )
        d = self.ctx.degree
        return tuple(rewrite(vec[i : i + d]) for i in range(0, len(vec), d))

    def gram2_row_dot(self, s: int, vec):
        """2 B(alpha_s, vec), for a flat vector vec."""
        d = self.ctx.degree
        x = vec[s * d : s * d + d]
        acc = add(x, x)
        for j, t in self._reflect_times[s]:
            x = vec[j * d : j * d + d]
            if any(x):
                acc = sub(acc, t(x))
        return acc

    def root_sign(self, vec) -> int:
        """+1 for a positive root, -1 for a negative one.  The coordinates of
        a root are of one sign, and not all 0; anything else signals an
        arithmetic bug, so it raises."""
        d, sign_of = self.ctx.degree, self.ctx.sign_of
        signs = {sign_of(vec[i : i + d]) for i in range(0, len(vec), d)}
        signs.discard(0)
        if len(signs) != 1:
            raise ArithmeticError(f"not a root: coordinate signs {sorted(signs)}")
        return signs.pop()

    # -- walls ---------------------------------------------------------------

    def wall_of_root(self, root) -> Wall:
        """The wall of a flat root of either sign."""
        return self._signed_wall(root)[0]

    def _signed_wall(self, root) -> tuple[Wall, int]:
        """(wall, flip): root is the wall's root, negated iff flip.  The
        registry holds both signs of each wall's root, so a known root is
        one lookup; a root's sign is decided, and the root negated, only
        when its wall is made."""
        got = self._walls.get(root)
        if got is None:
            other = neg(root)
            flip = int(self.root_sign(root) < 0)
            wall = Wall(other if flip else root, 1 << len(self._by_index))
            self._by_index.append(wall)
            self._walls[wall.root] = (wall, 0)
            self._walls[root if flip else other] = (wall, 1)
            got = wall, flip
        return got

    def walls_of(self, mask: int):
        """The walls whose bits are set in mask, lowest bit first."""
        by_index = self._by_index
        while mask:
            low = mask & -mask
            yield by_index[low.bit_length() - 1]
            mask ^= low

    def simple_reflection(self, s: int, wall: Wall) -> tuple[Wall, int]:
        """(W', flip) for s(beta_W) = -beta_W' if flip else beta_W', from the
        reflection table of the wall of alpha_s.  A new entry moves
        coordinate s only: s(beta) = beta - 2B(alpha_s, beta) alpha_s."""
        table = self.identity.walls[s].reflections
        got = table.get(wall)
        if got is None:
            beta, d = wall.root, self.ctx.degree
            lo, hi = s * d, s * d + d
            moved = sub(beta[lo:hi], self.gram2_row_dot(s, beta))
            got = table[wall] = self._signed_wall(beta[:lo] + moved + beta[hi:])
        return got

    # -- group operations --------------------------------------------------

    def _element(self, walls, descents: int, length: int) -> GroupElement:
        """The element with these signed walls: the one already built, or a
        new one.  length is tracked along the path that reached it; a stored
        element of another length means the tracking went wrong."""
        key = walls, descents
        got = self._elements.get(key)
        if got is None:
            got = self._elements[key] = GroupElement(walls, descents, length)
        elif got.length != length:
            raise ArithmeticError("one element reached with two lengths")
        return got

    def right_mul(self, g: GroupElement, s: int) -> GroupElement:
        """g * s, from the walls of g and their descent bits.

        (g s)(alpha_s) = -g(alpha_s), so bit s flips, and it gives the length
        step.  For H the wall of g(alpha_s), (g s)(alpha_t) = g(alpha_t) -
        (2B)_st g(alpha_s) is r_H(g(alpha_t)), as B is W-invariant: for each
        neighbour t of s in 2B, the wall W of column t becomes W', and bit t
        flips if r_H(beta_W) = -beta_W'.  H's table holds that reflection;
        a new entry is beta_W plus or minus -(2B)_st beta_H, one elementwise
        map over the flat roots, since 2B(beta_H, beta_W) is (2B)_st, negated
        when bits s and t differ.

        Memoised both ways in the elements' product slots, as right
        multiplication by s is an involution: (g s) s = g is known from the
        moment g s is, so a walk down a right descent of an element built by
        right_mul is free.
        """
        hit = g.products[s]
        if hit is not None:
            return hit
        signs = g.descents
        walls = list(g.walls)
        h = walls[s]
        table = h.reflections
        descents = signs ^ 1 << s
        for t, times in self._reflect_times[s]:
            w = walls[t]
            got = table.get(w)
            if got is None:
                combine = (
                    operator.sub if (signs >> s ^ signs >> t) & 1 else operator.add
                )
                root = tuple(map(combine, w.root, times(h.root)))
                got = table[w] = self._signed_wall(root)
            walls[t], flip = got
            descents ^= flip << t
        length = g.length - 1 if signs >> s & 1 else g.length + 1
        out = self._element(tuple(walls), descents, length)
        g.products[s] = out
        out.products[s] = g
        return out

    def descent_step(self, h: GroupElement) -> tuple[int, GroupElement]:
        """(s, h s) for a right descent s of h: the least s whose product
        right_mul has built, otherwise the least s, and h s is built."""
        descents = h.descents
        for s, down in enumerate(h.products):
            if down is not None and descents >> s & 1:
                return s, down
        if not descents:
            raise ArithmeticError("a non-identity element has no right descent")
        s = (descents & -descents).bit_length() - 1
        return s, self.right_mul(h, s)

    def element_of_word(self, word: Word) -> GroupElement:
        g = self.identity
        for s in word:
            if not 0 <= s < self.rank:
                raise GroupConfigError(f"generator index {s} out of range")
            g = self.right_mul(g, s)
        return g

    # -- descents and words ------------------------------------------------

    def right_descents(self, g: GroupElement) -> tuple[int, ...]:
        return tuple(s for s in range(self.rank) if g.descents >> s & 1)

    # -- metric balls -------------------------------------------------------

    def next_layer(self, layer, examined: int) -> dict:
        """The elements g s longer than g, for g in layer and s ascending,
        each mapped to the first (g, s) that reaches it.

        For a layer in (length, shortlex) order, the first (g, s) reaching
        h is its shortlex parent, whenever the layer holds it: if u s is the
        shortlex word of h, another g = h t of the layer with shortlex word
        u' gives a reduced word u' t of h, so u s <= u' t and u <= u', with
        equality only for g = h s; and from h s, only s reaches h.  So the
        word of h is its parent's plus s, and the elements come out in
        (length, shortlex) order with no sort.  A ball's layer holds every
        parent.

        examined counts the elements seen before; ResourceLimitError is
        raised as soon as they and the new ones exceed max_ball_elements,
        so a layer is never returned partly built.
        """
        cap = self.max_ball_elements
        right_mul = self.right_mul
        out = {}
        for g in layer:
            for s in range(self.rank):
                h = right_mul(g, s)
                if h.length > g.length and h not in out:
                    out[h] = (g, s)
                    if examined + len(out) > cap:
                        raise ResourceLimitError(
                            f"layer search exceeded max_ball_elements = {cap}"
                        )
        return out

    def _extend_layers(self, radius: int) -> None:
        # Layer n + 1 is next_layer of layer n.  Past a finite group's
        # diameter the last layer is empty, and nothing is appended.
        layers = self._layers
        examined = sum(map(len, layers))
        while len(layers) <= radius and layers[-1]:
            layers.append(list(self.next_layer(layers[-1], examined)))
            examined += len(layers[-1])

    def ball(self, radius: int) -> list[GroupElement]:
        """All elements of length <= radius, in (length, shortlex) order
        (see next_layer)."""
        self._extend_layers(radius)
        out = []
        for layer in self._layers[: max(radius + 1, 0)]:
            out.extend(layer)
        return out

    # -- small roots and finiteness ------------------------------------------

    def small_roots(self) -> tuple[Wall, ...]:
        """The walls of the small roots, in the order their closure finds them
        (see _small_closure)."""
        return self._small_closure[0]

    def small_steps(self) -> tuple[dict[Wall, Wall], ...]:
        """For each generator s, the map beta -> s(beta) on the small walls
        beta whose image s(beta) is small (see _small_closure): the step of
        a Brink-Howlett state (WallGeometry.frontier_pairs)."""
        return self._small_closure[1]

    @cached_property
    def _small_closure(self) -> tuple[tuple[Wall, ...], tuple[dict[Wall, Wall], ...]]:
        """(small walls, steps), from one closure that runs once.

        The closure starts from the simple walls.  From a small root beta and
        a generator s, the root s(beta) is small iff -2 < 2B(alpha_s, beta) < 2;
        outside that band the two walls are disjoint, and at 0 s fixes beta.
        So the closure evaluates 2B(alpha_s, beta) and the band test once for
        each (beta, s), and steps[s] maps beta to s(beta) exactly when it is
        in the band: alpha_s, at 2, is left out, and every wall made is
        small.  Every Coxeter group has finitely many small roots
        (Brink-Howlett).
        """
        in_band = self.ctx.in_band
        found = list(self.identity.walls)
        seen = set(found)
        steps = tuple({} for _ in range(self.rank))
        for wall in found:  # grows as the closure finds walls
            for s, step in enumerate(steps):
                t = self.gram2_row_dot(s, wall.root)
                if not any(t):
                    step[wall] = wall
                    continue
                if not in_band(t):
                    continue
                image, flip = self.simple_reflection(s, wall)
                if flip:
                    raise ArithmeticError("reflected small root must stay positive")
                step[wall] = image
                if image not in seen:
                    seen.add(image)
                    found.append(image)
                    if len(found) > MAX_SMALL_ROOTS:
                        raise ResourceLimitError(
                            f"small-root closure exceeded {MAX_SMALL_ROOTS} walls"
                        )
        return tuple(found), steps

    def is_finite(self) -> bool:
        """Whether the group is finite: no small root beta other than alpha_s
        has |2B(alpha_s, beta)| >= 2, for any generator s, so each step of
        small_steps maps every small wall but alpha_s's.

        If W is finite, B is positive definite, so |B| < 1 on any two roots
        that are not parallel.  Otherwise every s maps the small roots to
        small roots, save s(alpha_s) = -alpha_s, so they and their negatives
        form a W-stable set holding the simple roots: Phi, and with it W, is
        finite.
        """
        others = len(self.small_roots()) - 1
        return all(len(step) == others for step in self.small_steps())

    def stats(self) -> dict[str, int]:
        """Sizes of the system's memos: elements built, right products,
        walls, wall reflections and decided signs."""
        return {
            "elements": len(self._elements),
            "right_products": sum(
                len(g.products) - g.products.count(None)
                for g in self._elements.values()
            ),
            "walls": len(self._by_index),
            "reflections": sum(len(w.reflections) for w in self._by_index),
            "signs": len(self.ctx._signs),
        }

    def __repr__(self):
        return f"CoxeterSystem({'/'.join(self.cox.generators)}, rank={self.rank})"
