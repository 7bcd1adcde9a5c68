"""Coxeter systems: presentation matrix, geometric representation, words, balls.

A group element g is stored as its images of the simple roots: its matrix
in the geometric representation is kept by columns, and column s is the
root g(alpha_s).  The inverse is kept the same way, together with the cached
word length.  Since l(gs) > l(g) iff g(alpha_s) > 0, every length, descent
and inversion test reads one stored tuple.  Matrix entries, roots and the
form 2B are coefficient tuples of ints over y = 2 cos(pi/M) (see field.py),
so a matrix is a tuple of tuples of tuples.  The representation is faithful,
so matrix equality is group equality, and a system builds each element once,
from one table keyed by matrix: two elements of one system are equal iff
they are the same object, and every memo hashes elements by identity.
Lengths are never assumed from input words: generator application tracks
them by an exact root-sign test.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .field import FieldContext, add, neg, sub, two_cos_degree

INF = 0  # encoding of an infinite Coxeter matrix entry, here and in config files

# Largest degree of Q(2 cos(pi/M)) a system may use.  The groups shipped or
# named in the docs need at most 12, for (2,3,7); orders {1001, 2, 3} would
# need 1440, and their minimal polynomial alone takes seconds to build.
MAX_FIELD_DEGREE = 64

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
        if len(set(self.generators)) != k:
            raise GroupConfigError("generator names must be distinct")
        if any(not isinstance(g, str) or not g for g in self.generators):
            raise GroupConfigError("generator names must be nonempty strings")
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

    def order(self, i: int, j: int) -> int:
        return self.orders[i][j]

    def field_modulus(self) -> int:
        """lcm of the finite entries; 1 when every off-diagonal order is infinite."""
        m = 1
        for i in range(self.rank):
            for j in range(i + 1, self.rank):
                if self.orders[i][j] != INF:
                    m = math.lcm(m, self.orders[i][j])
        return m

    def automorphisms(self) -> list[tuple[int, ...]]:
        """All permutations of the generator indices preserving the orders."""
        from itertools import permutations

        k = self.rank
        out = []
        for perm in permutations(range(k)):
            if all(
                self.orders[perm[i]][perm[j]] == self.orders[i][j]
                for i in range(k)
                for j in range(k)
            ):
                out.append(perm)
        return out


def parse_group_config(text: str) -> CoxeterMatrix:
    """Parse a JSON group config: {"generators": [...], "m": [[...]]}; 0 = infinity."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise GroupConfigError(f"invalid JSON: {e}") from e
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
    index = {g: i for i, g in enumerate(generators)}
    if all(len(g) == 1 for g in generators) and "," not in text:
        letters = list(text)
    else:
        letters = text.split(",")
    word = []
    for letter in letters:
        if letter not in index:
            raise GroupConfigError(f"unknown generator {letter!r}")
        word.append(index[letter])
    return tuple(word)


class GroupElement:
    """Element g of a Coxeter group, stored as its images of the simple roots.

    matrix[s] is the root g(alpha_s) and inv[s] is g^{-1}(alpha_s), so a
    right descent (g(alpha_s) < 0) or a left descent (g^{-1}(alpha_s) < 0)
    reads one stored tuple.  length is the cached word length.

    Elements are made only by their CoxeterSystem (CoxeterSystem._element),
    which makes one per matrix, so identity is equality.  Elements of two
    different systems never compare equal, even over one Coxeter matrix.
    """

    __slots__ = ("matrix", "inv", "length", "_inverse")

    def __init__(self, matrix, inv, length):
        self.matrix = matrix
        self.inv = inv
        self.length = length
        self._inverse = None

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
        self.ctx = FieldContext(modulus)
        ctx = self.ctx
        k = self.rank

        # 2B has integer polynomial entries; it is the only form kept.
        zero = self._zero = (0,) * ctx.degree
        one = (1,) + zero[1:]
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
        # its nonzero entries; every diagonal entry is 2.
        self._reflect_times = tuple(
            tuple(
                (j, ctx.multiplier(neg(x)))
                for j, x in enumerate(row)
                if j != s and any(x)
            )
            for s, row in enumerate(self.gram2)
        )

        # Column s of the identity is the simple root alpha_s.
        ident = tuple(
            tuple(one if i == j else zero for i in range(k)) for j in range(k)
        )
        self._elements: dict[tuple, GroupElement] = {}
        self.identity = self._element(ident, ident, 0)

        self._layers: list[list[GroupElement]] = [[self.identity]]
        self._reduced_cache: dict[GroupElement, frozenset[Word]] = {}
        self._rmul_cache: dict[tuple[GroupElement, int], GroupElement] = {}
        self._shortlex: dict[GroupElement, Word] = {self.identity: ()}

    # -- linear algebra ----------------------------------------------------

    def apply_matrix(self, matrix, vec):
        """The matrix, given by its columns, applied to vec: sum of vec_j column_j."""
        mul = self.ctx.mul
        out = [self._zero] * self.rank
        for column, x in zip(matrix, vec):
            if any(x):
                out = [
                    add(acc, mul(a, x)) if any(a) else acc
                    for acc, a in zip(out, column)
                ]
        return tuple(out)

    def reflect(self, s: int, vec):
        """s(vec) = vec - 2 B(alpha_s, vec) alpha_s, which moves coordinate s only.

        The new coordinate is -vec_s - sum over j != s of (2B)_sj vec_j; vec
        itself is returned when it is unchanged.
        """
        x = vec[s]
        new = neg(x)
        for j, t in self._reflect_times[s]:
            y = vec[j]
            if any(y):
                new = add(new, t(y))
        if new == x:
            return vec
        return vec[:s] + (new,) + vec[s + 1 :]

    def _mul_gen_right(self, cols, s: int):
        """g s from the columns of g: (g s)(alpha_j) = g(alpha_j) - (2B)_sj
        g(alpha_s), so column s is negated, each neighbour j of s in 2B gains
        -(2B)_sj times column s, and every other column tuple is shared."""
        col = cols[s]
        out = list(cols)
        out[s] = tuple(map(neg, col))
        for j, t in self._reflect_times[s]:
            out[j] = tuple(
                add(y, t(x)) if any(x) else y for x, y in zip(col, cols[j])
            )
        return tuple(out)

    def _mul_gen_left(self, s: int, cols):
        """s g from the columns of g: s reflects every column."""
        reflect = self.reflect
        return tuple(reflect(s, col) for col in cols)

    def bilinear2(self, u, v):
        """2 B(u, v); integer-valued on integer vectors."""
        mul = self.ctx.mul
        acc = self._zero
        for i, x in enumerate(u):
            if any(x):
                acc = add(acc, mul(x, self.gram2_row_dot(i, v)))
        return acc

    def gram2_row_dot(self, s: int, vec):
        """2 B(alpha_s, vec)."""
        acc = add(vec[s], vec[s])
        for j, t in self._reflect_times[s]:
            x = vec[j]
            if any(x):
                acc = sub(acc, t(x))
        return acc

    def root_sign(self, vec) -> int:
        """+1 for a positive root, -1 for a negative one.

        Roots of the representation have coordinates of one sign; anything
        else signals an arithmetic bug, so mixed signs raise.
        """
        sign_of = self.ctx.sign_of
        positive = negative = False
        for x in vec:
            s = sign_of(x)
            if s > 0:
                positive = True
            elif s < 0:
                negative = True
        if positive and negative:
            raise ArithmeticError("root has coordinates of both signs")
        if not (positive or negative):
            raise ArithmeticError("zero vector is not a root")
        return 1 if positive else -1

    # -- group operations --------------------------------------------------

    def _element(self, matrix, inv, length: int) -> GroupElement:
        """The element with this matrix: the one already built, or a new one.

        Every element is built here, so each exists once.  length is the
        length tracked along the path that reached the matrix; a stored
        element of another length means the tracking went wrong.
        """
        got = self._elements.get(matrix)
        if got is None:
            got = self._elements[matrix] = GroupElement(matrix, inv, length)
        elif got.length != length:
            raise ArithmeticError("one element reached with two lengths")
        return got

    def right_mul(self, g: GroupElement, s: int) -> GroupElement:
        """g * s, with the length tracked by the sign of g(alpha_s).

        Memoized: enumeration loops revisit the same small ball many times,
        and left_mul reads the same memo through inverses, so the cache stays
        within rank * |explored ball and its inverses| entries.
        """
        key = (g, s)
        hit = self._rmul_cache.get(key)
        if hit is not None:
            return hit
        delta = self.root_sign(g.matrix[s])
        out = self._element(
            self._mul_gen_right(g.matrix, s),
            self._mul_gen_left(s, g.inv),
            g.length + delta,
        )
        self._rmul_cache[key] = out
        return out

    def left_mul(self, g: GroupElement, s: int) -> GroupElement:
        """s * g, read as (g^{-1} * s)^{-1} so that the right_mul memo serves
        both sides and each length sign is decided once per (element, s)."""
        return self.inverse(self.right_mul(self.inverse(g), s))

    def inverse(self, g: GroupElement) -> GroupElement:
        """g^{-1}, kept on g and pointing back, so each side is looked up once."""
        h = g._inverse
        if h is None:
            h = self._element(g.inv, g.matrix, g.length)
            h._inverse = g
            g._inverse = h
        return h

    def element_of_word(self, word: Word) -> GroupElement:
        g = self.identity
        for s in word:
            if not 0 <= s < self.rank:
                raise GroupConfigError(f"generator index {s} out of range")
            g = self.right_mul(g, s)
        return g

    # -- descents and words ------------------------------------------------

    def right_descents(self, g: GroupElement) -> tuple[int, ...]:
        return tuple(s for s in range(self.rank) if self.root_sign(g.matrix[s]) < 0)

    def left_descents(self, g: GroupElement) -> tuple[int, ...]:
        return tuple(s for s in range(self.rank) if self.root_sign(g.inv[s]) < 0)

    def shortlex_word(self, g: GroupElement) -> Word:
        """Lexicographically least reduced word: greedy smallest left descent.

        Memoized.  If s is the first letter of g's word, the rest is the word
        of s*g, so one walk fills the word of every element it passes and
        stops at the first element already known.
        """
        memo = self._shortlex
        path = []
        cur = g
        word = memo.get(cur)
        while word is None:
            s = next(t for t in range(self.rank) if self.root_sign(cur.inv[t]) < 0)
            path.append((cur, s))
            cur = self.left_mul(cur, s)
            word = memo.get(cur)
        for h, s in reversed(path):
            word = (s,) + word
            memo[h] = word
        return word

    def reduced_words(self, g: GroupElement) -> frozenset[Word]:
        """All reduced words of g: s followed by each reduced word of s*g, over
        the left descents s.  A post-order walk on an explicit stack, so the
        depth is not bounded by the recursion limit."""
        cache = self._reduced_cache
        # Frames are [element, (descent, s*element) pairs or None until expanded].
        stack = [[g, None]]
        while stack:
            frame = stack[-1]
            h, children = frame
            if children is None:
                if h in cache:
                    stack.pop()
                    continue
                if h.length == 0:
                    cache[h] = frozenset({()})
                    stack.pop()
                    continue
                children = frame[1] = tuple(
                    (s, self.left_mul(h, s))
                    for s in self.left_descents(h)
                )
                stack.extend([c, None] for _, c in children if c not in cache)
                continue
            cache[h] = frozenset((s,) + w for s, c in children for w in cache[c])
            stack.pop()
        return cache[g]

    # -- metric balls -------------------------------------------------------

    def _extend_layers(self, radius: int, cap: int | None = None) -> None:
        # Every element of layer n+1 is some g * s longer than g in layer n.
        # A layer is appended whole, so a cap overrun leaves no partial layer.
        cap = self.max_ball_elements if cap is None else cap
        count = sum(len(layer) for layer in self._layers)
        while len(self._layers) <= radius:
            last = self._layers[-1]
            nxt = []
            fresh: set[GroupElement] = set()
            for g in last:
                for s in range(self.rank):
                    h = self.right_mul(g, s)
                    if h.length > g.length and h not in fresh:
                        fresh.add(h)
                        nxt.append(h)
                        count += 1
                        if count > cap:
                            raise ResourceLimitError(
                                f"ball enumeration exceeded {cap} elements"
                            )
            if not nxt:
                self._layers.append([])
                break
            self._layers.append(nxt)

    def sphere(self, radius: int) -> list[GroupElement]:
        self._extend_layers(radius)
        if radius < len(self._layers):
            return list(self._layers[radius])
        return []

    def ball(self, radius: int) -> list[GroupElement]:
        """All elements of length <= radius, in breadth-first (deterministic) order."""
        self._extend_layers(radius)
        out = []
        for layer in self._layers[: radius + 1]:
            out.extend(layer)
        return out

    # -- small roots and finiteness ------------------------------------------

    def small_roots(self, cap: int = 10_000) -> tuple:
        """The small roots, positive, in the order their closure finds them.

        The closure starts from the simple roots.  From a small root beta and
        a generator s, the root s(beta) is small iff -2 < 2B(alpha_s, beta) < 2;
        outside that band the two walls are disjoint, and at 0 s fixes beta.
        Every Coxeter group has finitely many small roots (Brink-Howlett).
        """
        in_band = self.ctx.in_band
        found = list(self.identity.matrix)
        seen = set(found)
        for beta in found:  # grows as the closure finds roots
            for s in range(self.rank):
                t = self.gram2_row_dot(s, beta)
                if not any(t) or not in_band(t):
                    continue
                vec = self.reflect(s, beta)
                if self.root_sign(vec) < 0:
                    raise ArithmeticError("reflected small root must stay positive")
                if vec not in seen:
                    seen.add(vec)
                    found.append(vec)
                    if len(found) > cap:
                        raise ResourceLimitError(
                            f"small-root closure exceeded {cap} walls"
                        )
        return tuple(found)

    def is_finite(self) -> bool:
        """Whether the group is finite: no small root beta other than alpha_s
        has |2B(alpha_s, beta)| >= 2, for any generator s.

        If W is finite, B is positive definite, so |B| < 1 on any two roots
        that are not parallel.  Otherwise every s maps the small roots to
        small roots, save s(alpha_s) = -alpha_s, so they and their negatives
        form a W-stable set holding the simple roots: Phi, and with it W, is
        finite.
        """
        in_band = self.ctx.in_band
        simple = self.identity.matrix
        return all(
            beta == simple[s] or in_band(self.gram2_row_dot(s, beta))
            for beta in self.small_roots()
            for s in range(self.rank)
        )

    def __repr__(self):
        return f"CoxeterSystem({'/'.join(self.cox.generators)}, rank={self.rank})"
