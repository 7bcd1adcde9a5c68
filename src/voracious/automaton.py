"""Finite state automaton accepting the voracious language.

States are finite sets of small-root walls, held as wall masks (see
walls.py): the state reached after reading a language word of g is
g^{-1} W(g), the frontier of g pulled back to the base chamber.  Transitions
append one projection block, a pivot: an element whose voracious projection
is the identity.  Each pivot q has two wall masks: target(q), of
q^{-1} W(q), and forbid(q), of Inv(q) and the universe walls with no
separator from chamber q.  An edge (S, q) exists iff S & forbid(q) == 0,
and it enters target(q).  So the empty start state takes every pivot, and
the states are it and the pivots' targets.  q^{-1} W(q) is the
Brink-Howlett state of q, the small walls of Inv(q^{-1}), which the
geometry keeps beside q's frontier walls, stepped along a word by the
small-root steps (WallGeometry.frontier_pairs), so target(q) is read off
q's frontier pairs, with no matrix product (see _pivot_rules).  The
pivots fix the automaton: VoraciousAutomaton is built over them, which
must be prefix-closed, as every pivot set is (see pivots), and derives
their masks, the prefix graph, the states and the edges in one scan.
`states` holds each state as the sorted universe indices of its walls.

An edge's labels are the reduced words of its pivot, derived only to write
DOT.  The universe is the group's small roots.  A JSON file holds the group,
the universe as a checked header and the pivots' shortlex words, and nothing
else: the loader builds the automaton over the words and requires every
top-level key of the file to equal what that automaton writes.

Words are run over the pivot prefix graph rather than over the labels: its
nodes are the identity and the pivots, reading a letter s at the node of h
moves to the node of h s, and a block ends at the node of pivot q for each
state that may take q.

Small walls are closed under the moves that keep |B| < 1, starting from the
simple walls; a wall fails to be small exactly when some other wall lies
fully between the identity chamber and it, which yields an independent
brute-force oracle over any ball.  The pivots come out of the breadth-first
step that grows the ball (CoxeterSystem.next_layer), layer by layer in
(length, shortlex) order with their words (WallGeometry.shortlex_search),
and the loader checks a file's words by climbing the weak order
(WallGeometry.shortlex_word).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import zip_longest

from .coxeter import (
    GroupElement,
    Wall,
    Word,
    word_from_string,
    word_to_string,
)
from .walls import WallGeometry

# Only this format is read back: format-1 files may hold a truncated pivot set,
# format-2 files store labels, which are now derived, and format-3 files store
# the states and edges, which the pivots fix.
FORMAT = "voracious-automaton-4"

# Most characters of a file's value, or of the value written in its place,
# that a refusal message shows.
SHOWN_CHARS = 200


def small_roots(geometry: WallGeometry) -> tuple[Wall, ...]:
    """All small-root walls (CoxeterSystem.small_roots), sorted by root as
    output writes it."""
    return tuple(sorted(geometry.system.small_roots(), key=geometry.output_root))


def pivots(geometry: WallGeometry) -> tuple[GroupElement, ...]:
    """All elements of positive length with identity projection.

    In (length, shortlex word) order, with each pivot's shortlex word
    recorded (WallGeometry.shortlex_search).  Pivots are closed under
    prefixes: if p(g) = id and g' <= g in the prefix order, then
    p(g) <= g' <= g and projection monotonicity (suite check 3) give
    p(g') <= p(g) = id.  So every pivot of length n + 1 is a pivot of length
    n times an ascent, and a breadth-first search that extends only pivots
    finds all of them.  The search ends at the first length with no pivot: a
    pivot is its own projection block, and block lengths are bounded by the
    constant C, so no pivot is longer than C.  The elements examined count
    against the system's max_ball_elements.
    """
    identity = geometry.system.identity
    return geometry.shortlex_search(
        lambda h: geometry.voracious_projection(h) is identity
    )


@dataclass(frozen=True)
class Edge:
    source: int
    target: int
    pivot_word: Word


class VoraciousAutomaton:
    """Automaton over small-wall states; accepts exactly the language words.

    Built over a universe of walls and a prefix-closed set of pivots in
    (length, shortlex) order; ValueError is raised for pivots that are not
    prefix-closed.  One scan of the pivots (_pivot_rules) gives each pivot's
    target state index and forbid mask, and `children`, the pivot prefix
    graph; the state masks, sorted by (size, universe indices), and the
    edges follow.  `states` holds each state's universe indices."""

    def __init__(
        self,
        geometry: WallGeometry,
        universe: tuple[Wall, ...],
        pivots: tuple[GroupElement, ...],
    ):
        self.geometry = geometry
        self.generators = geometry.system.cox.generators
        self.universe = universe
        self.start = 0
        self.pivots = pivots
        target_masks, forbid, self.children = _pivot_rules(
            geometry, universe, pivots
        )
        indices = {m: _indices_of(universe, m) for m in {0, *target_masks}}
        self._masks = sorted(indices, key=lambda m: (m.bit_count(), indices[m]))
        self._state_of = {m: i for i, m in enumerate(self._masks)}
        self.states = tuple(indices[m] for m in self._masks)
        self.targets = tuple(self._state_of[m] for m in target_masks)
        self.forbid = tuple(forbid)
        self._labels: dict[Word, tuple[Word, ...]] = {}

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """An edge for each state and each pivot it may take, by source, then
        by pivot in (length, shortlex) order."""
        words = self._pivot_words()
        return tuple(
            Edge(source, target, word)
            for source, mask in enumerate(self._masks)
            for target, word, forbid in zip(self.targets, words, self.forbid)
            if not mask & forbid
        )

    # -- running the machine -------------------------------------------------

    def labels(self, pivot_word: Word) -> tuple[Word, ...]:
        """The labels of every edge carrying a pivot: its sorted reduced words."""
        got = self._labels.get(pivot_word)
        if got is None:
            sys = self.geometry.system
            g = sys.element_of_word(pivot_word)
            got = self._labels[pivot_word] = tuple(sorted(sys.reduced_words(g)))
        return got

    def run_pairs(
        self, word: Word, pairs: set[tuple[int, int]] | None = None
    ) -> set[tuple[int, int]]:
        """The (state, node) pairs of the pivot prefix graph reached by reading
        the word from `pairs`, by default from the start state at node 0.

        A pair at node 0 has read whole labels up to a state, and a pair
        elsewhere is partway through the label of a further edge, and closes
        it at node n of pivot n - 1 if its state may take that pivot.  So
        reading a word one letter at a time, each from the pairs of the
        last, gives its pairs.
        """
        children, masks = self.children, self._masks
        targets, forbid = self.targets, self.forbid
        rank = len(self.generators)
        current = {(self.start, 0)} if pairs is None else pairs
        for letter in word:
            if not 0 <= letter < rank:
                return set()
            nxt = set()
            for state, node in current:
                child = children[node][letter]
                if not child:
                    continue
                nxt.add((state, child))
                if not masks[state] & forbid[child - 1]:
                    nxt.add((targets[child - 1], 0))
            if not nxt:
                return nxt
            current = nxt
        return current

    def accepts(self, word: Word) -> bool:
        """True iff some run of the word ends at node 0 (run_pairs)."""
        pairs = self.run_pairs(word)
        return bool(pairs) and any(not node for _, node in pairs)

    def state_of_mask(self, mask: int) -> int | None:
        """Index of the state with this wall mask, or None."""
        return self._state_of.get(mask)

    def __eq__(self, other):
        """Equal iff built over the same universe roots and the same pivot
        words, which fix the states and edges."""
        if not isinstance(other, VoraciousAutomaton):
            return NotImplemented
        return (
            [w.root for w in self.universe] == [w.root for w in other.universe]
            and self._pivot_words() == other._pivot_words()
        )

    __hash__ = None

    # -- serialization -------------------------------------------------------

    def _wall_str(self, wall: Wall) -> str:
        return "(" + ", ".join(self.geometry.root_strings(wall)) + ")"

    def _pivot_words(self) -> list[Word]:
        return list(map(self.geometry.shortlex_word, self.pivots))

    def to_json_dict(self) -> dict:
        gens = self.generators
        return {
            "format": FORMAT,
            "generators": list(gens),
            "m": [list(row) for row in self.geometry.system.cox.orders],
            "cos_denominator": self.geometry.system.cox.field_modulus(),
            "universe": _universe_json(self.geometry, self.universe),
            "pivots": [word_to_string(w, gens) for w in self._pivot_words()],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    def to_dot(self) -> str:
        lines = [
            "digraph voracious {",
            "  rankdir=LR;",
            "  node [shape=circle];",
            f"  qstart [shape=point]; qstart -> q{self.start};",
        ]
        for i, st in enumerate(self.states):
            walls = ", ".join(self._wall_str(self.universe[j]) for j in st)
            label = "{" + walls + "}"
            lines.append(f'  q{i} [label="{label}"];')
        for e in self.edges:
            label = ", ".join(
                word_to_string(w, self.generators) for w in self.labels(e.pivot_word)
            )
            lines.append(f'  q{e.source} -> q{e.target} [label="{label}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def _universe_json(geometry: WallGeometry, universe) -> list:
    """Roots as JSON, as WallGeometry.output_root writes them.  A coordinate
    is an integer polynomial in y = 2c, with c = cos(pi/M): an integer is
    written as a string, any other as the strings of its coefficients over
    powers of c (b_j = a_j 2^j)."""
    return [
        [
            [str(a << j) for j, a in enumerate(x)] if any(x[1:]) else str(x[0])
            for x in geometry.output_root(w)
        ]
        for w in universe
    ]


def from_json_dict(data: dict, geometry: WallGeometry) -> VoraciousAutomaton:
    """The automaton of a file's pivot words, over an existing geometry.

    The group must match, and each pivot word must be the shortlex word of a
    pivot.  The automaton is built over the distinct words, which must be
    prefix-closed (see _pivot_rules), and the file must hold exactly the
    keys it writes, with the values it writes (see _require_written), so
    nothing else in the file is read."""
    if not isinstance(data, dict):
        raise ValueError("automaton file must hold a JSON object")
    if data.get("format") != FORMAT:
        raise ValueError(
            f"automaton file format {data.get('format')!r} is not {FORMAT!r}; "
            "rebuild it"
        )
    sys = geometry.system
    gens = sys.cox.generators
    if data.get("generators") != list(gens) or data.get("m") != [
        list(r) for r in sys.cox.orders
    ]:
        raise ValueError("automaton file belongs to a different group")
    texts = data.get("pivots")
    if not isinstance(texts, list) or not all(isinstance(t, str) for t in texts):
        raise ValueError("automaton file needs a list of strings under 'pivots'")

    elements: dict[Word, GroupElement] = {}
    for word in dict.fromkeys(word_from_string(t, gens) for t in texts):
        g = sys.element_of_word(word)
        if not word or g.length != len(word):
            problem = "is empty or not reduced"
        elif geometry.shortlex_word(g) != word:
            problem = "is not the shortlex word of its element"
        elif geometry.voracious_projection(g) is not sys.identity:
            problem = "is not a pivot: its projection is not the identity"
        else:
            elements[word] = g
            continue
        raise ValueError(f"pivot word {word_to_string(word, gens)!r} {problem}")
    order = sorted(elements, key=lambda w: (len(w), w))
    aut = VoraciousAutomaton(
        geometry, small_roots(geometry), tuple(elements[w] for w in order)
    )
    _require_written(data, aut.to_json_dict())
    return aut


def _require_written(data: dict, written: dict) -> None:
    """Refuse a file with a key that `written` lacks, or whose value under a
    key of `written` differs, naming the key, and for two lists the first
    differing entry.  A missing key or entry is null.

    Values are compared as JSON text, not by ==, so that an entry true or
    1.0 is not read as the integer 1.  The message shows each value's text
    cut to SHOWN_CHARS characters, so one huge entry cannot flood it."""
    text = partial(json.dumps, sort_keys=True)
    extra = next((key for key in data if key not in written), None)
    if extra is not None:
        raise ValueError(f"automaton file has an unknown key {extra!r}")
    for key, want in written.items():
        got = data.get(key)
        if text(got) == text(want):
            continue
        if isinstance(got, list) and isinstance(want, list):
            i, got, want = next(
                (i, a, b)
                for i, (a, b) in enumerate(zip_longest(got, want))
                if text(a) != text(b)
            )
            key = f"{key} entry {i}"
        raise ValueError(
            f"{key} is {_shown(text(got))}, but the automaton of the file's "
            f"pivots writes {_shown(text(want))}"
        )


def _shown(text: str) -> str:
    """A value's JSON text as a refusal message shows it: at most
    SHOWN_CHARS characters, then an ellipsis if any were cut."""
    if len(text) <= SHOWN_CHARS:
        return text
    return text[:SHOWN_CHARS] + "…"


def _indices_of(universe, mask: int) -> tuple[int, ...]:
    """The universe indices of the walls in a mask, ascending."""
    return tuple(i for i, wall in enumerate(universe) if mask & wall.bit)


def _pivot_rules(geometry: WallGeometry, universe, pivot_list):
    """One scan of pivot_list, in (length, shortlex) order: the two wall
    masks of each pivot q = pivot_list[i], as plain ints, and the pivot
    prefix graph.

    Returns (targets, forbid, children).  Node 0 of the graph is the
    identity and node i + 1 is q, which must not be the identity.  For each
    right descent s of q, q s must be the identity or an earlier pivot, or
    ValueError is raised, naming both: the pivots are not prefix-closed.
    children[node of q s][s] is the node of q, and every other entry is 0
    (the identity is no node's child).  A prefix of a reduced word is
    reduced, so the paths from node 0 to the node of q spell the reduced
    words of q, which are the labels of q's edges.

    targets[i] is the mask of q^{-1} W(q); every edge with pivot q enters
    it.  That set is the Brink-Howlett state D(q) of q, the small walls of
    Inv(q^{-1}), so the universe must be the small roots.  It is read as
    the betas of q's frontier pairs (WallGeometry.frontier_pairs), which
    the pivot search and the loader have already memoised.

    forbid[i] is Inv(q), ORed with the bit of each universe wall V outside
    Inv(q) that admits no separator from chamber q.  So S & forbid[i] == 0
    iff no wall of state S is an inversion wall of q and every wall of S
    admits a separator from q.  Any such separator also separates q from
    every chamber incident to V, so searching the walls between q and one of
    them (WallGeometry.has_separator) is complete.
    """
    sys = geometry.system
    node = {sys.identity: 0}
    children = [[0] * sys.rank]
    targets = []
    forbid = []
    for q in pivot_list:
        n = node[q] = len(children)
        children.append([0] * sys.rank)
        below = [(s, node.get(sys.right_mul(q, s))) for s in sys.right_descents(q)]
        if not below:
            raise ValueError("the identity is not a pivot")
        for s, m in below:
            if m is None:
                word, prefix = (
                    word_to_string(geometry.shortlex_word(g), sys.cox.generators)
                    for g in (q, sys.right_mul(q, s))
                )
                raise ValueError(
                    f"pivots are not prefix-closed: pivot {word!r} has the "
                    f"prefix {prefix!r}, which is neither the identity nor an "
                    "earlier pivot"
                )
            children[m][s] = n
        targets.append(sum(beta.bit for beta in geometry.frontier_pairs(q)[::2]))
        inv = geometry.inversion_bits(q)
        unseparated = 0
        for wall in universe:
            if not inv & wall.bit and not geometry.has_separator(q, wall):
                unseparated |= wall.bit
        forbid.append(inv | unseparated)
    return targets, forbid, children


def build_automaton(geometry: WallGeometry) -> VoraciousAutomaton:
    """Construct the automaton from scratch for one group: over its small
    roots and every pivot."""
    return VoraciousAutomaton(geometry, small_roots(geometry), pivots(geometry))
