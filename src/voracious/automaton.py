"""Finite state automaton accepting the voracious language.

States are finite sets of small-root walls, held as wall masks (see
walls.py): the state reached after reading a language word of g is
g^{-1} W(g), the frontier of g pulled back to the base chamber.  Transitions
append one projection block, a pivot: an element whose voracious projection
is the identity.  Each pivot q has two wall masks: target(q), of
q^{-1} W(q), and forbid(q), of the universe walls in Inv(q) or with no
separator from chamber q.  An edge (S, q) exists iff S & forbid(q) == 0,
and it enters target(q).  So the empty start state takes every pivot, and
the states are it and the pivots' targets.  q^{-1} W(q) is the
Brink-Howlett state of q, the small walls of Inv(q^{-1}), which the
geometry keeps beside q's frontier walls (WallGeometry.frontier_pairs).
The pivots fix the automaton, and so the group does: one pass over their
shortlex tree, which is prefix-closed, gives every pivot, its word, its
masks and the prefix graph (see _PivotTree); the states and the edges
follow.  `states` holds each state as the sorted universe indices of its
walls.

An edge's labels are the reduced words of its pivot, derived only to write
DOT.  The universe is the group's small roots.  A JSON file holds the group,
the universe as a checked header and the pivots' shortlex words, and nothing
else: the loader builds the group's automaton and requires every top-level
key of the file to equal what that automaton writes.

Words are run over the pivot prefix graph rather than over the labels: its
nodes are the identity and the pivots, reading a letter s at the node of h
moves to the node of h s, and a block ends at the node of pivot q for each
state that may take q.

Small walls are closed under the moves that keep |B| < 1, starting from the
simple walls; a wall fails to be small exactly when some other wall lies
fully between the identity chamber and it, which yields an independent
brute-force oracle over any ball.  The pass that finds the pivots steps
small-root states along each pivot's word, so it projects nothing and
searches no separator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import zip_longest

from .coxeter import (
    GroupElement,
    ResourceLimitError,
    Wall,
    Word,
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


@dataclass(frozen=True)
class Edge:
    source: int
    target: int
    pivot_word: Word


class VoraciousAutomaton:
    """Automaton over small-wall states; accepts exactly the language words.

    Built over the group's universe of walls, its small roots, and every
    pivot.  One pass over the pivots' shortlex tree (_PivotTree) gives each
    pivot, its word, its target state index and forbid mask, and
    `children`, the pivot prefix graph; the state masks, sorted by (size,
    universe indices), and the edges follow.  `states` holds each state's
    universe indices."""

    def __init__(self, geometry: WallGeometry):
        self.geometry = geometry
        self.generators = geometry.system.cox.generators
        self.universe = universe = small_roots(geometry)
        self.start = 0
        tree = _PivotTree(geometry, universe)
        tree.explore()
        self.pivots = tuple(tree.pivots)
        self.words = tuple(tree.words)
        self.children = tree.children
        target_masks = tree.targets
        indices = {0: (), **dict(zip(target_masks, tree.target_indices))}
        self._masks = sorted(indices, key=lambda m: (m.bit_count(), indices[m]))
        self._state_of = {m: i for i, m in enumerate(self._masks)}
        self.states = tuple(indices[m] for m in self._masks)
        self.targets = tuple(self._state_of[m] for m in target_masks)
        self.forbid = tuple(tree.forbid)
        self._labels: dict[Word, tuple[Word, ...]] = {}

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """An edge for each state and each pivot it may take, by source, then
        by pivot in (length, shortlex) order."""
        return tuple(
            Edge(source, target, word)
            for source, mask in enumerate(self._masks)
            for target, word, forbid in zip(self.targets, self.words, self.forbid)
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
            and self.words == other.words
        )

    __hash__ = None

    # -- serialization -------------------------------------------------------

    def _wall_str(self, wall: Wall) -> str:
        return "(" + ", ".join(self.geometry.root_strings(wall)) + ")"

    def to_json_dict(self) -> dict:
        gens = self.generators
        return {
            "format": FORMAT,
            "generators": list(gens),
            "m": [list(row) for row in self.geometry.system.cox.orders],
            "cos_denominator": self.geometry.system.cox.field_modulus(),
            "universe": _universe_json(self.geometry, self.universe),
            "pivots": [word_to_string(w, gens) for w in self.words],
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
    """The group's automaton, over an existing geometry, if the file is
    what it writes.

    A JSON object of another format or group is refused before any group
    work.  Then the group's automaton is built (build_automaton), and the
    file must hold exactly the keys it writes, with the values it writes
    (see _require_written): a file with a pivot word missing, added or
    changed is refused, naming the first differing entry.  So nothing in
    the file but its format and group is read."""
    if not isinstance(data, dict):
        raise ValueError("automaton file must hold a JSON object")
    if data.get("format") != FORMAT:
        raise ValueError(
            f"automaton file format {data.get('format')!r} is not {FORMAT!r}; "
            "rebuild it"
        )
    sys = geometry.system
    if data.get("generators") != list(sys.cox.generators) or data.get("m") != [
        list(r) for r in sys.cox.orders
    ]:
        raise ValueError("automaton file belongs to a different group")
    aut = build_automaton(geometry)
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
            f"{key} is {_shown(text(got))}, but the group's automaton writes "
            f"{_shown(text(want))}"
        )


def _shown(text: str) -> str:
    """A value's JSON text as a refusal message shows it: at most
    SHOWN_CHARS characters, then an ellipsis if any were cut."""
    if len(text) <= SHOWN_CHARS:
        return text
    return text[:SHOWN_CHARS] + "…"


class _PivotTree:
    """One breadth-first pass over the shortlex tree of the pivots.

    explore() finds every pivot.  It leaves the pivots in (length,
    shortlex) order with their shortlex words, the two wall masks of each
    pivot as plain ints, targets and forbid, and the pivot prefix graph,
    children.

    A node of the tree is a pivot h with its word, stepped from its parent
    by the small-root steps (CoxeterSystem.small_steps), with no separator
    search, no inversion walk and no projection:
      * its frontier pairs (beta, W) (WallGeometry.frontier_pairs);
      * its open pairs (gamma, V): V a universe wall outside Inv(h) that no
        wall separates from chamber h, and gamma = h^{-1} V.  A wall
        separating V from chamber h separates h^{-1} V from the identity
        chamber, so these V are the universe walls outside Inv(h) whose
        pull-back is small.  The identity has (alpha, alpha) for every
        universe wall.  The step by s keeps (s(gamma), V) when s(gamma) is
        small and drops the pair otherwise: a separator from h still
        separates V from h s unless it is the wall H the step crosses, and
        H, outside Inv(h), would then separate V from the identity chamber,
        so V would not be small;
      * the universe part of Inv(h), which gains H if H is small;
      * the shortlex state X(h) (Brink and Howlett, Math. Ann. 296, 1993;
        Casselman, "Computation in Coxeter groups I", 2002): the word of h
        followed by s is the shortlex word of h s iff alpha_s is not in
        X(h), and X(h s) = {alpha_s} + s(X(h)) + {s(alpha_t) : t < s}, cut
        to the small walls.  X(h) holds D(h), so it refuses every descent.
    p(g) is the identity iff every simple wall of Inv(g) is a frontier wall
    of g: the first step of the projection's climb.  For g = h s, H is a
    frontier wall of g, and the other simple walls of Inv(g) are those of
    Inv(h), which for a pivot h are frontier walls of h.  So h s is a pivot
    iff every pair (beta, W) of h with W simple survives the step by s, and
    only pivots are multiplied out.

    targets[i] is the mask of q^{-1} W(q), the betas of the frontier pairs of
    q = pivots[i]: the Brink-Howlett state D(q), so the universe must be the
    small roots.  forbid[i] is the universe part of Inv(q) ORed with the Vs
    of q's open pairs, so S & forbid[i] == 0 iff no wall of state S is an
    inversion wall of q and every wall of S admits a separator from chamber
    q.  Node 0 of the graph is the identity and node i + 1 is q; for each
    right descent s of q, children[node of q s][s] is the node of q, and
    every other entry is 0.  A prefix of a reduced word is reduced, so the
    paths from node 0 to the node of q spell the reduced words of q, the
    labels of its edges.  q s is the identity or an earlier pivot, as the
    pivots are prefix-closed (see explore), and ArithmeticError is raised
    if it is not.  Each pivot's word and frontier pairs go into the
    geometry's memos.  The letters the pass tries, and the identity, count
    against max_ball_elements.
    """

    def __init__(self, geometry: WallGeometry, universe):
        sys = geometry.system
        self.geometry = geometry
        self.system = sys
        self.steps = steps = sys.small_steps()
        self.simple = simple = sys.identity.walls
        self.in_universe = sum(wall.bit for wall in universe)
        # The part of X(h s) that X(h) does not give: alpha_s and the small
        # s(alpha_t) for t < s.
        self.fresh = tuple(
            frozenset([simple[s], *filter(None, map(steps[s].get, simple[:s]))])
            for s in range(sys.rank)
        )
        self.examined = 1
        self.node_of = {sys.identity: 0}
        self.children = [[0] * sys.rank]
        self.pivots: list[GroupElement] = []
        self.words: list[Word] = []
        self.targets: list[int] = []
        # The universe indices of each target's walls, ascending.
        self.target_indices: list[tuple[int, ...]] = []
        self.universe_index = {wall: i for i, wall in enumerate(universe)}
        self.forbid: list[int] = []
        # A node: (element, word, X, the universe part of Inv, the gammas of
        # the open pairs, the bits of their Vs).
        self.root = (
            sys.identity, (), frozenset(), 0, universe, tuple(w.bit for w in universe)
        )

    def explore(self) -> None:
        """Every pivot: layer by layer, each node extended by each letter
        that X allows, in order, so the layers stay in shortlex order.

        Pivots are closed under prefixes: if p(g) = id and g' <= g in the
        prefix order, then p(g) <= g' <= g and projection monotonicity
        (suite check 3) give p(g') <= p(g) = id.  So the shortlex parent of
        a pivot is a pivot, and extending only pivots finds all of them.
        The pass ends at the first length with no pivot: a pivot is its own
        projection block, and block lengths are bounded by the constant C,
        so no pivot is longer than C.
        """
        simple = self.simple
        layer = [self.root]
        while layer:
            grown = []
            for node in layer:
                for s in range(self.system.rank):
                    if simple[s] not in node[2]:
                        self._examine()
                        if self._is_pivot(node[0], s):
                            grown.append(self._add(self._child(node, s)))
            layer = grown

    def _examine(self) -> None:
        self.examined += 1
        cap = self.system.max_ball_elements
        if self.examined > cap:
            raise ResourceLimitError(f"pivot search exceeded max_ball_elements = {cap}")

    def _is_pivot(self, h: GroupElement, s: int) -> bool:
        """For a pivot h and a letter s that X(h) allows: h s is a pivot."""
        step = self.steps[s]
        pairs = self.geometry.frontier_pairs(h)
        rank = self.system.rank
        return all(
            beta in step
            for beta, wall in zip(pairs[::2], pairs[1::2])
            if wall.bit >> rank == 0
        )

    def _child(self, node, s: int):
        """The node of the node's word followed by the letter s."""
        h, word, x, inv, gammas, vbits = node
        step = self.steps[s]
        x = self.fresh[s].union(filter(None, map(step.get, x)))
        kept, kept_bits = [], []
        for gamma, vbit in zip(gammas, vbits):
            image = step.get(gamma)
            if image is not None:
                kept.append(image)
                kept_bits.append(vbit)
        inv |= h.walls[s].bit & self.in_universe
        return self.system.right_mul(h, s), word + (s,), x, inv, kept, kept_bits

    def _add(self, node):
        """The node, recorded as the next pivot: its entries in the prefix
        graph, its masks and the geometry's memos."""
        g, word, _, inv, _, vbits = node
        right_mul = self.system.right_mul
        node_of, children = self.node_of, self.children
        n = node_of[g] = len(children)
        children.append([0] * self.system.rank)
        for s in range(self.system.rank):
            if g.descents >> s & 1:
                below = right_mul(g, s)
                m = node_of.get(below)
                if m is None:
                    gens = self.system.cox.generators
                    raise ArithmeticError(
                        f"pivots are not prefix-closed: pivot "
                        f"{word_to_string(word, gens)!r} steps down its right "
                        f"descent {gens[s]!r} to no pivot"
                    )
                children[m][s] = n
        self.geometry.record_shortlex_word(g, word)
        self.pivots.append(g)
        self.words.append(word)
        betas = self.geometry.frontier_pairs(g)[::2]
        self.targets.append(sum(beta.bit for beta in betas))
        index = self.universe_index
        self.target_indices.append(tuple(sorted(index[beta] for beta in betas)))
        self.forbid.append(inv | sum(vbits))
        return node


def build_automaton(geometry: WallGeometry) -> VoraciousAutomaton:
    """Construct the automaton from scratch for one group: over its small
    roots and every pivot."""
    return VoraciousAutomaton(geometry)
