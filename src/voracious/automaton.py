"""Finite state automaton accepting the voracious language.

States are finite sets of small-root walls: the state reached after reading
a language word of g is g^{-1} W(g), the frontier of g pulled back to the
base chamber.  Transitions append one projection block, a pivot: an element
whose voracious projection is the identity.  Each pivot q has two wall
masks: target(q), of q^{-1} W(q), and forbid(q), of Inv(q) and the universe
walls with no separator from chamber q.  An edge (S, q) exists iff
mask(S) & forbid(q) == 0, and it enters target(q).  So the empty start
state takes every pivot, and the states are it and the pivots' targets.
The automaton stores its states, pivots, target states and forbid masks,
and derives its edges from them.

An edge's labels are the reduced words of its pivot, derived only to write
DOT.  The universe is the group's small roots, which the JSON loader checks
rather than parses, and the loader requires a file's edges to be exactly
those the masks derive over its states and pivots.

Words are run over the pivot prefix graph rather than over the labels: its
nodes are the pivots and their prefixes in the weak order, reading a letter
s at the node of h moves to the node of h s, and a block ends at the node
of pivot q for each state that may take q.

Small walls are closed under the moves that keep |B| < 1, starting from the
simple walls; a wall fails to be small exactly when some other wall lies
fully between the identity chamber and it, which yields an independent
brute-force oracle over any ball.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import zip_longest

from .coxeter import (
    GroupElement,
    ResourceLimitError,
    Word,
    word_from_string,
    word_to_string,
)
from .walls import Wall, WallGeometry

# Only this format is read back: format-1 files may hold a truncated pivot set,
# and format-2 files store labels, which are now derived.
FORMAT = "voracious-automaton-3"


def small_roots(geometry: WallGeometry, cap: int = 10_000) -> tuple[Wall, ...]:
    """All small-root walls, sorted by root as output writes it.

    The walls of CoxeterSystem.small_roots, made in the order the closure
    finds their roots.
    """
    walls = map(geometry.wall_of_root, geometry.system.small_roots(cap))
    return tuple(sorted(walls, key=geometry.output_root))


def pivots(geometry: WallGeometry) -> tuple[GroupElement, ...]:
    """All elements of positive length with identity projection.

    Sorted by (length, shortlex word).  Pivots are closed under prefixes: if
    p(g) = id and g' <= g in the prefix order, then p(g) <= g' <= g and
    projection monotonicity (suite check 3) give p(g') <= p(g) = id.  So every
    pivot of length n + 1 is a pivot of length n times an ascent, and a
    breadth-first search that extends only pivots finds all of them.  The
    search ends at the first length with no pivot: a pivot is its own
    projection block, and block lengths are bounded by the constant C, so no
    pivot is longer than C.  The elements examined count against the
    system's max_ball_elements.
    """
    sys = geometry.system
    seen = {sys.identity}
    layer = [sys.identity]
    out: list[GroupElement] = []
    while layer:
        nxt = []
        for g in layer:
            for s in range(sys.rank):
                h = sys.right_mul(g, s)
                if h.length < g.length or h in seen:
                    continue
                seen.add(h)
                if len(seen) > sys.max_ball_elements:
                    raise ResourceLimitError(
                        f"pivot search exceeded {sys.max_ball_elements} elements"
                    )
                if geometry.voracious_projection(h) is sys.identity:
                    nxt.append(h)
        out.extend(nxt)
        layer = nxt
    out.sort(key=lambda g: (g.length, sys.shortlex_word(g)))
    return tuple(out)


@dataclass(frozen=True)
class Edge:
    source: int
    target: int
    pivot_word: Word


class VoraciousAutomaton:
    """Automaton over small-wall states; accepts exactly the language words.
    Pivots are in (length, shortlex) order, with their target state indices
    and forbid masks (see _pivot_rules)."""

    def __init__(
        self,
        geometry: WallGeometry,
        universe: tuple[Wall, ...],
        states: tuple[tuple[int, ...], ...],
        pivots: tuple[GroupElement, ...],
        targets: tuple[int, ...],
        forbid: tuple[int, ...],
    ):
        self.geometry = geometry
        self.generators = geometry.system.cox.generators
        self.universe = universe
        self.states = states
        self.start = 0
        self.pivots = pivots
        self.targets = targets
        self.forbid = forbid
        if not states or states[0] != ():
            raise ValueError("state 0 must be the empty frontier")
        self._universe_index = {w: i for i, w in enumerate(universe)}
        self._state_index = {st: i for i, st in enumerate(states)}
        self._masks = [sum(universe[v].bit for v in st) for st in states]
        self._labels: dict[Word, tuple[Word, ...]] = {}

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """An edge for each state and each pivot it may take, by source, then
        by pivot in (length, shortlex) order."""
        words = list(map(self.geometry.system.shortlex_word, self.pivots))
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

    @cached_property
    def _prefix_graph(self) -> tuple[list[list[int]], list[int]]:
        """The pivot prefix graph, built on first use: (children, pivot_at).

        Node 0 is the identity and node i + 1 is pivot i.  The other nodes
        are the elements below a pivot in the weak order, found by stepping
        down right descents; pivots are prefix-closed, so a built automaton
        has none, but a loaded file may lack the edges of a prefix.
        children[n][s] is the node of h s, for h the element of node n, when
        h s is longer than h and is a node, and 0 otherwise (the identity is
        no node's child).  pivot_at[n] is the index of h among the pivots,
        or -1.

        A prefix of a reduced word is reduced, so it is fixed by its element:
        the paths from node 0 to the node of q spell the reduced words of q,
        which are the labels of q's edges.
        """
        sys = self.geometry.system
        elements = [sys.identity, *self.pivots]
        index = {h: n for n, h in enumerate(elements)}
        children = [[0] * sys.rank for _ in elements]
        pivot_at = [-1, *range(len(self.pivots))]
        for n, h in enumerate(elements):
            for s in sys.right_descents(h):
                below = sys.right_mul(h, s)
                m = index.get(below)
                if m is None:
                    m = index[below] = len(elements)
                    elements.append(below)
                    children.append([0] * sys.rank)
                    pivot_at.append(-1)
                children[m][s] = n
        return children, pivot_at

    def run_states(self, word: Word) -> frozenset[int]:
        """States reachable by splitting the word into consecutive edge labels.

        Walks (state, node) pairs of the pivot prefix graph one letter at a
        time: a pair at node 0 has read whole labels up to a state, and a
        pair elsewhere is partway through the label of a further edge, and
        closes it at the node of a pivot its state may take.
        """
        children, pivot_at = self._prefix_graph
        masks, targets, forbid = self._masks, self.targets, self.forbid
        rank = len(self.generators)
        current = {(self.start, 0)}
        for letter in word:
            if not 0 <= letter < rank:
                return frozenset()
            nxt = set()
            for state, node in current:
                child = children[node][letter]
                if not child:
                    continue
                nxt.add((state, child))
                q = pivot_at[child]
                if q >= 0 and not masks[state] & forbid[q]:
                    nxt.add((targets[q], 0))
            if not nxt:
                return frozenset()
            current = nxt
        return frozenset(state for state, node in current if node == 0)

    def accepts(self, word: Word) -> bool:
        return bool(self.run_states(word))

    def state_of_walls(self, walls) -> int | None:
        """Index of the state matching a set of walls, or None."""
        try:
            key = tuple(sorted(self._universe_index[w] for w in walls))
        except KeyError:
            return None
        return self._state_index.get(key)

    def __eq__(self, other):
        if not isinstance(other, VoraciousAutomaton):
            return NotImplemented
        return (
            [w.root for w in self.universe] == [w.root for w in other.universe]
            and self.states == other.states
            and self.edges == other.edges
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
            "states": [list(st) for st in self.states],
            "start": self.start,
            "edges": [
                {
                    "from": e.source,
                    "to": e.target,
                    "pivot_word": word_to_string(e.pivot_word, gens),
                }
                for e in self.edges
            ],
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
    """Rebuild an automaton over an existing geometry; group data must match,
    and the universe must be the group's small roots as `to_json_dict` writes
    them.  Only the states and the pivot edges are read, and they must be
    exactly the states and edges of an automaton over the file's pivots (see
    _check_edges)."""
    if not isinstance(data, dict):
        raise ValueError("automaton file must hold a JSON object")
    if data.get("format") != FORMAT:
        raise ValueError(
            f"automaton file format {data.get('format')!r} is not {FORMAT!r}; "
            "rebuild it"
        )
    for key in ("generators", "m", "universe", "states", "edges"):
        if not isinstance(data.get(key), list):
            raise ValueError(f"automaton file needs a list under {key!r}")
    sys = geometry.system
    gens = sys.cox.generators
    if list(gens) != data["generators"] or [
        list(r) for r in sys.cox.orders
    ] != data["m"]:
        raise ValueError("automaton file belongs to a different group")

    universe = small_roots(geometry)
    got, want = data["universe"], _universe_json(geometry, universe)
    if got != want:
        i, entry, root = next(
            (i, a, b) for i, (a, b) in enumerate(zip_longest(got, want)) if a != b
        )
        raise ValueError(
            f"universe entry {i} is {json.dumps(entry)}, but small root {i} of "
            f"the group is {json.dumps(root)}"
        )

    n = len(universe)
    states = []
    for st in data["states"]:
        if not isinstance(st, list) or any(
            type(i) is not int or not lo < i < n for lo, i in zip([-1] + st, st)
        ):
            raise ValueError(
                f"state {st!r} is not a strictly increasing list of universe "
                f"indices 0..{n - 1}"
            )
        states.append(tuple(st))

    words: dict[str, Word] = {}
    edges = []
    leaving: set[tuple[int, Word]] = set()
    for e in data["edges"]:
        if not (
            isinstance(e, dict)
            and type(e.get("from")) is type(e.get("to")) is int
            and isinstance(e.get("pivot_word"), str)
        ):
            raise ValueError(f"edge {e!r} needs int 'from', 'to' and str 'pivot_word'")
        text = e["pivot_word"]
        word = words.get(text)
        if word is None:
            word = words[text] = word_from_string(text, gens)
        edge = Edge(e["from"], e["to"], word)
        if not (0 <= edge.source < len(states) and 0 <= edge.target < len(states)):
            raise ValueError(
                f"edge {edge.source} -> {edge.target} names a state outside "
                f"0..{len(states) - 1}"
            )
        # An edge is fixed by its source and pivot.
        if (edge.source, word) in leaving:
            raise ValueError(f"two edges leave state {edge.source} with pivot {word}")
        leaving.add((edge.source, word))
        edges.append(edge)
    return _check_edges(geometry, universe, tuple(states), edges)


def _walls_of(universe, mask: int) -> tuple[int, ...]:
    """The state of a wall mask: the universe indices of its walls."""
    return tuple(i for i, wall in enumerate(universe) if mask & wall.bit)


def _pivot_rules(geometry: WallGeometry, universe, pivot_list):
    """The two wall masks of each pivot q = pivot_list[i], as plain ints.

    Returns (targets, forbid).  targets[i] is the mask of q^{-1} W(q), the
    frontier of q pulled back through the stored inverse of q; every edge
    with pivot q enters it.  forbid[i] is Inv(q), ORed with the bit of each
    universe wall V outside Inv(q) that admits no separator from chamber q.
    So mask(S) & forbid[i] == 0 iff no wall of state S is an inversion wall
    of q and every wall of S admits a separator from q.  Any such separator
    also separates q from every chamber incident to V, so searching the walls
    between q and one of them (WallGeometry.has_separator) is complete.
    """
    universe_mask = sum(wall.bit for wall in universe)
    targets, forbid = [], []
    for q in pivot_list:
        back = 0
        for wall in geometry.pull_back(q, geometry.frontier_set(q)):
            back |= wall.bit
        if back & ~universe_mask:
            raise RuntimeError("pulled-back frontier wall is not a small root")
        inv = geometry.inversion_bits(q)
        unseparated = 0
        for wall in universe:
            if not inv & wall.bit and not geometry.has_separator(q, wall):
                unseparated |= wall.bit
        targets.append(back)
        forbid.append(inv | unseparated)
    return targets, forbid


def _check_edges(
    geometry: WallGeometry, universe, states, edges: list[Edge]
) -> VoraciousAutomaton:
    """The automaton of a file's states and edges, if they are exactly the
    edges it derives from the file's pivots.

    Each pivot word must be reduced and the shortlex word of an element whose
    projection is the identity.  Each edge (S, q) must enter target(q), and
    mask(S) & forbid(q) must be 0.  No two edges share a source and a pivot,
    so with as many edges as the automaton derives, the sets are equal;
    otherwise the first derived edge missing from the file is named.
    """
    sys = geometry.system
    gens = sys.cox.generators
    elements: dict[Word, GroupElement] = {}
    for word in dict.fromkeys(e.pivot_word for e in edges):
        g = sys.element_of_word(word)
        if not word or g.length != len(word):
            problem = "is empty or not reduced"
        elif sys.shortlex_word(g) != word:
            problem = "is not the shortlex word of its element"
        elif geometry.voracious_projection(g) is not sys.identity:
            problem = "is not a pivot: its projection is not the identity"
        else:
            elements[word] = g
            continue
        raise ValueError(f"pivot word {word_to_string(word, gens)!r} {problem}")
    words = sorted(elements, key=lambda w: (len(w), w))
    pivot_list = tuple(elements[w] for w in words)
    masks, forbid = _pivot_rules(geometry, universe, pivot_list)
    target_walls = [_walls_of(universe, m) for m in masks]
    state_index = {st: i for i, st in enumerate(states)}
    targets = tuple(state_index.get(t, -1) for t in target_walls)
    aut = VoraciousAutomaton(
        geometry, universe, states, pivot_list, targets, tuple(forbid)
    )

    index = {word: i for i, word in enumerate(words)}
    for e in edges:
        pi = index[e.pivot_word]
        if e.target != targets[pi]:
            problem = (
                "must enter the pivot's pulled-back frontier, the state of "
                f"universe walls {list(target_walls[pi])}"
            )
        elif aut._masks[e.source] & forbid[pi]:
            problem = "leaves a state that may not take the pivot"
        else:
            continue
        text = word_to_string(e.pivot_word, gens)
        raise ValueError(
            f"edge {e.source} -> {e.target} with pivot {text!r} {problem}"
        )
    if len(edges) != len(aut.edges):
        have = {(e.source, e.pivot_word) for e in edges}
        e = next(e for e in aut.edges if (e.source, e.pivot_word) not in have)
        text = word_to_string(e.pivot_word, gens)
        raise ValueError(
            f"no edge leaves state {e.source} with pivot {text!r}, which the "
            "state may take"
        )
    return aut


def build_automaton(geometry: WallGeometry) -> VoraciousAutomaton:
    """Construct the automaton from scratch for one group: its states are
    the empty start state and the pivots' targets, sorted by (size, walls)."""
    universe = small_roots(geometry)
    pivot_list = pivots(geometry)
    masks, forbid = _pivot_rules(geometry, universe, pivot_list)
    target_walls = [_walls_of(universe, m) for m in masks]
    states = tuple(sorted({(), *target_walls}, key=lambda st: (len(st), st)))
    index = {st: i for i, st in enumerate(states)}
    targets = tuple(index[t] for t in target_walls)
    return VoraciousAutomaton(
        geometry, universe, states, pivot_list, targets, tuple(forbid)
    )
