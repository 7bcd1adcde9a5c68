"""Finite state automaton accepting the voracious language.

States are finite sets of small-root walls: the state reached after reading
a language word of g is g^{-1} W(g), the frontier of g pulled back to the
base chamber.  Transitions append one projection block.  A pivot is an
element whose voracious projection is the identity; blocks of any chain are
pivots, and an edge labelled by the reduced words of pivot w may leave state
A only if no wall of A is an inversion wall of w and every wall of A admits
a separator from chamber w.  The target state w^{-1} W(w) depends on w
alone.

An edge stores only its source, target and pivot word: its labels are
derived from the group, and only to write DOT, and the universe is the
group's small roots, which the JSON loader checks rather than parses.  The
loader also checks each edge by the rules the build applies.

Words are run over the pivot prefix graph rather than over the labels: its
nodes are the pivots and their prefixes in the weak order, and reading a
letter s at the node of h moves to the node of h s.

Small walls are closed under the moves that keep |B| < 1, starting from the
simple walls; a wall fails to be small exactly when some other wall lies
fully between the identity chamber and it, which yields an independent
brute-force oracle over any ball.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
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
    """Automaton over small-wall states; accepts exactly the language words."""

    def __init__(
        self,
        geometry: WallGeometry,
        universe: tuple[Wall, ...],
        states: tuple[tuple[int, ...], ...],
        edges: tuple[Edge, ...],
    ):
        self.geometry = geometry
        self.generators = geometry.system.cox.generators
        self.universe = universe
        self.states = states
        self.start = 0
        self.edges = edges
        if not states or states[0] != ():
            raise ValueError("state 0 must be the empty frontier")
        self._universe_index = {w: i for i, w in enumerate(universe)}
        self._state_index = {st: i for i, st in enumerate(states)}
        # An edge is fixed by its source and pivot.
        leaving: set[tuple[int, Word]] = set()
        for e in edges:
            if not (0 <= e.source < len(states) and 0 <= e.target < len(states)):
                raise ValueError(
                    f"edge {e.source} -> {e.target} names a state outside "
                    f"0..{len(states) - 1}"
                )
            if (e.source, e.pivot_word) in leaving:
                raise ValueError(
                    f"two edges leave state {e.source} with pivot {e.pivot_word}"
                )
            leaving.add((e.source, e.pivot_word))
        self._labels: dict[Word, tuple[Word, ...]] = {}
        self._graph: tuple[list[list[int]], list[dict[int, int]]] | None = None

    # -- running the machine -------------------------------------------------

    def labels(self, pivot_word: Word) -> tuple[Word, ...]:
        """The labels of every edge carrying a pivot: its sorted reduced words."""
        got = self._labels.get(pivot_word)
        if got is None:
            sys = self.geometry.system
            g = sys.element_of_word(pivot_word)
            got = self._labels[pivot_word] = tuple(sorted(sys.reduced_words(g)))
        return got

    def _prefix_graph(self) -> tuple[list[list[int]], list[dict[int, int]]]:
        """The pivot prefix graph, built on first use: (children, ends).

        Node 0 is the identity.  The other nodes are the elements of the
        edges' pivots and every element below them in the weak order, found
        by stepping down right descents; a file may lack the edges of a
        prefix, so the pivots alone would not hold every label prefix.
        children[n][s] is the node of h s, for h the element of node n, when
        h s is longer than h and is a node, and 0 otherwise (the identity is
        no node's child).  ends[n] maps a state to the target of the edge
        leaving it with pivot h.

        A prefix of a reduced word is reduced, so it is fixed by its element:
        the paths from node 0 to the node of w spell the reduced words of w,
        which are the labels of w's edges.
        """
        if self._graph is None:
            sys = self.geometry.system
            index: dict[GroupElement, int] = {}
            elements: list[GroupElement] = []
            children: list[list[int]] = []
            ends: list[dict[int, int]] = []

            def node(h: GroupElement) -> int:
                n = index.get(h)
                if n is None:
                    n = index[h] = len(elements)
                    elements.append(h)
                    children.append([0] * sys.rank)
                    ends.append({})
                return n

            node(sys.identity)
            pivot_nodes: dict[Word, int] = {}
            for e in self.edges:
                n = pivot_nodes.get(e.pivot_word)
                if n is None:
                    n = pivot_nodes[e.pivot_word] = node(
                        sys.element_of_word(e.pivot_word)
                    )
                ends[n][e.source] = e.target
            for n, h in enumerate(elements):
                for s in sys.right_descents(h):
                    children[node(sys.right_mul(h, s))][s] = n
            self._graph = (children, ends)
        return self._graph

    def run_states(self, word: Word) -> frozenset[int]:
        """States reachable by splitting the word into consecutive edge labels.

        Walks (state, node) pairs of the pivot prefix graph one letter at a
        time: a pair at node 0 has read whole labels up to a state, and a
        pair elsewhere is partway through the label of a further edge.
        """
        children, ends = self._prefix_graph()
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
                target = ends[child].get(state)
                if target is not None:
                    nxt.add((target, 0))
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
    them.  Only the states and the pivot edges are read, and every edge must
    be one that build_automaton makes."""
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
        edges.append(Edge(e["from"], e["to"], word))
    aut = VoraciousAutomaton(geometry, universe, tuple(states), tuple(edges))
    _check_edges(aut)
    return aut


def _wall_mask(universe, state) -> int:
    """The union of the bits of a state's walls."""
    mask = 0
    for v in state:
        mask |= universe[v].bit
    return mask


def _pivot_rules(geometry: WallGeometry, universe, pivot_list):
    """Where an edge with each pivot goes, and which states may take it.

    Returns (targets, may_take).  targets[i] is w^{-1} W(w) for the pivot
    w = pivot_list[i], its frontier pulled back to the base chamber, as sorted
    universe indices; it depends on w alone.  may_take(i, state, mask), with
    mask = _wall_mask(universe, state), holds iff no wall of the state is an
    inversion wall of w and every wall V of it admits a separator from
    chamber w.  That test depends on (w, V) only, so it is memoised.  Any
    such separator also separates w from every chamber incident to V, so
    searching the walls between w and one of them is complete.  The frontier
    is pulled back by WallGeometry.pull_back, through the stored inverse of w.
    """
    uindex = {w: i for i, w in enumerate(universe)}
    inv_bits = [geometry.inversion_bits(w) for w in pivot_list]
    targets: list[tuple[int, ...]] = []
    for w in pivot_list:
        back = []
        for wall in geometry.pull_back(w, geometry.frontier_set(w)):
            if wall not in uindex:
                raise RuntimeError("pulled-back frontier wall is not a small root")
            back.append(uindex[wall])
        targets.append(tuple(sorted(back)))
    separated: list[dict[int, bool]] = [dict() for _ in pivot_list]

    def may_take(pi: int, state: tuple[int, ...], mask: int) -> bool:
        if mask & inv_bits[pi]:
            return False
        memo = separated[pi]
        for v in state:
            got = memo.get(v)
            if got is None:
                got = memo[v] = geometry.has_separator(pivot_list[pi], universe[v])
            if not got:
                return False
        return True

    return targets, may_take


def _check_edges(aut: VoraciousAutomaton) -> None:
    """Refuse any edge that build_automaton would not have made.

    Each pivot word must be reduced and the shortlex word of an element whose
    projection is the identity, each edge must enter its pivot's target
    state, and its source state must be allowed to take the pivot.  A missing
    edge is not detected: only a rebuild finds it.
    """
    geometry = aut.geometry
    sys = geometry.system
    words = list(dict.fromkeys(e.pivot_word for e in aut.edges))
    pivot_list = []
    for word in words:
        g = sys.element_of_word(word)
        if not word or g.length != len(word):
            problem = "is empty or not reduced"
        elif sys.shortlex_word(g) != word:
            problem = "is not the shortlex word of its element"
        elif geometry.voracious_projection(g) is not sys.identity:
            problem = "is not a pivot: its projection is not the identity"
        else:
            pivot_list.append(g)
            continue
        text = word_to_string(word, aut.generators)
        raise ValueError(f"pivot word {text!r} {problem}")
    targets, may_take = _pivot_rules(geometry, aut.universe, pivot_list)
    index = {word: i for i, word in enumerate(words)}
    for e in aut.edges:
        pi = index[e.pivot_word]
        source = aut.states[e.source]
        if aut.states[e.target] != targets[pi]:
            problem = (
                "must enter the pivot's pulled-back frontier, the state of "
                f"universe walls {list(targets[pi])}"
            )
        elif not may_take(pi, source, _wall_mask(aut.universe, source)):
            problem = "leaves a state that may not take the pivot"
        else:
            continue
        text = word_to_string(e.pivot_word, aut.generators)
        raise ValueError(
            f"edge {e.source} -> {e.target} with pivot {text!r} {problem}"
        )


def build_automaton(geometry: WallGeometry) -> VoraciousAutomaton:
    """Construct the automaton from scratch for one group."""
    sys = geometry.system
    universe = small_roots(geometry)
    pivot_list = pivots(geometry)
    targets, may_take = _pivot_rules(geometry, universe, pivot_list)

    start: tuple[int, ...] = ()
    known = {start}
    order = [start]
    raw_edges: list[tuple[tuple[int, ...], int, tuple[int, ...]]] = []
    qi = 0
    while qi < len(order):
        a = order[qi]
        qi += 1
        amask = _wall_mask(universe, a)
        for pi in range(len(pivot_list)):
            if not may_take(pi, a, amask):
                continue
            t = targets[pi]
            if t not in known:
                known.add(t)
                order.append(t)
            raw_edges.append((a, pi, t))

    states = tuple(sorted(known, key=lambda st: (len(st), st)))
    sindex = {st: i for i, st in enumerate(states)}
    words = [sys.shortlex_word(w) for w in pivot_list]
    edges = [Edge(sindex[a], sindex[t], words[pi]) for a, pi, t in raw_edges]
    edges.sort(key=lambda e: (e.source, len(e.pivot_word), e.pivot_word, e.target))
    return VoraciousAutomaton(geometry, universe, states, tuple(edges))
