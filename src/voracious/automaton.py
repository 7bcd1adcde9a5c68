"""Finite state automaton accepting the voracious language.

States are finite sets of small-root walls, held as wall masks (see
walls.py): the state reached after reading a language word of g is
g^{-1} W(g), the frontier of g pulled back to the base chamber, which is
the Brink-Howlett state of g.  Transitions append one projection block, a
pivot: an element whose voracious projection is the identity.  Each pivot q
has two wall masks: target(q), of q^{-1} W(q), and forbid(q), of the
universe walls in Inv(q) or with no separator from chamber q.  An edge
(S, q) exists iff S & forbid(q) == 0, and it enters target(q).  So the
empty start state takes every pivot, and the states are it and the pivots'
targets.  The pivots fix the automaton, and so the group does: one pass
over their shortlex tree, which is prefix-closed, steps sets of small roots
on index tables and gives each pivot's word, its masks and the prefix graph
with no group element (see _IndexPass).

The targets are distinct, so state n is node n of the prefix graph: the
start state at the identity for n = 0, else the target of pivot n - 1.  For
a pivot q every descent wall of q^{-1} is small, so q^{-1} is low, and a
low element is fixed by its small inversions (Dyer and Hohlweg, "Small
roots, low elements, and the weak order in Coxeter groups", Adv. Math.
2016), which target(q) holds: the Brink-Howlett state Phi(q^{-1}) & Small.
The build checks it.

The universe is the group's small roots.  A JSON file holds the group, the
universe as a checked header and the pivots' shortlex words, and nothing
else: the loader builds the group's automaton and requires every top-level
key of the file to equal what that automaton writes.

Words are run over the prefix graph: reading s at the node of h moves to
the node of h s, and a block ends at the node of pivot q for each state
that may take q.  An edge's labels, the reduced words of its pivot, are the
paths from node 0 to its node, read off the graph only to write DOT.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import compress, zip_longest

from .coxeter import CoxeterSystem, ResourceLimitError, Wall, Word, word_to_string
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
    pivot.  One pass over the pivots' shortlex tree (_IndexPass) gives each
    pivot's word, its target and forbid masks, and `children`, the pivot
    prefix graph; state n is node n of that graph, and the edges follow."""

    def __init__(self, geometry: WallGeometry):
        self.geometry = geometry
        self.generators = geometry.system.cox.generators
        self.start = 0
        self.universe = small_roots(geometry)
        tree = _IndexPass(geometry.system)
        tree.run()
        self.words = tuple(tree.words)
        self.children = tree.children
        self.forbid = tuple(tree.forbid)
        self._masks = (0, *tree.targets)
        self._state_of = {m: i for i, m in enumerate(self._masks)}
        if len(self._state_of) != len(self._masks):
            raise ArithmeticError("two pivots share a target")

    @cached_property
    def states(self) -> tuple[tuple[int, ...], ...]:
        """Each state's walls as their sorted indices in the universe."""
        index = {wall: i for i, wall in enumerate(self.universe)}.__getitem__
        walls_of = self.geometry.system.walls_of
        return tuple(tuple(sorted(map(index, walls_of(m)))) for m in self._masks)

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """An edge for each state and each pivot it may take, by source, then
        by pivot in (length, shortlex) order; it enters the pivot's node."""
        return tuple(
            Edge(source, target, word)
            for source, mask in enumerate(self._masks)
            for target, (word, forbid) in enumerate(zip(self.words, self.forbid), 1)
            if not mask & forbid
        )

    @cached_property
    def labels(self) -> tuple[tuple[Word, ...], ...]:
        """labels[n]: the sorted paths from node 0 to node n, the reduced
        words of its element, which label every edge into state n.  A node's
        parents are shorter, so numbered before it.  The words made count
        against max_ball_elements."""
        cap = self.geometry.system.max_ball_elements
        paths = [[()]] + [[] for _ in self.words]
        made = 1
        for node, row in enumerate(self.children):
            for s, child in enumerate(row):
                if child:
                    made += len(paths[node])
                    if made > cap:
                        raise ResourceLimitError(f"reduced words exceeded {cap} words")
                    paths[child] += [w + (s,) for w in paths[node]]
        return tuple(tuple(sorted(words)) for words in paths)

    # -- running the machine -------------------------------------------------

    def run_pairs(
        self, word: Word, pairs: set[tuple[int, int]] | None = None
    ) -> set[tuple[int, int]]:
        """The (state, node) pairs of the pivot prefix graph reached by reading
        the word from `pairs`, by default from the start state at node 0.

        A pair at node 0 has read whole labels up to a state, and a pair
        elsewhere is partway through the label of a further edge, and closes
        it at node n, entering state n, if its state may take pivot n - 1.  So
        reading a word one letter at a time, each from the pairs of the
        last, gives its pairs.
        """
        children, masks, forbid = self.children, self._masks, self.forbid
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
                    nxt.add((child, 0))
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
        """States and edges in DOT, each edge labelled by its pivot's reduced
        words.  The labels, bounded by max_ball_elements, are made first, so
        a group past that bound fails before any line is written."""
        gens = self.generators
        labels = [", ".join(word_to_string(w, gens) for w in ws) for ws in self.labels]
        lines = [
            "digraph voracious {",
            "  rankdir=LR;",
            "  node [shape=circle];",
            f"  qstart [shape=point]; qstart -> q{self.start};",
        ]
        for i, st in enumerate(self.states):
            walls = ", ".join(self._wall_str(self.universe[j]) for j in st)
            lines.append(f'  q{i} [label="{{{walls}}}"];')
        for e in self.edges:
            lines.append(f'  q{e.source} -> q{e.target} [label="{labels[e.target]}"];')
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


class _IndexPass:
    """One breadth-first pass over the shortlex tree of the pivots, on
    small-root index tables, with no group element and no field number.

    The small roots are numbered in the order of their closure, so the
    simple roots are 0..k-1, and a set of them is the str of the characters
    of their numbers.  tables[s][i] is the number of s(beta_i) if that root
    is small, else None, so str.translate(tables[s]) steps a set by s and
    drops the roots that leave Small.  A node is a pivot h, or the identity:
    (its number in the prefix graph, its shortlex word, D, SF, X, I, gam).
      * D is the Brink-Howlett state of h, the pull-backs beta = h^{-1} W of
        its frontier walls W (WallGeometry.frontier_pairs): target(h).
        D(h s) = {alpha_s} + s(D(h)), cut to Small (Brink and Howlett,
        Math. Ann. 296, 1993).  SF holds the betas of D whose W is simple.
      * X is the shortlex state (Brink-Howlett; Casselman, "Computation in
        Coxeter groups I", 2002): the word of h followed by s is the
        shortlex word of h s iff alpha_s is not in X, and X(h s) =
        {alpha_s} + s(X(h)) + {s(alpha_t) : t < s}, cut to Small.  X holds
        D, so it refuses every descent.
      * I is the wall mask of Inv(h) & Small.
      * gam holds the open pairs (gamma, V): V a small wall outside Inv(h)
        that no wall separates from chamber h, and gamma = h^{-1} V, small
        too.  gam[V] is the character of gamma, or of n if V is not open.
        A step by s maps gamma to s(gamma), or to n once s(gamma) leaves
        Small: a separator from h still separates V from h s unless it is
        the wall H the step crosses, and H, outside Inv(h), would then
        separate V from the identity chamber, so V would not be small.
    H = h(alpha_s) is incident to chamber h, so it is small iff it is an
    open V with gamma = alpha_s; I then gains it, and it is simple iff
    V < k.  p(g) is the identity iff every simple wall of Inv(g) is a
    frontier wall of g.  For g = h s, H is a frontier wall of g, and the
    other simple walls of Inv(g) are those of Inv(h), for a pivot h
    frontier walls of h.  So h s is a pivot iff the step keeps all of SF.

    targets[i] is the wall mask of D(q), q the pivot of words[i].  forbid[i]
    is I ORed with the walls V of q's open pairs, so S & forbid[i] == 0 iff
    no wall of state S is in Inv(q) and each admits a separator from
    chamber q.  Node 0 of the graph is the identity and node i + 1 is q;
    children[node of q s][s] is the node of q for each right descent s of
    q, and every other entry is 0, so the paths from node 0 to the node of
    q spell the reduced words of q, the labels of its edges.  The letters
    the pass tries, and the identity, count against max_ball_elements.
    """

    def __init__(self, system: CoxeterSystem):
        self.system = system
        self.rank = k = system.rank
        roots = system.small_roots()
        n = len(roots)
        number = dict(zip(roots, range(n)))
        # The steps of a set and of gam, where n stands for a closed pair.
        self.tables, self.gam_tables = [], []
        for step in system.small_steps():
            table = [None] * n
            for beta, image in step.items():
                table[number[beta]] = number[image]
            self.tables.append(table)
            self.gam_tables.append([n if i is None else i for i in table] + [n])
        self.bits = [wall.bit for wall in roots]
        # Translation tables: to 1 for an open pair and 0 for n, and to the
        # simple roots alone.
        self.open = [1] * n + [0]
        self.simple = [*range(k)] + [None] * (n - k)
        self.words, self.targets, self.forbid = [], [], []
        self.children = [[0] * k]
        # moves[k * (node of q) + s]: the node of q s, else None; children
        # holds the entries for the ascents.
        self.moves = [None] * k
        self.root = (0, (), "", "", "", 0, "".join(map(chr, range(n))))

    def run(self) -> None:
        """Every pivot: layer by layer, each node extended by each letter
        that X allows, in order, so the layers stay in shortlex order.

        Pivots are closed under prefixes: if p(g) = id and g' <= g in the
        prefix order, then p(g) <= g' <= g and projection monotonicity
        (suite check 3) give p(g') <= p(g) = id, so extending only pivots
        finds all of them.  No pivot is longer than the constant C, which
        bounds the projection blocks.
        """
        cap = self.system.max_ball_elements
        examined = 1
        layer = [self.root]
        while layer:
            grown = []
            for node in layer:
                allowed = [s for s in range(self.rank) if chr(s) not in node[4]]
                examined += len(allowed)
                if examined > cap:
                    raise ResourceLimitError(
                        f"pivot search exceeded max_ball_elements = {cap}"
                    )
                grown += filter(None, [self._child(node, s) for s in allowed])
            layer = grown

    def shortlex_step(self, x: str, s: int) -> str:
        """X(h s) from X(h), for a letter s that X(h) allows: alpha_s and
        s(X + {alpha_t : t < s}), cut to Small."""
        lower = [chr(t) for t in range(s) if chr(t) not in x]
        return chr(s) + "".join([x, *lower]).translate(self.tables[s])

    def _child(self, node, s: int):
        """The node of h s, recorded as the next pivot, for the node of h
        and a letter s that its X allows; None if h s is not a pivot."""
        number, word, d, sf, x, inv, gam = node
        table = self.tables[s]
        kept = sf.translate(table)
        if len(kept) < len(sf):
            return None
        c = chr(s)
        v = gam.find(c)
        if v >= 0:
            inv |= self.bits[v]
            if v < self.rank:
                kept += c
        d = c + d.translate(table)
        gam = gam.translate(self.gam_tables[s])
        word += (s,)
        child = (len(self.children), word, d, kept, self.shortlex_step(x, s), inv, gam)
        self._link(number, s, child)
        self.words.append(word)
        self.targets.append(sum(map(self.bits.__getitem__, map(ord, d))))
        opened = compress(self.bits, gam.translate(self.open).encode())
        self.forbid.append(inv | sum(opened))
        return child

    def _link(self, parent: int, s: int, child) -> None:
        """The prefix graph's entries of the new node q = h s, with no product.

        Its right descents are s, from h, and each u with alpha_u in D(q).
        For u != s, q = q' w, w the longest element on s and u, of length
        m = m_su: q' is h walked down by u, s, u, ... for m - 1 steps, and
        q u is q' walked up by the alternating word of length m - 1 that
        ends in s.  By prefix closure every element passed is an earlier
        node; ArithmeticError is raised if one is not."""
        n, moves, k = child[0], self.moves, self.rank
        self.children.append([0] * k)
        moves += [None] * k
        # D(q) starts with alpha_s, the image of no other root of D(h).
        for u in map(ord, child[2].translate(self.simple)[1:]):
            m = self.system.cox.orders[s][u]
            walk = (u, s) * m
            below = parent
            for letter in walk[: m - 1] + walk[m + 1 :]:
                below = moves[below * k + letter]
                if below is None:
                    gens = self.system.cox.generators
                    raise ArithmeticError(
                        f"pivots are not prefix-closed: pivot "
                        f"{word_to_string(child[1], gens)!r} steps down its "
                        f"right descent {gens[u]!r} to no pivot"
                    )
            self.children[below][u] = moves[below * k + u] = n
            moves[n * k + u] = below
        self.children[parent][s] = moves[parent * k + s] = n
        moves[n * k + s] = parent


def build_automaton(geometry: WallGeometry) -> VoraciousAutomaton:
    """Construct the automaton from scratch for one group: over its small
    roots and every pivot."""
    return VoraciousAutomaton(geometry)
