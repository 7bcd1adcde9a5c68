"""Empirical verification suite: projection laws, constants, automaton agreement.

Every check is exact on a finite ball; nothing is proved beyond it.  The
estimated constants are ball-restricted maxima:

  C_hat  largest projection block length l(p(g)^{-1} g);
  N_hat  largest frontier size |W(g)|;
  Q_hat  largest chamber-to-wall distance among (g, W) pairs admitting no
         separating wall, with g kept a margin away from the ball boundary
         so the incident chambers realising the distance stay inside.

Q_hat uses d(g, W) = min over incident chambers h of d(g, h); the variant
measuring against the canonical incident chamber only is reported alongside.
The walls with no separator from chamber g are g(Small), so the pairs are
read off the small roots with no separator search.  One pass over the ball
buckets every value at the least radius that sees it, and the by-radius
rows are running maxima over those buckets.  The fellow-traveller checks
assert the derived bounds 2C and 2C(C+2Q)+2Q with these estimates
substituted, on every word pair of the ball, by their prefix elements: no
check lists words or samples.  The separator check reads the same g(Small)
on every chamber of the ball, so has_separator serves only the agreement
check's frontier oracle.
"""

from __future__ import annotations

import functools
import itertools
import json
import time
from dataclasses import dataclass, field

from .automaton import build_automaton
from .coxeter import GroupElement, Wall, Word, word_to_string
from .language import VoraciousLanguage
from .separators import SeparatorSearch
from .walls import WallGeometry


# Chambers this close to the ball boundary are left out of Q_hat, so that the
# incident chambers realising a distance stay inside the ball.
TRIM_MARGIN = 2
# The automaton agreement check runs every word up to this length.
AGREEMENT_WORD_LENGTH = 6
# The methods run_suite runs, in order; estimate_constants is the one
# returning no check.
SUITE = (
    "check_unique_max", "estimate_constants", "check_constants_monotone",
    "check_projection_monotone", "check_fellow_traveller",
    "check_automaton_agreement", "check_separator_sampling",
)


@dataclass(frozen=True)
class VerifierConfig:
    """The ball radius of every check.  No check samples, so nothing reads
    seed; it stays so that callers passing it (perfbench/workloads.py) work."""

    radius: int = 6
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.radius, int) or isinstance(self.radius, bool):
            raise ValueError(f"radius must be an int, not {self.radius!r}")
        if self.radius < 0:
            raise ValueError(f"radius must be nonnegative, not {self.radius}")


@dataclass
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "skipped"
    details: dict
    witness: dict | None = None


@dataclass
class Constants:
    C_hat: int = 0
    N_hat: int = 0
    Q_hat: int = 0
    Q_hat_canonical: int = 0
    ft_ii_max: int | None = None
    ft_iii_max: int | None = None
    by_radius: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        by_radius = {str(r): row for r, row in sorted(self.by_radius.items())}
        return {**vars(self), "by_radius": by_radius}


@dataclass
class VerificationReport:
    group: dict
    radius: int
    constants: Constants
    checks: list[CheckResult]
    warnings: list[str]
    # Wall time of each SUITE method in seconds; not part of the JSON report.
    seconds: dict[str, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "group": self.group,
            "radius": self.radius,
            "constants": self.constants.as_dict(),
            "checks": [dict(vars(c)) for c in self.checks],
            "warnings": self.warnings,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"


class Verifier:
    def __init__(self, geometry: WallGeometry, config: VerifierConfig = VerifierConfig()):
        self.geometry = geometry
        self.system = geometry.system
        self.config = config
        self.language = VoraciousLanguage(geometry)
        self.separators = SeparatorSearch(geometry)
        self.warnings: list[str] = []
        self.constants: Constants | None = None
        self._prefixes: dict[tuple, tuple[dict, ...]] = {}  # _prefix_layers

    # -- shared plumbing ----------------------------------------------------

    def _word(self, g: GroupElement) -> str:
        return word_to_string(self.geometry.shortlex_word(g), self.system.cox.generators)

    @functools.cached_property
    def _g_small(self) -> dict[Word, tuple[Wall, ...]]:
        """g(Small), the walls with no separator from chamber g (Brink and
        Howlett, Math. Ann. 296, 1993), for each g of the ball, keyed by its
        shortlex word.  For g = s h, s the first letter of the word of g,
        g(Small) = s(h(Small)), one reflection-table read per wall.
        """
        sys, geo = self.system, self.geometry
        free = {(): sys.small_roots()}
        for g in sys.ball(self.config.radius)[1:]:
            word = geo.shortlex_word(g)
            s = word[0]
            free[word] = tuple(sys.simple_reflection(s, w)[0] for w in free[word[1:]])
        return free

    # -- checks -------------------------------------------------------------

    def check_unique_max(self) -> CheckResult:
        """The greedy graph of g has one terminal node, and it is p(g).

        Every greedy run towards p(g), in any generator order and with any
        choices, ends at a terminal node of WallGeometry.projection_walk's
        graph, and every candidate lies on a run to some terminal.  So one
        terminal, equal to voracious_projection(g), makes it the unique
        maximal candidate and every candidate a prefix of it.  Also asserts
        the voracious property: the frontier walls of g all lie between p(g)
        and g.
        """
        geo = self.geometry
        n_elements = 0
        n_candidates = 0
        for g in self.system.ball(self.config.radius):
            n_elements += 1
            candidates, terminals = geo.projection_walk(g)
            n_candidates += len(candidates)
            greedy = geo.voracious_projection(g)
            if terminals != [greedy]:
                return CheckResult(
                    "projection-unique-maximum",
                    "fail",
                    {"elements": n_elements},
                    {
                        "g": self._word(g),
                        "greedy": self._word(greedy),
                        "terminals": sorted(map(self._word, terminals)),
                    },
                )
            between = geo.inversion_bits(greedy) ^ geo.inversion_bits(g)
            if geo.frontier_set(g) & ~between:
                return CheckResult(
                    "projection-unique-maximum",
                    "fail",
                    {"elements": n_elements},
                    {"g": self._word(g), "issue": "frontier wall not crossed "
                     "between p(g) and g"},
                )
        return CheckResult(
            "projection-unique-maximum",
            "pass",
            {"elements": n_elements, "candidates": n_candidates},
        )

    def estimate_constants(self) -> Constants:
        if self.constants is not None:
            return self.constants
        cfg = self.config
        sys, geo, search = self.system, self.geometry, self.separators
        radius = cfg.radius
        ball = sys.ball(radius)

        # Each value of the by-radius table is bucketed at the least radius
        # whose row sees it: C and N of g at l(g), and a separator-free pair
        # (g, W) at the first radius that keeps g the trim margin inside the
        # ball and holds W.  The rows are running maxima over the buckets.
        c_at, n_at, q_at, qc_at = buckets = [[0] * (radius + 1) for _ in range(4)]

        # walls of the ball, tagged with the first radius they appear at (the
        # ball is in length order, so a wall's first sighting is its least),
        # and the inversion masks of the ball's chambers incident to each wall
        inv = geo.inversion_bits
        wall_min_radius: dict[Wall, int] = {}
        incident: dict[Wall, list[int]] = {}
        seen = 0
        for g in ball:
            r = g.length
            c_at[r] = max(c_at[r], r - geo.voracious_projection(g).length)
            n_at[r] = max(n_at[r], geo.frontier_set(g).bit_count())
            bits = inv(g)
            for w in sys.walls_of(bits & ~seen):
                wall_min_radius[w] = r
            seen |= bits
            for wall in g.walls:
                incident.setdefault(wall, []).append(bits)

        # The separator-free walls of g are g(Small) (_g_small); only the walls
        # of the ball's inversion sets make pairs.  A chamber distance is the
        # popcount of two inversion masks' XOR.
        g_cap = radius - TRIM_MARGIN
        free = self._g_small
        boundary_suspect = False
        for g in ball:
            if g.length > g_cap:
                break
            inv_g = inv(g)
            for wall in free[geo.shortlex_word(g)]:
                first_r = wall_min_radius.get(wall)
                if first_r is None:
                    continue
                d = min(map(int.bit_count, map(inv_g.__xor__, incident[wall])))
                d_canon = (inv_g ^ search.incident_bits(wall)).bit_count()
                if d > TRIM_MARGIN:
                    boundary_suspect = True
                r = max(g.length + TRIM_MARGIN, first_r)
                q_at[r] = max(q_at[r], d)
                qc_at[r] = max(qc_at[r], d_canon)
        if boundary_suspect:
            self.warnings.append(
                "a separator-free wall sits further than the trim margin; "
                "its distance may be overestimated by the ball cutoff"
            )

        keys = ("C_hat", "N_hat", "Q_hat", "Q_hat_canonical")
        rows = zip(*(itertools.accumulate(at, max) for at in buckets))
        by_radius = {r: dict(zip(keys, row)) for r, row in enumerate(rows)}

        self.constants = Constants(**by_radius[radius], by_radius=by_radius)
        return self.constants

    def check_constants_monotone(self) -> CheckResult:
        constants = self.estimate_constants()
        rows = constants.by_radius
        radii = sorted(rows)
        for key in ("C_hat", "N_hat", "Q_hat", "Q_hat_canonical"):
            vals = [rows[r][key] for r in radii]
            if any(a > b for a, b in zip(vals, vals[1:])):
                return CheckResult(
                    "constants-monotone-in-radius",
                    "fail",
                    {"by_radius": constants.as_dict()["by_radius"]},
                    {"constant": key, "values": vals},
                )
        stable = len(radii) >= 2 and rows[radii[-1]] == rows[radii[-2]]
        return CheckResult(
            "constants-monotone-in-radius",
            "pass",
            {
                "by_radius": constants.as_dict()["by_radius"],
                "stable_at_top_radius": stable,
            },
        )

    def check_projection_monotone(self) -> CheckResult:
        """p(g) <= g' <= g (prefix order) implies p(g') <= p(g).

        The g' of each g are the weak-order interval [p(g), g]: the layers
        of g's prefix elements from length l(p(g)) on (_prefix_layers),
        which the fellow-traveller check reads too, or g alone if p(g) = g.
        Every g' lies in the ball, whose products and inversion sets are
        memoised already.
        """
        sys, geo = self.system, self.geometry
        inv = geo.inversion_bits
        n_pairs = 0
        for g in sys.ball(self.config.radius):
            pg = geo.voracious_projection(g)
            inv_pg = inv(pg)
            layers = self._prefix_layers(g)[pg.length :] if pg is not g else [{0: g}]
            for g2 in [x for layer in layers for x in layer.values()]:
                n_pairs += 1
                # inversion sets as masks: a | b == b says a is a subset of b
                if inv(geo.voracious_projection(g2)) | inv_pg != inv_pg:
                    return CheckResult(
                        "projection-monotone-under-prefix",
                        "fail",
                        {"pairs": n_pairs},
                        {
                            "g": self._word(g),
                            "between": self._word(g2),
                            "p_g": self._word(pg),
                            "p_between": self._word(geo.voracious_projection(g2)),
                        },
                    )
        return CheckResult(
            "projection-monotone-under-prefix", "pass", {"pairs": n_pairs}
        )

    # fellow traveller ------------------------------------------------------

    def _prefix_layers(self, g: GroupElement, s: int | None = None) -> tuple[dict, ...]:
        """Entry t maps the inversion mask of each length-t prefix a of a
        language word of g to a, for t = 0 .. l(g), or to s a given s, not a
        left descent of g.  Memoised per (g, s), and built up g's projection
        chain, one interval per block (check_fellow_traveller)."""
        sys, geo = self.system, self.geometry
        inv, memo = geo.inversion_bits, self._prefixes
        path = []
        cur = g
        got = memo.get((cur, s))
        while got is None and cur.length:
            path.append(cur)
            cur = geo.voracious_projection(cur)
            if cur.length >= path[-1].length:
                raise ArithmeticError("voracious projection made no progress")
            got = memo.get((cur, s))
        if got is None:  # cur is the identity
            top = cur if s is None else sys.right_mul(cur, s)
            got = memo[cur, s] = ({inv(top): top},)
        for h in reversed(path):
            start = next(iter(got[-1].values()))  # p(h), or s p(h)
            top = h if s is None else sys.element_of_word((s,) + geo.shortlex_word(h))
            layers = [{} for _ in range(top.length - start.length)]
            for x in geo.walk_up(start, inv(top))[0][1:]:
                layers[x.length - start.length - 1][inv(x)] = x
            got = memo[h, s] = got + tuple(layers)
        return got

    def check_fellow_traveller(self) -> CheckResult:
        """Language words of g and g' stay within 2C of each other for g' =
        g s, and within 2C(C + 2Q) + 2Q for g' = s g, the word of g then
        read after s: every pair of words, for every such pair of the ball
        with l(g') = l(g) + 1, as the bounds are symmetric.

        No word is listed.  The language words of g are those of p(g), each
        followed by a reduced word of the block p(g)^{-1} g, so the length-t
        prefixes of g's words are the elements of length t of the weak
        interval [g_{i+1}, g_i] of g's chain that holds t; a word waits at g
        after its end.  walk_up lists [p, g] from p.  As s is not a left
        descent of g, left multiplication by s maps [p, g] onto [s p, s g],
        so walk_up(s p, Inv(s g)) lists the prefixes of s followed by a word
        of g, and only the chain elements take a left product.  The two
        words of a pair are chosen independently, so at each time t their
        prefixes run over the full product of the two prefix sets.  The
        largest gap over every word pair is thus the largest, over t, of
        popcount(Inv a ^ Inv b) over the element pairs (a, b) at t.
        """
        sys, geo = self.system, self.geometry
        name = "fellow-traveller-bounds"
        constants = self.estimate_constants()
        c, q = constants.C_hat, constants.Q_hat
        bounds = {"ii": 2 * c, "iii": 2 * c * (c + 2 * q) + 2 * q}
        maxima = {"ii": 0, "iii": 0}
        layers, radius = self._prefix_layers, self.config.radius
        n_pairs = 0
        for g in sys.ball(radius):
            if g.length == radius:
                break
            for s in range(sys.rank):
                tasks = []
                if not g.descents >> s & 1:
                    tasks.append(("ii", layers(g), sys.right_mul(g, s)))
                # s g is longer than g iff the wall of alpha_s, bit s, is
                # not an inversion wall of g
                if not geo.inversion_bits(g) >> s & 1:
                    left = layers(g, s)
                    tasks.append(("iii", left, next(iter(left[-1].values()))))
                for kind, left, g2 in tasks:
                    n_pairs += 1
                    # the left word, one letter shorter, waits at its end
                    times = list(zip(left + left[-1:], layers(g2)))
                    worst = max([(a ^ b).bit_count() for x, y in times
                                 for a in x for b in y])
                    maxima[kind] = max(maxima[kind], worst)
                    if worst > bounds[kind]:
                        t, a, b = next(
                            (t, a, b) for t, (x, y) in enumerate(times)
                            for a in x for b in y if (a ^ b).bit_count() == worst
                        )
                        x, y = times[t]
                        return CheckResult(name, "fail", {"pairs_checked": n_pairs}, {
                            "kind": kind,
                            "generator": sys.cox.generators[s],
                            "g": self._word(g),
                            "g2": self._word(g2),
                            "time": t,
                            "left": self._word(x[a]),
                            "right": self._word(y[b]),
                            "observed": worst,
                            "bound": bounds[kind],
                        })
        constants.ft_ii_max, constants.ft_iii_max = maxima["ii"], maxima["iii"]
        return CheckResult(name, "pass", {
            "pairs_checked": n_pairs,
            "ii_max": maxima["ii"], "ii_bound": bounds["ii"],
            "iii_max": maxima["iii"], "iii_bound": bounds["iii"],
        })

    # automaton agreement ---------------------------------------------------

    def _pivot_gap(self, aut) -> dict | None:
        """A pivot the automaton lacks, or None: an element of the ball with
        identity projection whose shortlex word is not a pivot word.

        The pass that finds the pivots raises ArithmeticError on a pivot
        that steps down to no pivot (automaton._IndexPass), so none of its
        pivots lies above a pivot it lacks in the weak order, and only the
        ball finds one.
        """
        sys, geo = self.system, self.geometry
        words = set(aut.words)
        for g in sys.ball(self.config.radius):
            if g.length and geo.voracious_projection(g) is sys.identity and (
                geo.shortlex_word(g) not in words
            ):
                return {
                    "issue": "identity projection but not a pivot",
                    "element": self._word(g),
                }
        return None

    def check_automaton_agreement(self) -> CheckResult:
        """accepts agrees with the language on every word up to
        AGREEMENT_WORD_LENGTH, in the frontier's state, and the automaton has
        every pivot.

        The accept state is checked by two independent routes: the automaton
        reaches it by its pivots' targets, Brink-Howlett states stepped along
        a word by the small-root index tables (automaton._IndexPass), and the
        check computes it from the definition, the frontier of the word's
        element g found by the separator search (SeparatorSearch.frontier) and
        pulled back along the reversed shortlex word of g
        (WallGeometry.pull_back)."""
        sys, geo = self.system, self.geometry
        aut = build_automaton(geo)

        lang = self.language
        n_words = 0
        n_accepted = 0
        mismatch = self._pivot_gap(aut)
        # the state pull_back gives, once per element
        want_of = functools.cache(
            lambda g: aut.state_of_mask(geo.pull_back(g, self.separators.frontier(g)))
        )
        # each word carries its run's (state, node) pairs, which its children
        # extend by one letter (VoraciousAutomaton.run_pairs)
        stack = [((), sys.identity, aut.run_pairs(()))]
        while stack:
            word, g, pairs = stack.pop()
            n_words += 1
            member = g.length == len(word) and lang.contains(word)
            states = frozenset(state for state, node in pairs if not node)
            accepted = bool(states)
            if member != accepted and mismatch is None:
                mismatch = {
                    "word": word_to_string(word, sys.cox.generators),
                    "member": member,
                    "accepted": accepted,
                }
            if member:
                n_accepted += 1
                want = want_of(g)
                if accepted and states != frozenset({want}) and mismatch is None:
                    mismatch = {
                        "word": word_to_string(word, sys.cox.generators),
                        "issue": "wrong accept state",
                        "states": sorted(states),
                        "expected_state": want,
                    }
            if len(word) < AGREEMENT_WORD_LENGTH:
                stack.extend(
                    (word + (s,), sys.right_mul(g, s), aut.run_pairs((s,), pairs))
                    for s in range(sys.rank)
                )

        details = {
            "words_checked": n_words,
            "accepted": n_accepted,
            "max_word_length": AGREEMENT_WORD_LENGTH,
            "pivots": len(aut.words),
            "max_pivot_length": max(map(len, aut.words), default=0),
            "states": len(aut.states),
            "edges": len(aut.edges),
        }
        if mismatch is None:
            return CheckResult("automaton-language-agreement", "pass", details)
        return CheckResult("automaton-language-agreement", "fail", details, mismatch)

    # sharp-angled separators ---------------------------------------------

    def _residue_index(self) -> tuple[int, dict[Wall, list[tuple]]]:
        """(pair count, index): each wall of a sharp-angled pair's residue,
        other than the pair's two, mapped to (pair mask, the pair's walls in
        Inv(u), u, a, b) for each pair.

        The pairs are the walls u(alpha_a), u(alpha_b) of a chamber u of the
        ball, for a < b of finite order m_ab >= 3, each kept with the first
        u that has it.  The residue u W_ab has the walls u(beta) for the
        positive roots beta of the finite W_ab, all small, so they are read
        off u(Small); the word a b a ... crosses alpha_a first and alpha_b
        last.
        """
        sys, geo = self.system, self.geometry
        at = {wall: i for i, wall in enumerate(sys.small_roots())}
        residues = [
            (a, b, [at[w] for w in geo.residue_walls(sys.identity, a, b)[1:-1]])
            for a in range(sys.rank)
            for b in range(a + 1, sys.rank)
            if sys.cox.orders[a][b] >= 3
        ]
        free, inv = self._g_small, geo.inversion_bits
        seen = set()
        index: dict[Wall, list[tuple]] = {}
        for u in sys.ball(self.config.radius):
            walls = free[geo.shortlex_word(u)]
            for a, b, others in residues:
                key = u.walls[a].bit | u.walls[b].bit
                if key not in seen:
                    seen.add(key)
                    pair = (key, inv(u) & key, u, a, b)
                    for i in others:
                        index.setdefault(walls[i], []).append(pair)
        return len(seen), index

    def check_separator_sampling(self) -> CheckResult:
        """The separator lemma on rank-2 residues, on every chamber g of the
        ball: if some wall separates g from one wall of a sharp-angled pair,
        and g is not strictly between the two walls' sectors, then every
        other wall of the pair's residue has a separator from g.

        The walls with no separator from g are g(Small), so the check visits
        every (g, pair, residue wall with no separator) by the index of
        _residue_index, and each must miss the hypothesis.  In a finite
        group every root is small, so no wall has a separator.  A group of
        rank below 3 is finite or D-infinity, which has no pair.
        """
        sys, geo = self.system, self.geometry
        name = "sharp-angled-separator-sampling"
        if sys.is_finite():
            return CheckResult(
                name, "skipped", {"reason": "finite group: no wall has a separator"}
            )
        n_pairs, index = self._residue_index()
        if not n_pairs:
            return CheckResult(
                name, "skipped", {"reason": "no noncommuting finite-order pair"}
            )

        ball = sys.ball(self.config.radius)
        free, inv = self._g_small, geo.inversion_bits
        details = {"candidate_pairs": n_pairs, "chambers": len(ball)}
        n_walls = 0
        for g in ball:
            small = free[geo.shortlex_word(g)]
            unseparated = sum(wall.bit for wall in small)
            inv_g = inv(g)
            for wall in small:
                for key, key_u, u, a, b in index.get(wall, ()):
                    n_walls += 1
                    if key & unseparated == key:
                        continue  # hypothesis not met: no separator from the pair
                    # t is a left descent of u^{-1} g iff the wall of u(alpha_t),
                    # a wall of the pair, lies between chambers u and g
                    if ((inv_g & key) ^ key_u).bit_count() == 1:
                        continue  # g sits strictly between the two walls' sectors
                    details["residue_walls_checked"] = n_walls
                    return CheckResult(name, "fail", details, {
                        "g": self._word(g),
                        "conjugator": self._word(u),
                        "pair": [sys.cox.generators[a], sys.cox.generators[b]],
                        "unseparated_wall": geo.root_strings(wall),
                    })
        details["residue_walls_checked"] = n_walls
        return CheckResult(name, "pass", details)

    # -- suite --------------------------------------------------------------

    def run_suite(self) -> VerificationReport:
        cfg = self.config
        if cfg.radius <= TRIM_MARGIN:
            self.warnings.append(
                "radius does not exceed the trim margin; distance-based "
                "estimates are vacuous"
            )
        checks, seconds = [], {}
        for name in SUITE:
            start = time.perf_counter()
            result = getattr(self, name)()
            seconds[name] = time.perf_counter() - start
            if isinstance(result, CheckResult):
                checks.append(result)
        cox = self.system.cox
        return VerificationReport(
            group={
                "generators": list(cox.generators),
                "m": [list(row) for row in cox.orders],
            },
            radius=cfg.radius,
            constants=self.constants,
            checks=checks,
            warnings=list(self.warnings),
            seconds=seconds,
        )
