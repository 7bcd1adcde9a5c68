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
The fellow-traveller checks assert the derived bounds 2C and 2C(C+2Q)+2Q
with these estimates substituted.
"""

from __future__ import annotations

import functools
import json
import random
import time
from dataclasses import dataclass, field
from operator import xor

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
# The fellow-traveller check samples this many word pairs when it has more.
MAX_WORD_PAIRS = 50_000
# The sharp-angled separator check samples this many qualifying configurations.
SEPARATOR_SAMPLES = 120
# The methods run_suite runs, in order; estimate_constants is the one
# returning no check.
SUITE = (
    "check_unique_max", "estimate_constants", "check_constants_monotone",
    "check_projection_monotone", "check_fellow_traveller",
    "check_automaton_agreement", "check_separator_sampling",
)


@dataclass(frozen=True)
class VerifierConfig:
    radius: int = 6
    seed: int = 0

    def __post_init__(self):
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

    # -- shared plumbing ----------------------------------------------------

    def _word(self, g: GroupElement) -> str:
        return word_to_string(self.geometry.shortlex_word(g), self.system.cox.generators)

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

        # walls of the ball, tagged with the first radius they appear at (the
        # ball is in length order, so a wall's first sighting is its least),
        # and the inversion masks of the ball's chambers incident to each wall
        inv = geo.inversion_bits
        wall_min_radius: dict[Wall, int] = {}
        incident: dict[Wall, list[int]] = {}
        seen = 0
        for g in ball:
            bits = inv(g)
            for w in sys.walls_of(bits & ~seen):
                wall_min_radius[w] = g.length
            seen |= bits
            for wall in g.walls:
                incident.setdefault(wall, []).append(bits)

        # per-pair data for separator-free (g, W) pairs; values are exact,
        # rows of the by-radius table just filter which pairs are visible.
        # A chamber distance is the popcount of two inversion masks' XOR.
        g_cap = radius - TRIM_MARGIN
        canonical: dict[Wall, int] = {}  # incident_chamber masks, on first use
        pair_rows: list[tuple[int, int, int, int]] = []
        boundary_suspect = False
        for g in ball:
            if g.length > g_cap:
                continue
            inv_g = inv(g)
            for wall, first_r in wall_min_radius.items():
                if search.has_separator(g, wall):
                    continue
                if wall not in canonical:
                    canonical[wall] = inv(search.incident_chamber(wall))
                d = min(map(int.bit_count, map(inv_g.__xor__, incident[wall])))
                d_canon = (inv_g ^ canonical[wall]).bit_count()
                if d > TRIM_MARGIN:
                    boundary_suspect = True
                pair_rows.append((g.length, first_r, d, d_canon))
        if boundary_suspect:
            self.warnings.append(
                "a separator-free wall sits further than the trim margin; "
                "its distance may be overestimated by the ball cutoff"
            )

        by_radius: dict[int, dict[str, int]] = {}
        for r in range(radius + 1):
            row_ball = self.system.ball(r)
            c = max((g.length - geo.voracious_projection(g).length for g in row_ball),
                    default=0)
            n = max((geo.frontier_set(g).bit_count() for g in row_ball), default=0)
            q = max((d for gl, fr, d, _ in pair_rows if gl <= r - TRIM_MARGIN and fr <= r),
                    default=0)
            qc = max((dc for gl, fr, _, dc in pair_rows if gl <= r - TRIM_MARGIN and fr <= r),
                     default=0)
            by_radius[r] = {"C_hat": c, "N_hat": n, "Q_hat": q, "Q_hat_canonical": qc}

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

        The g' of each g are the weak-order interval [p(g), g], reached from
        p(g) by WallGeometry.walk_up crossing walls of Inv(g) only: the
        walk that lists the projection's candidates, two bit tests per move.
        Every g' lies in the ball, whose products and inversion sets are
        memoised already.
        """
        sys, geo = self.system, self.geometry
        inv = geo.inversion_bits
        n_pairs = 0
        for g in sys.ball(self.config.radius):
            pg = geo.voracious_projection(g)
            inv_pg = inv(pg)
            for g2 in geo.walk_up(pg, inv(g))[0]:
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

    def _prefix_walk(self, word: Word, head: GroupElement) -> tuple[int, ...]:
        """Inversion masks of the chambers head w_1 ... w_i, for i = 0 .. |w|."""
        sys = self.system
        out = [head]
        for s in word:
            out.append(sys.right_mul(out[-1], s))
        return tuple(map(self.geometry.inversion_bits, out))

    def check_fellow_traveller(self) -> CheckResult:
        cfg = self.config
        sys, geo = self.system, self.geometry
        constants = self.estimate_constants()
        bound_ii = 2 * constants.C_hat
        c, q = constants.C_hat, constants.Q_hat
        bound_iii = 2 * c * (c + 2 * q) + 2 * q
        radius = cfg.radius
        ball = sys.ball(radius)

        tasks = []  # (kind, g, g2, s); ascending pairs only, the bound is symmetric
        for g in ball:
            for s in range(sys.rank):
                gs = sys.right_mul(g, s)
                if gs.length == g.length + 1 and gs.length <= radius:
                    tasks.append(("ii", g, gs, s))
                # s g is longer than g iff the wall of alpha_s, bit s, is
                # not an inversion wall of g
                if g.length < radius and not geo.inversion_bits(g) >> s & 1:
                    sg = sys.element_of_word((s,) + geo.shortlex_word(g))
                    tasks.append(("iii", g, sg, s))

        # The pairs stream in task order, unless there are more than the cap:
        # only then are they listed, for the seeded sample.
        words = functools.cache(lambda g: sorted(self.language.all_words_of(g)))
        word_pairs = (
            (kind, s, v, v2)
            for kind, g, g2, s in tasks
            for v in words(g)
            for v2 in words(g2)
        )
        n_pairs = sum(len(words(g)) * len(words(g2)) for _, g, g2, _ in tasks)
        sampled = n_pairs > MAX_WORD_PAIRS
        if sampled:
            rng = random.Random(cfg.seed)
            word_pairs = rng.sample(list(word_pairs), MAX_WORD_PAIRS)
            self.warnings.append(
                f"fellow-traveller word pairs capped at {MAX_WORD_PAIRS} "
                "(seeded sample)"
            )

        walk = functools.cache(self._prefix_walk)
        max_ii = 0
        max_iii = 0
        n_checked = 0
        gen_elements = [sys.element_of_word((s,)) for s in range(sys.rank)]
        for kind, s, v, v2 in word_pairs:
            n_checked += 1
            if kind == "ii":
                left = walk(v, sys.identity)
                bound = bound_ii
            else:
                left = walk(v, gen_elements[s])  # prefixes of s * v
                bound = bound_iii
            right = walk(v2, sys.identity)
            # the shorter walk waits at its end: pad it with its last mask
            n = max(len(left), len(right))
            left += left[-1:] * (n - len(left))
            right += right[-1:] * (n - len(right))
            worst = max(map(int.bit_count, map(xor, left, right)))
            if kind == "ii":
                max_ii = max(max_ii, worst)
            else:
                max_iii = max(max_iii, worst)
            if worst > bound:
                return CheckResult(
                    "fellow-traveller-bounds",
                    "fail",
                    {"pairs_checked": n_checked, "sampled": sampled},
                    {
                        "kind": kind,
                        "generator": sys.cox.generators[s],
                        "v": word_to_string(v, sys.cox.generators),
                        "v2": word_to_string(v2, sys.cox.generators),
                        "observed": worst,
                        "bound": bound,
                    },
                )
        constants.ft_ii_max = max_ii
        constants.ft_iii_max = max_iii
        return CheckResult(
            "fellow-traveller-bounds",
            "pass",
            {
                "pairs_checked": n_checked,
                "sampled": sampled,
                "ii_max": max_ii,
                "ii_bound": bound_ii,
                "iii_max": max_iii,
                "iii_bound": bound_iii,
            },
        )

    # automaton agreement ---------------------------------------------------

    def _pivot_gap(self, aut) -> dict | None:
        """A pivot the automaton lacks, or None: an element of the ball with
        identity projection that is not a pivot.

        The automaton's constructor refuses pivots that are not prefix-closed,
        so none of its pivots lies above a pivot it lacks in the weak order,
        and only the ball finds one.
        """
        sys, geo = self.system, self.geometry
        pivots = set(aut.pivots)
        for g in sys.ball(self.config.radius):
            if g.length and g not in pivots and (
                geo.voracious_projection(g) is sys.identity
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
        a word by the small-root steps (WallGeometry.frontier_pairs), and the
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
            "pivots": len(aut.pivots),
            "max_pivot_length": max((g.length for g in aut.pivots), default=0),
            "states": len(aut.states),
            "edges": len(aut.edges),
        }
        if mismatch is None:
            return CheckResult("automaton-language-agreement", "pass", details)
        return CheckResult("automaton-language-agreement", "fail", details, mismatch)

    # sharp-angled sampling -------------------------------------------------

    def check_separator_sampling(self) -> CheckResult:
        cfg = self.config
        sys, geo, search = self.system, self.geometry, self.separators
        name = "sharp-angled-separator-sampling"
        if sys.rank < 3:
            return CheckResult(
                name, "skipped", {"reason": "needs rank >= 3 for separators to exist"}
            )

        ball = sys.ball(cfg.radius)
        # sharp-angled wall pairs arise exactly as ball conjugates of simple
        # pairs with a finite order >= 3
        simple_pairs = [
            (a, b)
            for a in range(sys.rank)
            for b in range(a + 1, sys.rank)
            if sys.cox.orders[a][b] >= 3
        ]
        # keyed by the mask of the pair's two walls
        pair_data: dict[int, tuple[GroupElement, int, int, Wall, Wall]] = {}
        for u in ball:
            for a, b in simple_pairs:
                wr, wq = u.walls[a], u.walls[b]
                key = wr.bit | wq.bit
                if key not in pair_data:
                    pair_data[key] = (u, a, b, wr, wq)
        if not pair_data:
            return CheckResult(
                name, "skipped", {"reason": "no noncommuting finite-order pair"}
            )

        orbit_cache: dict[int, tuple[Wall, ...]] = {}  # residue walls per pair
        # (pair, ball element) combinations are drawn without replacement by a
        # lazy Fisher-Yates shuffle of their indices: `moved` holds only the
        # positions a draw has swapped, so drawing n of them costs O(n).
        keys = sorted(
            pair_data, key=lambda k: sorted(map(geo.output_root, sys.walls_of(k)))
        )
        n_combos = len(keys) * len(ball)
        rng = random.Random(cfg.seed)
        moved: dict[int, int] = {}

        n_samples = 0
        n_walls = 0
        for i in range(n_combos):
            if n_samples >= SEPARATOR_SAMPLES:
                break
            j = rng.randrange(i, n_combos)
            pick = moved.get(j, j)
            moved[j] = moved.get(i, i)
            key = keys[pick // len(ball)]
            u, a, b, wr, wq = pair_data[key]
            g = ball[pick % len(ball)]
            # t is a left descent of u^{-1} g iff the wall of u(alpha_t), one
            # of wr and wq, lies between chambers u and g
            between = geo.inversion_bits(u) ^ geo.inversion_bits(g)
            descents = bool(wr.bit & between) + bool(wq.bit & between)
            if descents == 1:
                continue  # g sits strictly between the two walls' sectors
            if not (search.has_separator(g, wr) or search.has_separator(g, wq)):
                continue  # hypothesis not met: nothing separates g from the pair
            n_samples += 1
            if key not in orbit_cache:
                orbit_cache[key] = geo.residue_walls(u, a, b)
            for wall in orbit_cache[key]:
                if wall is wr or wall is wq:
                    continue
                n_walls += 1
                if not search.has_separator(g, wall):
                    return CheckResult(
                        name,
                        "fail",
                        {"samples": n_samples, "orbit_walls_checked": n_walls},
                        {
                            "g": self._word(g),
                            "conjugator": self._word(u),
                            "pair": [sys.cox.generators[a], sys.cox.generators[b]],
                            "unseparated_wall": geo.root_strings(wall),
                        },
                    )
        if n_samples == 0:
            return CheckResult(
                name,
                "skipped",
                {"reason": "no sampled configuration met the separator hypothesis"},
            )
        if n_samples < SEPARATOR_SAMPLES:
            self.warnings.append(
                f"sharp-angled sampling found only {n_samples} qualifying "
                f"configurations (target {SEPARATOR_SAMPLES})"
            )
        return CheckResult(
            name,
            "pass",
            {
                "samples": n_samples,
                "orbit_walls_checked": n_walls,
                "candidate_pairs": len(pair_data),
            },
        )

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
