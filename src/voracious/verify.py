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

import json
import random
from dataclasses import dataclass, field

from .automaton import build_automaton
from .coxeter import GroupElement, Word, word_to_string
from .language import VoraciousLanguage
from .walls import Wall, WallGeometry


@dataclass(frozen=True)
class VerifierConfig:
    radius: int = 6
    margin: int = 2
    word_length: int = 6
    seed: int = 0
    max_word_pairs: int = 50_000
    separator_samples: int = 120


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
        return {
            "C_hat": self.C_hat,
            "N_hat": self.N_hat,
            "Q_hat": self.Q_hat,
            "Q_hat_canonical": self.Q_hat_canonical,
            "ft_ii_max": self.ft_ii_max,
            "ft_iii_max": self.ft_iii_max,
            "by_radius": {str(r): row for r, row in sorted(self.by_radius.items())},
        }


@dataclass
class VerificationReport:
    group: dict
    radius: int
    constants: Constants
    checks: list[CheckResult]
    warnings: list[str]

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "group": self.group,
            "radius": self.radius,
            "constants": self.constants.as_dict(),
            "checks": [
                {
                    "name": c.name,
                    "status": c.status,
                    "details": c.details,
                    "witness": c.witness,
                }
                for c in self.checks
            ],
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
        self.warnings: list[str] = []
        self.constants: Constants | None = None
        self._incidences: dict[Wall, list[GroupElement]] | None = None

    # -- shared plumbing ----------------------------------------------------

    def _word(self, g: GroupElement) -> str:
        return word_to_string(self.system.shortlex_word(g), self.system.cox.generators)

    def _dist(self, g: GroupElement, h: GroupElement) -> int:
        """Chamber distance = number of walls with different sides."""
        geo = self.geometry
        return (geo.inversion_bits(g) ^ geo.inversion_bits(h)).bit_count()

    def _ball_incidences(self, radius: int) -> dict[Wall, list[GroupElement]]:
        """All chambers of the ball listed against each of their own walls."""
        if self._incidences is None:
            geo = self.geometry
            inc: dict[Wall, list[GroupElement]] = {}
            for h in self.system.ball(radius):
                for root in h.matrix:
                    inc.setdefault(geo.wall_of_root(root), []).append(h)
            self._incidences = inc
        return self._incidences

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
            if not geo.frontier_set(g) <= geo.walls_between(greedy, g):
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
        sys, geo = self.system, self.geometry
        radius = cfg.radius
        ball = sys.ball(radius)

        # walls of the ball, tagged with the first radius they appear at
        wall_min_radius: dict[Wall, int] = {}
        for g in ball:
            for w in geo.inversion_walls(g):
                if w not in wall_min_radius or g.length < wall_min_radius[w]:
                    wall_min_radius[w] = g.length

        incidences = self._ball_incidences(radius)
        g_cap = radius - cfg.margin

        # per-pair data for separator-free (g, W) pairs; values are exact,
        # rows of the by-radius table just filter which pairs are visible
        pair_rows: list[tuple[int, int, int, int]] = []
        boundary_suspect = False
        for g in ball:
            if g.length > g_cap:
                continue
            for wall, first_r in wall_min_radius.items():
                if geo.has_separator(g, wall):
                    continue
                d = min(self._dist(g, h) for h in incidences[wall])
                d_canon = self._dist(g, geo.incident_chamber(wall))
                if d > cfg.margin:
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
            n = max((len(geo.frontier_set(g)) for g in row_ball), default=0)
            q = max((d for gl, fr, d, _ in pair_rows if gl <= r - cfg.margin and fr <= r),
                    default=0)
            qc = max((dc for gl, fr, _, dc in pair_rows if gl <= r - cfg.margin and fr <= r),
                     default=0)
            by_radius[r] = {"C_hat": c, "N_hat": n, "Q_hat": q, "Q_hat_canonical": qc}

        top = by_radius[radius]
        self.constants = Constants(
            C_hat=top["C_hat"],
            N_hat=top["N_hat"],
            Q_hat=top["Q_hat"],
            Q_hat_canonical=top["Q_hat_canonical"],
            by_radius=by_radius,
        )
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

        The g' of each g are the weak-order interval [p(g), g], walked up
        from p(g) by the generator steps that stay below g.  Its covers are
        generator steps, so the walk meets each g' once.  Every g' lies in
        the ball, whose products and inversion sets are memoised already.
        """
        sys, geo = self.system, self.geometry
        inv = geo.inversion_bits
        n_pairs = 0
        for g in sys.ball(self.config.radius):
            inv_g = inv(g)
            pg = geo.voracious_projection(g)
            inv_pg = inv(pg)
            seen = {pg}
            stack = [pg]
            while stack:
                g2 = stack.pop()
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
                if g2.length == g.length:
                    continue  # g2 is g, the top of the interval
                for s in range(sys.rank):
                    up = sys.right_mul(g2, s)
                    if (
                        up.length > g2.length
                        and inv(up) | inv_g == inv_g
                        and up not in seen
                    ):
                        seen.add(up)
                        stack.append(up)
        return CheckResult(
            "projection-monotone-under-prefix", "pass", {"pairs": n_pairs}
        )

    # fellow traveller ------------------------------------------------------

    def _prefix_walk(self, word: Word, head: GroupElement) -> tuple[GroupElement, ...]:
        sys = self.system
        out = [head]
        for s in word:
            out.append(sys.right_mul(out[-1], s))
        return tuple(out)

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
                sg = sys.left_mul(g, s)
                if sg.length == g.length + 1 and sg.length <= radius:
                    tasks.append(("iii", g, sg, s))

        word_pairs = []
        for kind, g, g2, s in tasks:
            for v in sorted(self.language.all_words_of(g)):
                for v2 in sorted(self.language.all_words_of(g2)):
                    word_pairs.append((kind, s, v, v2))
        sampled = False
        if len(word_pairs) > cfg.max_word_pairs:
            sampled = True
            rng = random.Random(cfg.seed)
            word_pairs = rng.sample(word_pairs, cfg.max_word_pairs)
            self.warnings.append(
                f"fellow-traveller word pairs capped at {cfg.max_word_pairs} "
                "(seeded sample)"
            )

        walks: dict[tuple, tuple[GroupElement, ...]] = {}

        def walk(word: Word, head: GroupElement, tag) -> tuple[GroupElement, ...]:
            key = (tag, word)
            got = walks.get(key)
            if got is None:
                got = self._prefix_walk(word, head)
                walks[key] = got
            return got

        max_ii = 0
        max_iii = 0
        n_checked = 0
        gen_elements = [sys.element_of_word((s,)) for s in range(sys.rank)]
        for kind, s, v, v2 in word_pairs:
            n_checked += 1
            if kind == "ii":
                left = walk(v, sys.identity, None)
                bound = bound_ii
            else:
                left = walk(v, gen_elements[s], s)  # prefixes of s * v
                bound = bound_iii
            right = walk(v2, sys.identity, None)
            worst = 0
            for i in range(max(len(v), len(v2)) + 1):
                a = left[min(i, len(v))]
                b = right[min(i, len(v2))]
                d = self._dist(a, b)
                if d > worst:
                    worst = d
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

    def check_automaton_agreement(self) -> CheckResult:
        cfg = self.config
        sys, geo = self.system, self.geometry
        aut = build_automaton(geo)

        lang = self.language
        n_words = 0
        n_accepted = 0
        mismatch = None
        stack: list[tuple[Word, GroupElement]] = [((), sys.identity)]
        while stack:
            word, g = stack.pop()
            n_words += 1
            member = g.length == len(word) and lang.contains(word)
            states = aut.run_states(word)
            accepted = bool(states)
            if member != accepted and mismatch is None:
                mismatch = {
                    "word": word_to_string(word, sys.cox.generators),
                    "member": member,
                    "accepted": accepted,
                }
            if member:
                n_accepted += 1
                expect = geo.pull_back(g, geo.frontier_set(g))
                want = aut.state_of_walls(expect)
                if accepted and states != frozenset({want}) and mismatch is None:
                    mismatch = {
                        "word": word_to_string(word, sys.cox.generators),
                        "issue": "wrong accept state",
                        "states": sorted(states),
                        "expected_state": want,
                    }
            if len(word) < cfg.word_length:
                for s in range(sys.rank):
                    stack.append((word + (s,), sys.right_mul(g, s)))

        # every pivot labels exactly one edge out of the empty start state
        pivot_words = [e.pivot_word for e in aut.edges if e.source == aut.start]
        details = {
            "words_checked": n_words,
            "accepted": n_accepted,
            "max_word_length": cfg.word_length,
            "pivots": len(pivot_words),
            "max_pivot_length": max(map(len, pivot_words), default=0),
            "states": len(aut.states),
            "edges": len(aut.edges),
        }
        if mismatch is None:
            return CheckResult("automaton-language-agreement", "pass", details)
        return CheckResult("automaton-language-agreement", "fail", details, mismatch)

    # sharp-angled sampling -------------------------------------------------

    def check_separator_sampling(self) -> CheckResult:
        cfg = self.config
        sys, geo = self.system, self.geometry
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
        pair_data: dict[frozenset[Wall], tuple[GroupElement, int, int, Wall, Wall]] = {}
        for u in ball:
            for a, b in simple_pairs:
                wr = geo.wall_of_root(u.matrix[a])
                wq = geo.wall_of_root(u.matrix[b])
                key = frozenset((wr, wq))
                if key not in pair_data:
                    pair_data[key] = (u, a, b, wr, wq)
        if not pair_data:
            return CheckResult(
                name, "skipped", {"reason": "no noncommuting finite-order pair"}
            )

        orbit_cache: dict[tuple, tuple[Wall, ...]] = {}

        def orbit_walls(u: GroupElement, a: int, b: int) -> tuple[Wall, ...]:
            m = sys.cox.orders[a][b]
            alt = tuple((a, b)[i % 2] for i in range(m))
            key = (u, a, b)
            got = orbit_cache.get(key)
            if got is None:
                dihedral_top = sys.element_of_word(alt)
                got = tuple(
                    geo.translate_wall(u, w)
                    for w in sorted(
                        geo.inversion_walls(dihedral_top), key=lambda w: w.root
                    )
                )
                orbit_cache[key] = got
            return got

        # (pair, ball element) combinations are drawn without replacement by a
        # lazy Fisher-Yates shuffle of their indices: `moved` holds only the
        # positions a draw has swapped, so drawing n of them costs O(n).
        keys = sorted(pair_data, key=lambda k: sorted(w.root for w in k))
        n_combos = len(keys) * len(ball)
        rng = random.Random(cfg.seed)
        moved: dict[int, int] = {}

        n_samples = 0
        n_walls = 0
        for i in range(n_combos):
            if n_samples >= cfg.separator_samples:
                break
            j = rng.randrange(i, n_combos)
            pick = moved.get(j, j)
            moved[j] = moved.get(i, i)
            u, a, b, wr, wq = pair_data[keys[pick // len(ball)]]
            g = ball[pick % len(ball)]
            # t is a left descent of u^{-1} g iff the wall of u(alpha_t), one
            # of wr and wq, lies between chambers u and g
            between = geo.inversion_bits(u) ^ geo.inversion_bits(g)
            descents = bool(wr.bit & between) + bool(wq.bit & between)
            if descents == 1:
                continue  # g sits strictly between the two walls' sectors
            if not (geo.has_separator(g, wr) or geo.has_separator(g, wq)):
                continue  # hypothesis not met: nothing separates g from the pair
            n_samples += 1
            for wall in orbit_walls(u, a, b):
                if wall is wr or wall is wq:
                    continue
                n_walls += 1
                if not geo.has_separator(g, wall):
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
        if n_samples < cfg.separator_samples:
            self.warnings.append(
                f"sharp-angled sampling found only {n_samples} qualifying "
                f"configurations (target {cfg.separator_samples})"
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
        if cfg.radius <= cfg.margin:
            self.warnings.append(
                "radius does not exceed the trim margin; distance-based "
                "estimates are vacuous"
            )
        checks = [self.check_unique_max()]
        constants = self.estimate_constants()
        checks.append(self.check_constants_monotone())
        checks.append(self.check_projection_monotone())
        checks.append(self.check_fellow_traveller())
        checks.append(self.check_automaton_agreement())
        checks.append(self.check_separator_sampling())
        cox = self.system.cox
        return VerificationReport(
            group={
                "generators": list(cox.generators),
                "m": [list(row) for row in cox.orders],
            },
            radius=cfg.radius,
            constants=constants,
            checks=checks,
            warnings=list(self.warnings),
        )


def run_suite(
    geometry: WallGeometry, config: VerifierConfig = VerifierConfig()
) -> VerificationReport:
    return Verifier(geometry, config).run_suite()
