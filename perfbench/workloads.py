"""The benchmark's workloads: seeded inputs, timed operations and output gates.

Every workload is a closed loop: one client in one single-threaded process,
each operation starting after the previous one ends.  Inputs are made here
from the seed and never from the engine, so a seed gives the same inputs on
any commit.  Workloads call only names in `voracious.__all__`.
"""

from __future__ import annotations

import hashlib
import inspect
import math
import random
import time
import traceback

GROUPS = {
    "334": (("a", "b", "c"), ((1, 3, 3), (3, 1, 4), (3, 4, 1))),
    "a3t": (
        ("a", "b", "c", "d"),
        ((1, 3, 2, 3), (3, 1, 3, 2), (2, 3, 1, 3), (3, 2, 3, 1)),
    ),
}

VERIFY_RADIUS = 8
VERIFY_CONSTANTS = {
    "C_hat": 5,
    "N_hat": 4,
    "Q_hat": 1,
    "Q_hat_canonical": 7,
    "ft_ii_max": 4,
    "ft_iii_max": 3,
}
VERIFY_MIN_CHECKS = 6

A3T_PIVOT_CAP = 11  # past the last pivot (length 10)
A3T_COUNTS = {"universe": 12, "states": 125, "edges": 872, "pivots": 124}
A3T_WORD_LENGTH = 50
A3T_WORDS = 1500

NF_PIVOT_CAP = 6  # past the last (3,3,4) pivot (length 5)
NF_WORD_LENGTH = 16
NF_WORDS = 30

MAX_PROBLEMS = 5


def group_system(voracious, key):
    generators, orders = GROUPS[key]
    system = voracious.CoxeterSystem(voracious.CoxeterMatrix(generators, orders))
    return system, voracious.WallGeometry(system)


def build(voracious, geometry, pivot_cap):
    """build_automaton, passing pivot_cap only while the signature has it."""
    params = inspect.signature(voracious.build_automaton).parameters
    if "pivot_cap" in params:
        return voracious.build_automaton(geometry, pivot_cap=pivot_cap)
    return voracious.build_automaton(geometry)


# -- inputs ------------------------------------------------------------------


def input_rng(workload, seed, index):
    return random.Random(f"{workload}:{seed}:{index}")


def random_words(rng, rank, length, count):
    """Uniformly random words over the generators."""
    return [tuple(rng.randrange(rank) for _ in range(length)) for _ in range(count)]


def random_geodesic(rng, orders, length):
    """Random reduced word: each letter is a uniform choice among ascents.

    Uses a floating-point copy of the geometric representation, independent
    of the engine.  w*s is longer than w iff w(alpha_s) is a positive root;
    a root's coordinates share one sign, so the largest one decides it.
    """
    k = len(orders)
    gram2 = [
        [
            2.0 if i == j
            else -2.0 if orders[i][j] == 0
            else -2.0 * math.cos(math.pi / orders[i][j])
            for j in range(k)
        ]
        for i in range(k)
    ]
    cols = [[1.0 if i == j else 0.0 for i in range(k)] for j in range(k)]  # w(alpha_j)
    word = []
    while len(word) < length:
        ascents = []
        for s in range(k):
            big = max(cols[s], key=abs)
            if abs(big) < 1e-6 or any(x * big < -1e-9 * big * big for x in cols[s]):
                raise ArithmeticError("float root sign is ambiguous")
            if big > 0:
                ascents.append(s)
        s = rng.choice(ascents)
        word.append(s)
        # w s (alpha_j) = w(alpha_j) - 2B(alpha_s, alpha_j) w(alpha_s)
        ws = cols[s]
        cols = [
            [x - gram2[s][j] * y for x, y in zip(cols[j], ws)] for j in range(k)
        ]
    return tuple(word)


def nf_words(seed, index, length, count):
    rng = input_rng("normal-form-334", seed, index)
    orders = GROUPS["334"][1]
    return [random_geodesic(rng, orders, length) for _ in range(count)]


def a3t_words(seed, index, length, count):
    rng = input_rng("automaton-a3t", seed, index)
    return random_words(rng, len(GROUPS["a3t"][0]), length, count)


# -- gates -------------------------------------------------------------------


def verify_problems(report) -> list[str]:
    """The suite passed every check, with the frozen constants and no warnings."""
    out = []
    bad = [(c.name, c.status) for c in report.checks if c.status != "pass"]
    if len(report.checks) < VERIFY_MIN_CHECKS or bad:
        out.append(f"checks not all passing: {len(report.checks)} checks, {bad}")
    for key, want in VERIFY_CONSTANTS.items():
        got = getattr(report.constants, key, None)
        if got != want:
            out.append(f"constant {key}={got}, expected {want}")
    if report.warnings:
        out.append(f"warnings: {list(report.warnings)}")
    return out


def automaton_counts(aut) -> dict[str, int]:
    # every pivot labels an edge out of the empty start state
    return {
        "universe": len(aut.universe),
        "states": len(aut.states),
        "edges": len(aut.edges),
        "pivots": len({e.pivot_word for e in aut.edges}),
    }


def a3t_build_problems(counts, json_text) -> list[str]:
    out = [
        f"{key}={counts[key]}, expected {want}"
        for key, want in A3T_COUNTS.items()
        if counts[key] != want
    ]
    if not json_text.strip().startswith("{"):
        out.append("to_json() did not produce a JSON object")
    return out


def accept_problem(word, accepted, member, length) -> str | None:
    """An accept answer must match membership and accept only geodesics."""
    if accepted != member:
        return f"accepts={accepted} but contains={member} for {word}"
    if accepted and length != len(word):
        return f"accepted non-geodesic word {word}"
    return None


def nf_problem(system, language, word, element, canonical, accepted) -> str | None:
    """The canonical word evaluates to the query element, has its length, is
    a language member and is accepted; the query word is itself geodesic."""
    if element.length != len(word):
        return f"query word {word} has length {element.length}"
    if len(canonical) != element.length:
        return f"canonical word {canonical} is not of length {element.length}"
    if system.element_of_word(canonical) != element:
        return f"canonical word {canonical} does not evaluate to {word}"
    if not language.contains(canonical):
        return f"canonical word {canonical} is not a language member"
    if not accepted:
        return f"canonical word {canonical} was rejected"
    return None


# -- workloads ---------------------------------------------------------------


class Workload:
    """One repeat: set up, run timed operations, then check outputs.

    `ops` maps an operation name to its latencies in seconds; `failed` counts
    operations whose output failed a gate or that raised.  Latencies are read
    from `clock`, which the worker points at the reference pace's clock.
    """

    name = ""
    clock = staticmethod(time.perf_counter)

    def __init__(self, voracious, seed, index):
        self.v = voracious
        self.seed = seed
        self.index = index
        self.ops: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digest = hashlib.sha256()

    def problem(self, text) -> None:
        self.failed += 1
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(text)

    def timed(self, op, fn, *args):
        """Run one operation; returns (ok, result) and records its latency."""
        self.attempted += 1
        t0 = self.clock()
        try:
            result = fn(*args)
        except Exception:
            traceback.print_exc()
            self.problem(f"{op} raised")
            return False, None
        finally:
            self.ops.setdefault(op, []).append(self.clock() - t0)
        return True, result

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> None:
        raise NotImplementedError

    def check(self) -> None:
        raise NotImplementedError


class Verify334(Workload):
    """Verifier(...).run_suite() at radius 8 on triangle (3,3,4)."""

    name = "verify-334"

    def setup(self):
        _, self.geometry = group_system(self.v, "334")
        self.config = self.v.VerifierConfig(radius=VERIFY_RADIUS, seed=self.seed)
        self.report = None

    def run(self):
        ok, report = self.timed(
            "suite", lambda: self.v.Verifier(self.geometry, self.config).run_suite()
        )
        if ok:
            self.report = report
            self.digest.update(report.to_json().encode())

    def check(self):
        if self.report is not None:
            for text in verify_problems(self.report):
                self.problem(text)


class AutomatonA3t(Workload):
    """Build the affine A~3 automaton, then run accepts on random words."""

    name = "automaton-a3t"
    word_length = A3T_WORD_LENGTH
    word_count = A3T_WORDS

    def setup(self):
        self.system, self.geometry = group_system(self.v, "a3t")
        self.words = a3t_words(self.seed, self.index, self.word_length, self.word_count)
        self.answers = []
        self.aut = None

    def run(self):
        def build_and_dump():
            aut = build(self.v, self.geometry, A3T_PIVOT_CAP)
            return aut, aut.to_json()

        ok, got = self.timed("build", build_and_dump)
        if not ok:
            return
        self.aut, self.json_text = got
        self.digest.update(self.json_text.encode())
        for word in self.words:
            ok, accepted = self.timed("accept", self.aut.accepts, word)
            self.answers.append(accepted if ok else None)
            self.digest.update(b"1" if accepted else b"0")

    def check(self):
        if self.aut is None:
            return
        for text in a3t_build_problems(automaton_counts(self.aut), self.json_text):
            self.problem(text)
        language = self.v.VoraciousLanguage(self.geometry)
        for word, accepted in zip(self.words, self.answers):
            if accepted is None:
                continue
            text = accept_problem(
                word,
                accepted,
                language.contains(word),
                self.system.element_of_word(word).length,
            )
            if text:
                self.problem(text)


class NormalForm334(Workload):
    """Normal forms of long (3,3,4) elements, then acceptance of each."""

    name = "normal-form-334"
    word_length = NF_WORD_LENGTH
    word_count = NF_WORDS

    def setup(self):
        self.system, geometry = group_system(self.v, "334")
        self.aut = build(self.v, geometry, NF_PIVOT_CAP)
        self.language = self.v.VoraciousLanguage(geometry)
        self.gate_language = self.v.VoraciousLanguage(geometry)
        self.words = nf_words(self.seed, self.index, self.word_length, self.word_count)
        self.results = []

    def normal_form(self, word):
        element = self.system.element_of_word(word)
        return element, self.language.canonical_word(element)

    def run(self):
        for word in self.words:
            ok, got = self.timed("nf", self.normal_form, word)
            if not ok:
                continue
            element, canonical = got
            ok, accepted = self.timed("accept", self.aut.accepts, canonical)
            if not ok:
                continue
            self.results.append((word, element, canonical, accepted))
            self.digest.update(repr((canonical, accepted)).encode())

    def check(self):
        for word, element, canonical, accepted in self.results:
            text = nf_problem(
                self.system, self.gate_language, word, element, canonical, accepted
            )
            if text:
                self.problem(text)


WORKLOADS = {w.name: w for w in (Verify334, AutomatonA3t, NormalForm334)}
