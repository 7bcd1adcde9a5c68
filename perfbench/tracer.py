"""Span tracer that wraps the engine's calls from outside the program.

Each probed callable is replaced, wherever its name is looked up, by a wrapper
that records a span (name, start, end, parent) in memory.  Class methods are
patched on the class that defines them, so every lookup through an instance
sees the wrapper; module functions are patched in every loaded `voracious`
module that binds them (`voracious.verify.build_automaton` is a separate
binding from `voracious.automaton.build_automaton`).  `restore()` puts every
original back.  Names missing from the engine are skipped and their metrics
read 0, so removing API needs no benchmark edit.

A span's self time is its duration minus the durations of its child spans.
Scalar arithmetic is counted, not spanned: its time stays in the self time of
the span that called it.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from fractions import Fraction


def _arg1(args, kwargs):
    return args[1]


def _arg12(args, kwargs):
    return args[1], args[2]


def _pair(args, kwargs):
    return frozenset(args[1:3])


# (span name, owner, attribute, distinct-argument key or None).  An owner is a
# class named in voracious.__all__; None means a module-level function.
SPANS = (
    ("field.sign_of", "FieldContext", "sign_of", _arg1),
    ("field.refine_enclosure", "FieldContext", "refine_enclosure", None),
    ("coxeter.right_mul", "CoxeterSystem", "right_mul", _arg12),
    ("coxeter.left_mul", "CoxeterSystem", "left_mul", _arg12),
    ("coxeter.matmul", "CoxeterSystem", "matmul", None),
    ("coxeter.multiply", "CoxeterSystem", "multiply", None),
    ("coxeter.apply_matrix", "CoxeterSystem", "apply_matrix", None),
    ("coxeter.length_of_matrix", "CoxeterSystem", "length_of_matrix", None),
    ("coxeter.element_of_word", "CoxeterSystem", "element_of_word", None),
    ("coxeter.ball", "CoxeterSystem", "ball", None),
    ("coxeter.shortlex_word", "CoxeterSystem", "shortlex_word", None),
    ("coxeter.reduced_words", "CoxeterSystem", "reduced_words", None),
    ("walls.wall_of_root", "WallGeometry", "wall_of_root", None),
    ("walls.translate_wall", "WallGeometry", "translate_wall", None),
    ("walls.inversion_walls", "WallGeometry", "inversion_walls", _arg1),
    ("walls.frontier_set", "WallGeometry", "frontier_set", _arg1),
    ("walls.voracious_projection", "WallGeometry", "voracious_projection", None),
    ("walls.projection_candidates", "WallGeometry", "projection_candidates", None),
    ("walls.find_separator", "WallGeometry", "find_separator", None),
    ("walls.walls_disjoint", "WallGeometry", "walls_disjoint", _pair),
    ("walls.incident_chamber", "WallGeometry", "incident_chamber", _arg1),
    ("language.chain", "VoraciousLanguage", "chain", None),
    ("language.canonical_word", "VoraciousLanguage", "canonical_word", None),
    ("language.contains", "VoraciousLanguage", "contains", None),
    ("language.all_words_of", "VoraciousLanguage", "all_words_of", _arg1),
    ("automaton.small_roots", None, "small_roots", None),
    ("automaton.pivots", None, "pivots", None),
    ("automaton.build_automaton", None, "build_automaton", None),
    ("automaton.to_json", "VoraciousAutomaton", "to_json", None),
    ("automaton.accepts", "VoraciousAutomaton", "accepts", None),
    ("automaton.run_states", "VoraciousAutomaton", "run_states", None),
    ("verify.run_suite", "Verifier", "run_suite", None),
    ("verify.estimate_constants", "Verifier", "estimate_constants", None),
    ("verify.check_unique_max", "Verifier", "check_unique_max", None),
    ("verify.check_constants_monotone", "Verifier", "check_constants_monotone", None),
    ("verify.check_projection_monotone", "Verifier", "check_projection_monotone", None),
    ("verify.check_fellow_traveller", "Verifier", "check_fellow_traveller", None),
    ("verify.check_automaton_agreement", "Verifier", "check_automaton_agreement", None),
    ("verify.check_separator_sampling", "Verifier", "check_separator_sampling", None),
)

# (counter name, owner class, attributes): counted calls without spans.
COUNTERS = (
    (
        "field.scalar_ops",
        "FieldScalar",
        ("__add__", "__sub__", "__rsub__", "__neg__", "__mul__",
         "__truediv__", "__rtruediv__", "__pow__", "inverse"),
    ),
    ("walls.walls_created", "Wall", ("__init__",)),
)

VERIFY_CHECKS = (
    "check_unique_max",
    "check_constants_monotone",
    "check_projection_monotone",
    "check_fellow_traveller",
    "check_automaton_agreement",
    "check_separator_sampling",
)

# Every per-layer metric a traced run reports, as (name, unit, better).
PER_LAYER = (
    ("field.sign_of.calls", "count", "lower"),
    ("field.sign_of.distinct", "count", "lower"),
    ("field.sign_of.self_s", "s", "lower"),
    ("field.refine_enclosure.calls", "count", "lower"),
    ("field.scalar_ops", "count", "lower"),
    ("field.max_coeff_bits", "bits", "lower"),
    ("field.self_s", "s", "lower"),
    ("coxeter.right_mul.calls", "count", "lower"),
    ("coxeter.right_mul.distinct", "count", "lower"),
    ("coxeter.left_mul.calls", "count", "lower"),
    ("coxeter.left_mul.distinct", "count", "lower"),
    ("coxeter.matmul.calls", "count", "lower"),
    ("coxeter.multiply.calls", "count", "lower"),
    ("coxeter.ball.elements", "count", "lower"),
    ("coxeter.ball.self_s", "s", "lower"),
    ("coxeter.shortlex_word.self_s", "s", "lower"),
    ("coxeter.reduced_words.self_s", "s", "lower"),
    ("coxeter.self_s", "s", "lower"),
    ("walls.inversion_walls.calls", "count", "lower"),
    ("walls.inversion_walls.distinct", "count", "lower"),
    ("walls.inversion_walls.self_s", "s", "lower"),
    ("walls.frontier_set.calls", "count", "lower"),
    ("walls.frontier_set.distinct", "count", "lower"),
    ("walls.frontier_set.self_s", "s", "lower"),
    ("walls.voracious_projection.calls", "count", "lower"),
    ("walls.voracious_projection.ordered_calls", "count", "lower"),
    ("walls.voracious_projection.self_s", "s", "lower"),
    ("walls.projection_candidates.calls", "count", "lower"),
    ("walls.projection_candidates.self_s", "s", "lower"),
    ("walls.find_separator.calls", "count", "lower"),
    ("walls.find_separator.self_s", "s", "lower"),
    ("walls.walls_disjoint.calls", "count", "lower"),
    ("walls.walls_disjoint.distinct", "count", "lower"),
    ("walls.incident_chamber.calls", "count", "lower"),
    ("walls.incident_chamber.distinct", "count", "lower"),
    ("walls.walls_created", "count", "lower"),
    ("walls.self_s", "s", "lower"),
    ("language.chain.calls", "count", "lower"),
    ("language.chain.self_s", "s", "lower"),
    ("language.canonical_word.calls", "count", "lower"),
    ("language.canonical_word.self_s", "s", "lower"),
    ("language.contains.calls", "count", "lower"),
    ("language.contains.self_s", "s", "lower"),
    ("language.all_words_of.calls", "count", "lower"),
    ("language.all_words_of.self_s", "s", "lower"),
    ("language.words_generated", "count", "lower"),
    ("language.self_s", "s", "lower"),
    ("automaton.small_roots.self_s", "s", "lower"),
    ("automaton.pivots.self_s", "s", "lower"),
    ("automaton.pivots.count", "count", "lower"),
    ("automaton.pivots.scanned", "count", "lower"),
    ("automaton.build_automaton.self_s", "s", "lower"),
    ("automaton.to_json.self_s", "s", "lower"),
    ("automaton.universe", "count", "lower"),
    ("automaton.states", "count", "lower"),
    ("automaton.edges", "count", "lower"),
    ("automaton.accepts.calls", "count", "lower"),
    ("automaton.accepts.self_s", "s", "lower"),
    ("automaton.run_states.self_s", "s", "lower"),
    ("automaton.self_s", "s", "lower"),
    *((f"verify.{name}.s", "s", "lower") for name in VERIFY_CHECKS),
    ("verify.estimate_constants.s", "s", "lower"),
    ("verify.elements", "count", "higher"),
    ("verify.word_pairs", "count", "higher"),
    ("verify.words_checked", "count", "higher"),
    ("verify.self_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead", "ratio", "lower"),
)


def _coeff_bits(coeffs) -> int:
    bits = 0
    for c in coeffs:
        if isinstance(c, Fraction):
            bits = max(bits, abs(c.numerator).bit_length(), c.denominator.bit_length())
        else:
            bits = max(bits, abs(c).bit_length())
    return bits


def _voracious_modules():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "voracious" or name.startswith("voracious."))
    ]


class Tracer:
    """Records spans of probed engine calls between install() and restore()."""

    def __init__(self, voracious):
        self.voracious = voracious
        self.span_names: list[str] = []
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self.distinct: dict[str, set] = {}
        self.counts: dict[str, list[int]] = {}
        self.values: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- patching ------------------------------------------------------------

    def _owner(self, name):
        if name in getattr(self.voracious, "__all__", ()):
            return getattr(self.voracious, name, None)
        return None

    def _patch_class(self, cls, attr, make):
        original = vars(cls).get(attr)
        if original is None:
            return
        wrapper = make(original)
        for other, value in list(vars(cls).items()):
            if value is original:  # aliases such as __radd__ = __add__
                setattr(cls, other, wrapper)
                self._patched.append((cls, other, original))

    def _patch_function(self, attr, make):
        original = self._owner(attr)
        if original is None:
            return
        wrapper = make(original)
        for mod in _voracious_modules():
            for other, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, other, wrapper)
                    self._patched.append((mod, other, original))

    def install(self) -> None:
        for span, owner, attr, key in SPANS:
            make = functools.partial(self._span_wrapper, span, key)
            if owner is None:
                self._patch_function(attr, make)
            else:
                cls = self._owner(owner)
                if cls is not None:
                    self._patch_class(cls, attr, make)
        for counter, owner, attrs in COUNTERS:
            cls = self._owner(owner)
            cell = self.counts.setdefault(counter, [0])
            if cls is not None:
                for attr in attrs:
                    self._patch_class(cls, attr, functools.partial(_counted, cell))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- recording -----------------------------------------------------------

    def _span_wrapper(self, span, key, fn):
        nid = len(self.span_names)
        self.span_names.append(span)
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack = self._stack
        seen = self.distinct.setdefault(span, set()) if key is not None else None
        after = getattr(self, "_after_" + span.replace(".", "_"), None)
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf()
                starts[idx] = t0
                stack.pop()
            if seen is not None:
                k = key(args, kwargs)
                if k not in seen:
                    seen.add(k)
                    if after is not None:
                        after(args, kwargs, result)
            elif after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _bump(self, name, amount=1):
        self.values[name] = self.values.get(name, 0) + amount

    def _after_field_sign_of(self, args, kwargs, result):
        bits = _coeff_bits(args[1])
        if bits > self.values.get("field.max_coeff_bits", 0):
            self.values["field.max_coeff_bits"] = bits

    def _after_coxeter_ball(self, args, kwargs, result):
        self._bump("coxeter.ball.elements", len(result))

    def _after_walls_voracious_projection(self, args, kwargs, result):
        if kwargs.get("order", args[2] if len(args) > 2 else None) is not None:
            self._bump("walls.voracious_projection.ordered_calls")

    def _after_language_all_words_of(self, args, kwargs, result):
        self._bump("language.words_generated", len(result))

    def _after_automaton_pivots(self, args, kwargs, result):
        # (pivots, saturated) today; a bare pivot tuple once the cap goes
        if len(result) == 2 and isinstance(result[1], bool):
            result = result[0]
        self.values["automaton.pivots.count"] = len(result)

    def _after_automaton_build_automaton(self, args, kwargs, result):
        self.values["automaton.universe"] = len(result.universe)
        self.values["automaton.states"] = len(result.states)
        self.values["automaton.edges"] = len(result.edges)

    def _after_verify_check_unique_max(self, args, kwargs, result):
        self.values["verify.elements"] = result.details.get("elements", 0)

    def _after_verify_check_fellow_traveller(self, args, kwargs, result):
        self.values["verify.word_pairs"] = result.details.get("pairs_checked", 0)

    def _after_verify_check_automaton_agreement(self, args, kwargs, result):
        self.values["verify.words_checked"] = result.details.get("words_checked", 0)

    # -- reporting -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded; names as in PER_LAYER."""
        n = len(self.names)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        inclusive: dict[str, float] = {}
        for i in range(n):
            span = self.span_names[self.names[i]]
            dur = self.ends[i] - self.starts[i]
            calls[span] = calls.get(span, 0) + 1
            self_s[span] = self_s.get(span, 0.0) + dur - child[i]
            inclusive[span] = inclusive.get(span, 0.0) + dur
        pivots_id = [j for j, s in enumerate(self.span_names) if s == "automaton.pivots"]
        scanned = sum(
            1
            for i in range(n)
            if self.span_names[self.names[i]] == "walls.voracious_projection"
            and self.parents[i] >= 0
            and self.names[self.parents[i]] in pivots_id
        )
        out: dict[str, float] = {}
        for name, unit, _ in PER_LAYER:
            if name in self.values:
                out[name] = self.values[name]
            elif name in self.counts:
                out[name] = self.counts[name][0]
            elif name.endswith(".calls"):
                out[name] = calls.get(name[: -len(".calls")], 0)
            elif name.endswith(".distinct"):
                out[name] = len(self.distinct.get(name[: -len(".distinct")], ()))
            elif name.endswith(".self_s") and name.count(".") == 1:
                layer = name.split(".")[0]
                out[name] = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
            elif name.endswith(".self_s"):
                out[name] = self_s.get(name[: -len(".self_s")], 0.0)
            elif name.startswith("verify.") and name.endswith(".s"):
                out[name] = inclusive.get(name[: -len(".s")], 0.0)
            else:
                out[name] = 0
        out["automaton.pivots.scanned"] = scanned
        out["trace.spans"] = n
        return out

    def write_spans(self, path) -> None:
        """Header line of JSON, then the name, parent, start, end arrays."""
        header = {
            "names": self.span_names,
            "count": len(self.names),
            "arrays": ["name:i", "parent:i", "start:d", "end:d"],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.names, self.parents, self.starts, self.ends):
                arr.tofile(fh)


def _counted(cell, fn):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        cell[0] += 1
        return fn(*args, **kwargs)

    return counted
