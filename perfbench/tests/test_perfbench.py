"""Tests of the benchmark itself: inputs, tracer fidelity and output gates.

    python3 -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import voracious  # noqa: E402

import run  # noqa: E402
import workloads as W  # noqa: E402
from pace import NOMINAL_S, Pace  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402


# -- inputs --------------------------------------------------------------------


def test_inputs_are_deterministic_per_seed_and_differ_across_seeds():
    assert W.nf_words(7, 0, 16, 5) == W.nf_words(7, 0, 16, 5)
    assert W.nf_words(7, 0, 16, 5) != W.nf_words(8, 0, 16, 5)
    assert W.nf_words(7, 0, 16, 5) != W.nf_words(7, 1, 16, 5)
    assert W.a3t_words(7, 0, 50, 5) == W.a3t_words(7, 0, 50, 5)
    assert W.a3t_words(7, 0, 50, 5) != W.a3t_words(8, 0, 50, 5)


@pytest.fixture(scope="module")
def stack_334():
    system, geometry = W.group_system(voracious, "334")
    aut = W.build(voracious, geometry, W.NF_PIVOT_CAP)
    return system, voracious.VoraciousLanguage(geometry), aut


def test_geodesic_inputs_have_the_requested_length(stack_334):
    system, _, _ = stack_334
    for word in W.nf_words(3, 0, W.NF_WORD_LENGTH, 5):
        assert system.element_of_word(word).length == W.NF_WORD_LENGTH


# -- tracing -------------------------------------------------------------------


def _run_nf(trace, monkeypatch):
    monkeypatch.setattr(W.NormalForm334, "word_count", 4)
    monkeypatch.setattr(W.NormalForm334, "word_length", 10)
    workload = W.NormalForm334(voracious, 5, 0)
    tracer = Tracer(voracious) if trace else None
    if tracer:
        tracer.install()
    try:
        workload.setup()
        workload.run()
    finally:
        if tracer:
            tracer.restore()
    workload.check()
    return workload, tracer


def test_tracing_leaves_outputs_unchanged_and_restores_originals(monkeypatch):
    originals = {
        "sign_of": vars(voracious.FieldContext)["sign_of"],
        "__radd__": vars(voracious.FieldScalar)["__radd__"],
        "verify.build_automaton": voracious.verify.build_automaton,
        "automaton.build_automaton": voracious.automaton.build_automaton,
    }
    plain, _ = _run_nf(False, monkeypatch)
    traced, tracer = _run_nf(True, monkeypatch)
    assert plain.failed == traced.failed == 0
    assert plain.digest.hexdigest() == traced.digest.hexdigest()
    assert vars(voracious.FieldContext)["sign_of"] is originals["sign_of"]
    assert vars(voracious.FieldScalar)["__radd__"] is originals["__radd__"]
    assert voracious.verify.build_automaton is originals["verify.build_automaton"]
    assert voracious.automaton.build_automaton is originals["automaton.build_automaton"]
    metrics = tracer.metrics()
    assert set(metrics) == {name for name, _, _ in PER_LAYER}
    assert metrics["language.canonical_word.calls"] == 4
    assert metrics["automaton.accepts.calls"] == 4
    assert metrics["automaton.build_automaton.self_s"] > 0
    assert metrics["field.sign_of.calls"] >= metrics["field.sign_of.distinct"] > 0


def test_tracer_wraps_every_binding_of_a_module_function():
    original = voracious.build_automaton
    tracer = Tracer(voracious)
    tracer.install()
    try:
        wrapped = voracious.verify.build_automaton
        assert wrapped is not original
        assert voracious.automaton.build_automaton is wrapped
        assert voracious.build_automaton is wrapped
    finally:
        tracer.restore()
    assert voracious.verify.build_automaton is original


# -- gates ---------------------------------------------------------------------


def _report(**changes):
    fields = dict(
        checks=[SimpleNamespace(name=f"c{i}", status="pass") for i in range(6)],
        constants=SimpleNamespace(**W.VERIFY_CONSTANTS),
        warnings=[],
    )
    fields.update(changes)
    return SimpleNamespace(**fields)


def test_verify_gate_rejects_wrong_answers():
    assert W.verify_problems(_report()) == []
    failing = [SimpleNamespace(name=f"c{i}", status="pass") for i in range(5)]
    failing.append(SimpleNamespace(name="c5", status="fail"))
    assert W.verify_problems(_report(checks=failing))
    assert W.verify_problems(_report(checks=failing[:5]))
    for key in W.VERIFY_CONSTANTS:
        wrong = dict(W.VERIFY_CONSTANTS, **{key: W.VERIFY_CONSTANTS[key] + 1})
        assert W.verify_problems(_report(constants=SimpleNamespace(**wrong)))
    assert W.verify_problems(_report(warnings=["pivot enumeration saturated"]))


def test_automaton_gate_rejects_wrong_counts():
    assert W.a3t_build_problems(dict(W.A3T_COUNTS), "{}") == []
    for key in W.A3T_COUNTS:
        wrong = dict(W.A3T_COUNTS, **{key: W.A3T_COUNTS[key] - 1})
        assert W.a3t_build_problems(wrong, "{}")
    assert W.a3t_build_problems(dict(W.A3T_COUNTS), "")


def test_accept_gate_rejects_wrong_answers():
    word = (0, 1) * 25
    assert W.accept_problem(word, False, False, 12) is None
    assert W.accept_problem(word, True, True, 50) is None
    assert W.accept_problem(word, True, False, 50)
    assert W.accept_problem(word, False, True, 50)
    assert W.accept_problem(word, True, True, 48)


def test_normal_form_gate_rejects_mutated_canonical_words(stack_334):
    system, language, aut = stack_334
    word = W.nf_words(11, 0, 10, 1)[0]
    element = system.element_of_word(word)
    canonical = language.canonical_word(element)
    assert W.nf_problem(system, language, word, element, canonical, True) is None
    assert W.nf_problem(system, language, word, element, canonical, False)
    mutants = [
        canonical[:-1],
        canonical[::-1],
        canonical[1:] + canonical[:1],
        tuple((x + 1) % 3 for x in canonical),
        canonical[:2] + canonical[3:] + canonical[2:3],
    ]
    for mutant in mutants:
        if mutant != canonical:
            assert W.nf_problem(system, language, word, element, mutant, True)
    longer = word + (word[-1],)
    assert W.nf_problem(system, language, longer, element, canonical, True)


# -- reporting -----------------------------------------------------------------


def test_pace_rescales_by_the_slices_of_the_phase():
    pace = Pace()
    pace.samples = [(0.0, NOMINAL_S), (1.0, 2 * NOMINAL_S), (2.0, 2 * NOMINAL_S)]
    assert pace.nominal(10.0, 1.5, 2.5) == pytest.approx(5.0)  # twice as slow
    assert pace.nominal(10.0, 0.5, 1.5) == pytest.approx(7.5)  # mean of both rates


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail(list(range(19)))[0] is None
    assert run.tail(list(range(20)))[0] == 50
    assert run.tail(list(range(100))) == (90, 90)
    assert run.tail(list(range(4500)))[0] == 99


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _, _ in PER_LAYER]
    assert [m["unit"] for m in spec["per_layer"]] == [unit for _, unit, _ in PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.end_to_end(
        [{"setup_s": 1.0, "run_s": 1.0, "peak_rss_mb": 1.0}]
    ))
