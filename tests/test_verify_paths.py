"""Symbolic all-branch verification against the forced-branch enumerator it replaced.

The oracle below is the earlier exhaustive check: re-simulate the circuit
once per forced outcome pattern with the earlier concrete loop
(``helpers_circuit.reference_simulate``, which shares no walk with the
symbolic pass), skip the patterns a deterministic measurement contradicts,
and compare each realizable branch with the target.  Unlike the old loop it
does not stop at the first mismatch, so ``realizable`` is the full count on
failing circuits too.  The symbolic pass
(``verify_preparation``, ``simulate_symbolic``) must agree with it on
``all_match``, ``realizable`` and ``branches`` for every small circuit below
and on random adaptive circuits, and its counterexample must replay as a
mismatch under ``simulate(..., forced=...)``.  ``helpers_circuit.wrong_branch``
compares every target generator in one plane pass; the per-generator
``sign_form`` loop it replaced is kept as an oracle, and the work the whole
check does is counted.  ``verify_preparation`` reads its seeded trials off the
symbolic pass; its reports and errors must match byte for byte those of
``helpers_circuit.reference_verify``, which simulates each trial, and it
draws no trial's outcomes when the pass finds every branch right.
"""

from __future__ import annotations

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptstab import circuit as ci
from adaptstab import prep
from adaptstab import tableau as tb
from adaptstab.circuit import (
    AdaptiveCircuit,
    Condition,
    Gate,
    Measure,
    ghz_adaptive,
    simulate,
    simulate_symbolic,
    validate,
)
from adaptstab.cli import main
from adaptstab.errors import ContradictionError
from adaptstab.pauli import PauliOperator, _bits, parse_pauli
from adaptstab.prep import StabilizerCode, build_code, builtin_code, prepare_state, verify_preparation
from adaptstab.tableau import from_stabilizers, ghz_state, states_equal, zero_state
from helpers_circuit import reference_simulate, reference_verify, wrong_branch
from helpers_tableau import sign_form
from test_tableau_paths import adaptive_programs, random_gate

# -- oracle: the replaced forced-branch loop ---------------------------------------------


def brute_force_verify(circuit, target):
    """(all_match, realizable, branches) over every forced outcome pattern."""
    realizable, all_match = 0, True
    for mask in range(1 << circuit.cbits):
        forced = [(mask >> i) & 1 for i in range(circuit.cbits)]
        try:
            tab, _ = reference_simulate(circuit, forced=forced)
        except ContradictionError:
            continue
        realizable += 1
        all_match = all_match and states_equal(tab, target)
    return all_match, realizable, 1 << circuit.cbits


def per_generator_wrong_branch(run, target):
    """The replaced comparison: one ``sign_form`` per target generator view."""
    t = run.tableau
    live = [q for q in range(t.n) if q not in run.measured]
    for g in target.generators:
        x = sum(1 << live[q] for q in _bits(g.x))
        z = sum(1 << live[q] for q in _bits(g.z))
        form = sign_form(t, run.forms, PauliOperator.from_exponent(t.n, x, z, g.e))
        if form is None:
            return 0
        if form:
            return 0 if form & 1 else form >> 1 & -(form >> 1)
    return None


def sign_broken(target, k):
    """``target`` with the sign of generator k flipped."""
    return from_stabilizers([g.negate() if i == k else g for i, g in enumerate(target.generators)])


def check_wrong_branch(circuit, target):
    """wrong_branch against the oracle on the target and on each copy of it
    with one generator's sign flipped; returns the values seen."""
    run = simulate_symbolic(circuit)
    seen = []
    for t in [target, *(sign_broken(target, k) for k in range(target.n))]:
        want = per_generator_wrong_branch(run, t)
        assert wrong_branch(run, t) == want
        seen.append(want)
    return seen


def symbolic_verify(circuit, target):
    report = verify_preparation(circuit, target, trials=0)
    if not report["all_match"]:
        tab, _ = simulate(circuit, forced=report["counterexample"])  # a realizable branch...
        assert not states_equal(tab, target)  # ...that ends in the wrong state
    return report["all_match"], report["realizable"], report["branches"]


def without_one_correction(circuit):
    """Every copy of the circuit with one conditioned gate removed, last gate first."""
    spots = [(li, i) for li, layer in enumerate(circuit.layers) for i, op in enumerate(layer) if isinstance(op, Gate) and op.cond]
    for li, i in reversed(spots):
        layers = [list(layer) for layer in circuit.layers]
        del layers[li][i]
        yield AdaptiveCircuit(circuit.m, circuit.cbits, [layer for layer in layers if layer])


# -- circuits the package builds --------------------------------------------------------

PREPARED = ["steane", "toric(2)"] + [f"repetition({n})" for n in range(3, 14)]
GHZ_LADDER = [(4, 1, 2), (8, 1, 2), (8, 2, 2), (8, 4, 2), (9, 3, 3), (13, 1, 2), (16, 2, 2), (16, 4, 2), (24, 4, 3)]


@pytest.mark.parametrize("name", PREPARED)
def test_prepared_circuits_match_oracle(name):
    circ, target = prepare_state(builtin_code(name))
    assert circ.cbits <= 12
    want = brute_force_verify(circ, target)
    assert want[0] is True
    assert symbolic_verify(circ, target) == want


@pytest.mark.parametrize("n,a,k", GHZ_LADDER)
def test_ghz_ladder_matches_oracle(n, a, k):
    circ = ghz_adaptive(n, a, k)
    assert circ.cbits <= 12
    want = brute_force_verify(circ, ghz_state(n))
    assert want == (True, 1 << circ.cbits, 1 << circ.cbits)
    assert symbolic_verify(circ, ghz_state(n)) == want


@pytest.mark.parametrize("name", ["steane", "toric(2)", "repetition(3)", "repetition(6)"])
def test_sabotaged_preparations_match_oracle(name):
    circ, target = prepare_state(builtin_code(name))
    outcomes = []
    for broken in [*without_one_correction(circ), AdaptiveCircuit(circ.m, circ.cbits, circ.layers[:-1])]:
        want = brute_force_verify(broken, target)
        assert symbolic_verify(broken, target) == want
        outcomes.append(want[0])
    assert False in outcomes


def test_sabotaged_ghz_matches_oracle():
    circ = ghz_adaptive(8, 2, 2)
    stripped = next(without_one_correction(circ))
    want = brute_force_verify(stripped, ghz_state(8))
    assert want == (False, 8, 8)
    assert symbolic_verify(stripped, ghz_state(8)) == want


def test_toric3_missing_correction_replays_as_mismatch():
    circ, target = prepare_state(builtin_code("toric(3)"))
    assert circ.cbits == 16
    report = verify_preparation(circ, target, trials=2)
    assert report["all_match"] and report["branches"] == 1 << 16 and report["realizable"] == 1 << 8
    # Corrections conditioned only on X checks, which |+>^n fixes to +1, never fire.
    stripped = next(c for c in without_one_correction(circ) if not verify_preparation(c, target, trials=0)["all_match"])
    for trials in (0, 4):
        report = verify_preparation(stripped, target, trials=trials)
        assert report["all_match"] is False
        pattern = [int(b) for b in report["counterexample"]]
        assert len(pattern) == 16
        tab, record = simulate(stripped, forced=pattern)
        assert record == pattern and not states_equal(tab, target)


def test_exhaustive_verification_at_scale():
    circ, target = prepare_state(builtin_code("toric(8)"))
    report = verify_preparation(circ, target, trials=1)
    assert report["all_match"] and report["branches"] == 1 << 126 and report["realizable"] == 1 << 63
    circ = ghz_adaptive(256, 16, 2)
    report = verify_preparation(circ, ghz_state(256), trials=1)
    assert report["all_match"] and report["branches"] == report["realizable"] == 1 << 15


# -- one plane pass for the final comparison ------------------------------------------


@pytest.mark.parametrize("name", ["steane", "toric(2)", "toric(3)", "repetition(5)"])
def test_wrong_branch_matches_per_generator_loop_on_prepared_circuits(name):
    circ, target = prepare_state(builtin_code(name))
    seen = set()
    for broken in [circ, *without_one_correction(circ)]:
        seen.update(v is None for v in check_wrong_branch(broken, target))
    assert seen == {True, False}


def test_wrong_branch_matches_per_generator_loop_on_ghz():
    values = set()
    for n, a, k in GHZ_LADDER:
        circ = ghz_adaptive(n, a, k)
        values.update(check_wrong_branch(circ, ghz_state(n)))
        values.update(check_wrong_branch(next(without_one_correction(circ)), ghz_state(n)))
        unrelated = from_stabilizers([PauliOperator(n, 1 << q, 0) for q in range(n)])
        assert wrong_branch(simulate_symbolic(circ), unrelated) == 0
    assert None in values and 0 in values and any(v for v in values)


@pytest.fixture
def work(monkeypatch):
    """Counts of simulate, symbolic-pass and measurement-run calls and of
    row-view builds, the target's kept apart."""
    counts = {"simulations": 0, "symbolic": 0, "runs": 0, "views": 0, "target_views": 0, "target": None}
    views, simulate_, run = tb.StabilizerTableau._row_views, prep.simulate, ci._measure_z_run
    symbolic_ = prep.simulate_symbolic

    def counting_run(*args):
        counts["runs"] += 1
        return run(*args)

    def counting_views(self):
        if self._rows is None:
            counts["target_views" if self is counts["target"] else "views"] += 1
        return views(self)

    def counting_simulate(*args, **kwargs):
        counts["simulations"] += 1
        return simulate_(*args, **kwargs)

    def counting_symbolic(*args):
        counts["symbolic"] += 1
        return symbolic_(*args)

    monkeypatch.setattr(prep, "simulate", counting_simulate)
    monkeypatch.setattr(prep, "simulate_symbolic", counting_symbolic)
    monkeypatch.setattr(tb.StabilizerTableau, "_row_views", counting_views)
    monkeypatch.setattr(ci, "_measure_z_run", counting_run)
    return counts


def test_ghz_verification_work_is_pinned(work):
    target = work["target"] = ghz_state(16)
    report = verify_preparation(ghz_adaptive(16, 2, 2), target, trials=20)
    assert report["all_match"] and report["realizable"] == 1 << 7
    # No simulated tableau is read as rows; the bound report reads the target once.
    assert (work["views"], work["target_views"]) == (0, 1)
    # The 20 seeded trials are read off the symbolic pass, not re-simulated;
    # its one measurement layer is one run.
    assert (work["simulations"], work["runs"]) == (0, 1)


def test_steane_verification_work_is_pinned(work):
    circ, target = prepare_state(builtin_code("steane"))
    work.update(views=0, target=target)  # count the check alone
    report = verify_preparation(circ, target, trials=20)
    assert report["all_match"]
    # One measurement run in the symbolic pass, which the 20 trials are read
    # off.  Its three deterministic outcomes are products of packed rows in
    # the run.
    assert (work["views"], work["target_views"]) == (0, 1)
    assert (work["simulations"], work["runs"]) == (0, 1)


# -- edge cases ------------------------------------------------------------------------


def test_unwritten_cbit_doubles_both_counts():
    circ = ghz_adaptive(4, 2, 2)
    wide = AdaptiveCircuit(circ.m, circ.cbits + 1, circ.layers)
    want = brute_force_verify(wide, ghz_state(4))
    assert want == (True, 4, 4)
    assert symbolic_verify(wide, ghz_state(4)) == want


def test_condition_offset_zero_matches_oracle():
    # Bell pair from a ZZ parity measurement; the X fires when the parity reads 0,
    # so every branch ends in ZZ = -1.
    c = AdaptiveCircuit(3, 1)
    c.add_layer([Gate("H", (0,)), Gate("H", (1,))])
    c.add_layer([Gate("CNOT", (0, 2))])
    c.add_layer([Gate("CNOT", (1, 2))])
    c.add_layer([Measure(2, 0)])
    c.add_layer([Gate("X", (1,), cond=Condition((0,), 0))])
    for gens, match in ((("XX", "-ZZ"), True), (("XX", "ZZ"), False)):
        target = from_stabilizers([parse_pauli(s) for s in gens])
        assert symbolic_verify(c, target) == brute_force_verify(c, target) == (match, 2, 2)


def test_random_pivot_carrying_a_form_matches_oracle():
    # The conditioned X puts outcome 0 into the sign of qubit 1's generator,
    # which is the pivot of the second random measurement; qubit 2 ends in |0>
    # only if that pivot's form is replaced, not XORed, by the new outcome.
    c = AdaptiveCircuit(3, 2)
    c.add_layer([Gate("H", (0,))])
    c.add_layer([Measure(0, 0)])
    c.add_layer([Gate("X", (1,), cond=Condition((0,), 1))])
    c.add_layer([Gate("H", (1,))])
    c.add_layer([Gate("CNOT", (1, 2))])
    c.add_layer([Measure(1, 1)])
    c.add_layer([Gate("X", (2,), cond=Condition((1,), 1))])
    for sign, match in (("+", True), ("-", False)):
        target = from_stabilizers([parse_pauli(sign + "Z")])
        assert symbolic_verify(c, target) == brute_force_verify(c, target) == (match, 4, 4)


def test_conditioned_non_pauli_is_unsupported():
    c = AdaptiveCircuit(2, 1)
    c.add_layer([Gate("H", (0,))])
    c.add_layer([Measure(0, 0)])
    c.add_layer([Gate("H", (1,), cond=Condition((0,), 1))])
    report = verify_preparation(c, zero_state(1), trials=0)
    assert report["unsupported"] == {
        "layer": 2,
        "gate": "H",
        "reason": "sign forms cover conditioned Pauli gates only",
    }
    assert report["branches"] is None and report["realizable"] is None
    with pytest.raises(NotImplementedError, match="^layer 2: conditioned H gate"):
        simulate_symbolic(c)
    assert verify_preparation(c, zero_state(1), trials=0, also_exhaustive=False)["unsupported"] is None


def test_unsupported_circuit_without_trials_is_unchecked():
    # The conditioned H leaves qubit 0 in |+> on the branch where qubit 1 reads 1.
    c = AdaptiveCircuit(2, 1, [[Gate("H", (1,))], [Measure(1, 0)], [Gate("H", (0,), cond=Condition((0,), 1))]])
    for also_exhaustive in (True, False):
        report = verify_preparation(c, zero_state(1), trials=0, also_exhaustive=also_exhaustive)
        assert report["all_match"] is None and report["counterexample"] is None
    report = verify_preparation(c, zero_state(1), trials=4)
    assert report["all_match"] is False and report["unsupported"] is None
    assert not states_equal(simulate(c, seed=0)[0], zero_state(1))


def test_symbolic_walk_rejects_what_simulate_rejects():
    c = AdaptiveCircuit(2, 1)
    c.add_layer([Gate("X", (0,), cond=Condition((0,), 1))])
    with pytest.raises(ValueError, match="unwritten classical bit 0"):
        simulate_symbolic(c)
    c = AdaptiveCircuit(2, 1, [[Gate("X", (0,), cond=Condition((0,), 2))]])  # an offset that never fires
    for run in (lambda: simulate(c, seed=0), lambda: simulate_symbolic(c)):
        with pytest.raises(ValueError, match="^condition reads unwritten classical bit 0$"):
            run()
    c = AdaptiveCircuit(2, 1, [[Measure(0, 0)], [Measure(1, 0)]])
    for run in (lambda: simulate(c, seed=0), lambda: simulate(c, forced=[0]), lambda: simulate_symbolic(c)):
        with pytest.raises(ValueError, match="^classical bit 0 written twice$"):
            run()
    c = AdaptiveCircuit(2, 1, [[Measure(0, 0)], [Gate("H", (0,))]])
    with pytest.raises(ValueError, match="qubit 0 is not in a definite Z eigenstate"):
        simulate(c, seed=0)
    with pytest.raises(ValueError, match="qubit 0 is not in a definite Z eigenstate"):
        wrong_branch(simulate_symbolic(c), zero_state(1))
    c = AdaptiveCircuit(2, 2, [[Measure(0, 0)], [Measure(0, 1)]])
    for run in (lambda: simulate(c, seed=0), lambda: simulate(c, forced=[0, 0]), lambda: simulate_symbolic(c)):
        with pytest.raises(ValueError, match="^layer 1: qubit 0 measured a second time$"):
            run()


@pytest.mark.parametrize(
    "layers,message",
    [
        ([[Measure(0, 3)]], "classical bit 3 out of range"),
        ([[Measure(0, -1)]], "classical bit -1 out of range"),
        ([[Measure(0, 0)], [Gate("X", (1,), cond=Condition((1,), 1))]], "condition bit 1 out of range"),
        ([[Measure(0, 0)], [Gate("X", (1,), cond=Condition((0, -1), 1))]], "condition bit -1 out of range"),
    ],
)
def test_out_of_range_classical_bits_raise_value_error(layers, message):
    c = AdaptiveCircuit(2, 1, layers)
    assert any(v.endswith(message) for v in validate(c, 2).violations)
    runs = [lambda: simulate(c, seed=0), lambda: simulate(c, forced=[0]), lambda: simulate_symbolic(c)]
    for trials, also_exhaustive in ((0, True), (3, True), (3, False)):
        runs.append(lambda t=trials, e=also_exhaustive: verify_preparation(c, zero_state(1), trials=t, also_exhaustive=e))
    for run in runs:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run()


def test_target_wider_than_circuit_fails_before_simulating(monkeypatch):
    def refuse(*_a, **_k):
        raise AssertionError("simulated before checking the width")

    monkeypatch.setattr(prep, "simulate", refuse)
    monkeypatch.setattr(prep, "simulate_symbolic", refuse)
    with pytest.raises(ValueError, match="^target register larger than the circuit$"):
        verify_preparation(AdaptiveCircuit(2, 0, [[Gate("H", (0,))]]), ghz_state(3), trials=3)


# -- random adaptive circuits ----------------------------------------------------------


def program_circuit(n, ops, spare_cbits=0):
    """The circuit of a ``test_tableau_paths`` program, one op per layer.

    Measured qubits stay dead, as a valid circuit requires: ops that touch
    one again are dropped, and condition bits are renumbered to the
    measurements kept.
    """
    layers, dead, cbit = [], set(), {}
    taken = 0
    for op in ops:
        if op[0] == "M":
            taken += 1
            if op[1] not in dead:
                dead.add(op[1])
                cbit[taken - 1] = len(cbit)
                layers.append([Measure(op[1], cbit[taken - 1])])
        elif op[0] == "C":
            _, letter, q, bits = op
            kept = tuple(cbit[b] for b in bits if b in cbit)
            if q not in dead and kept:
                layers.append([Gate(letter, (q,), cond=Condition(kept, 1))])
        else:
            _, name, qubits, pauli = op
            if not dead.intersection(qubits):
                layers.append([Gate(name, qubits, pauli)])
    return AdaptiveCircuit(n, len(cbit) + spare_cbits, layers)


def nothing_survives(circ):
    """True when every qubit is measured, so there is no state to compare."""
    return circ.m == len({op.qubit for layer in circ.layers for op in layer if isinstance(op, Measure)})


def check_random_circuit(circ, seed):
    if nothing_survives(circ):
        return None
    target, _ = simulate(circ, seed=seed)
    want = brute_force_verify(circ, target)
    assert symbolic_verify(circ, target) == want
    check_wrong_branch(circ, target)
    return want


@settings(max_examples=60, deadline=None)
@given(adaptive_programs(), st.integers(0, 1))
def test_random_adaptive_circuits_match_oracle(program, spare):
    n, ops, seed = program
    check_random_circuit(program_circuit(n, ops, spare), seed)


def random_ops(rng, n, length):
    """A random program on n qubits: gates, Z measurements and Paulis
    conditioned on up to two earlier measurements."""
    ops, measured = [], 0
    for _ in range(length):
        kind = rng.random()
        if kind < 0.25:
            ops.append(("M", int(rng.integers(0, n)), None))
            measured += 1
        elif kind < 0.45 and measured:
            bits = tuple(sorted({int(b) for b in rng.integers(0, measured, size=2)}))
            ops.append(("C", "XYZ"[int(rng.integers(0, 3))], int(rng.integers(0, n)), bits))
        else:
            ops.append(("G",) + random_gate(n, rng))
    return ops


def test_random_adaptive_circuits_cover_every_case():
    rng = np.random.default_rng(5)
    seen = set()
    for _ in range(150):
        n = int(rng.integers(2, 7))
        ops = random_ops(rng, n, int(rng.integers(4, 20)))
        want = check_random_circuit(program_circuit(n, ops), int(rng.integers(0, 1000)))
        if want is not None:
            seen.add(("match" if want[0] else "mismatch", "deterministic" if want[1] < want[2] else "random"))
    assert seen == {(a, b) for a in ("match", "mismatch") for b in ("deterministic", "random")}


# -- seeded trials read off the symbolic pass -------------------------------------------


def verify_outcome(verify, circuit, target, trials, also_exhaustive):
    """The report as JSON text, or the exception's type and message."""
    try:
        return json.dumps(verify(circuit, target, trials=trials, also_exhaustive=also_exhaustive))
    except Exception as exc:  # noqa: BLE001 - the type is compared
        return type(exc), str(exc)


def check_against_reference(circuit, targets, trials_set=(0, 1, 3, 20)):
    """verify_preparation against ``reference_verify`` byte for byte; returns
    the reference outcomes."""
    seen = []
    for target in targets:
        for trials in trials_set:
            for also_exhaustive in (True, False):
                want = verify_outcome(reference_verify, circuit, target, trials, also_exhaustive)
                assert verify_outcome(verify_preparation, circuit, target, trials, also_exhaustive) == want
                seen.append(json.loads(want) if isinstance(want, str) else want)
    return seen


def strip_corrections(circuit):
    """The circuit with every conditioned gate removed."""
    layers = [[op for op in layer if not (isinstance(op, Gate) and op.cond)] for layer in circuit.layers]
    return AdaptiveCircuit(circuit.m, circuit.cbits, [layer for layer in layers if layer])


TRIAL_CIRCUITS = {
    "ghz(6)": lambda: (ghz_adaptive(6, 2, 2), ghz_state(6)),
    "ghz(9)": lambda: (ghz_adaptive(9, 3, 3), ghz_state(9)),
    "ghz(12)": lambda: (ghz_adaptive(12, 3, 2), ghz_state(12)),
    "ghz(16)": lambda: (ghz_adaptive(16, 2, 2), ghz_state(16)),
    "toric(2)": lambda: prepare_state(builtin_code("toric(2)")),
    "toric(3)": lambda: prepare_state(builtin_code("toric(3)")),
}


@pytest.mark.parametrize("name", TRIAL_CIRCUITS)
def test_seeded_trials_match_reference_on_prepared_circuits(name):
    circ, target = TRIAL_CIRCUITS[name]()
    broken = list(without_one_correction(circ))
    variants = [circ, strip_corrections(circ), *broken[:: max(1, len(broken) // 4)]]
    seen = []
    for i, c in enumerate(variants):
        seen += check_against_reference(c, [target, sign_broken(target, i % target.n)])
    kinds = {(r["all_match"], r["branches"] is None) for r in seen}
    assert {(True, False), (False, True), (False, False)} <= kinds  # passed, failed a trial, failed exhaustively


def test_seeded_trials_match_reference_on_random_circuits():
    rng = np.random.default_rng(11)
    seen = set()
    for _ in range(60):
        n = int(rng.integers(2, 6))
        circ = program_circuit(n, random_ops(rng, n, int(rng.integers(4, 16))), int(rng.integers(0, 2)))
        if nothing_survives(circ):
            continue
        target, _ = simulate(circ, seed=int(rng.integers(0, 1000)))
        for r in check_against_reference(circ, [target, sign_broken(target, int(rng.integers(0, target.n)))]):
            seen.add((r["all_match"], r["branches"] is None, "None" in (r["counterexample"] or "")))
    # Passes, trial and exhaustive failures, and a trial record with an unwritten bit.
    assert {(True, False, False), (False, True, False), (False, False, False), (False, True, True)} <= seen


def test_seeded_trials_without_the_exhaustive_verdict_read_one_pass(work, monkeypatch):
    circ, target = prepare_state(builtin_code("toric(3)"))

    def refuse(*_a, **_k):
        raise AssertionError("a seeded trial was simulated")

    monkeypatch.setattr(prep, "simulate", refuse)
    report = verify_preparation(circ, target, trials=20, also_exhaustive=False)
    assert report["all_match"] is True and report["branches"] is None and report["realizable"] is None
    assert work["symbolic"] == 1


def test_no_trials_and_no_verdict_run_nothing(work):
    report = verify_preparation(*prepare_state(builtin_code("toric(2)")), trials=0, also_exhaustive=False)
    assert report["all_match"] is None
    assert (work["simulations"], work["symbolic"]) == (0, 0)


def test_conditioned_non_pauli_simulates_each_trial(work):
    # Two conditioned H gates cancel, so every trial ends in |0>.
    cond_h = Gate("H", (0,), cond=Condition((0,), 1))
    c = AdaptiveCircuit(2, 1, [[Gate("H", (1,))], [Measure(1, 0)], [cond_h], [cond_h]])
    for also_exhaustive in (True, False):
        work.update(simulations=0)
        report = verify_preparation(c, zero_state(1), trials=5, also_exhaustive=also_exhaustive)
        assert (work["simulations"], work["symbolic"]) == (5, 0)
        assert report["all_match"] is True and (report["unsupported"] is not None) == also_exhaustive


def test_invalid_circuit_fails_in_the_symbolic_walk():
    # A conditioned X on a qubit past the register: seed 0 never fires it,
    # so a simulated trial would pass and leave the error to the resource
    # profile.  The trial is read off the symbolic walk, which names the
    # qubit whatever also_exhaustive says.
    c = AdaptiveCircuit(2, 1, [[Gate("H", (0,))], [Measure(0, 0)], [Gate("X", (5,), cond=Condition((0,), 0))]])
    assert validate(c, 2).violations
    assert simulate(c, seed=0)[1] == [1]
    for also_exhaustive in (True, False):
        with pytest.raises(ValueError, match="^qubit 5 out of range for n=2$"):
            verify_preparation(c, zero_state(1), trials=1, also_exhaustive=also_exhaustive)


def test_seeded_trials_match_reference_on_unsupported_circuits():
    # The conditioned H leaves qubit 0 in |+> on the branch where qubit 1 reads 1.
    c = AdaptiveCircuit(2, 1, [[Gate("H", (1,))], [Measure(1, 0)], [Gate("H", (0,), cond=Condition((0,), 1))]])
    seen = check_against_reference(c, [zero_state(1), from_stabilizers([parse_pauli("X")])])
    circ, target = prepare_state(builtin_code("toric(2)"))
    layers = [[Gate("S", op.qubits, cond=op.cond) if isinstance(op, Gate) and op.cond else op for op in layer] for layer in circ.layers]
    seen += check_against_reference(AdaptiveCircuit(circ.m, circ.cbits, layers), [target])
    assert {r["unsupported"] is not None for r in seen} == {True, False}
    assert {r["all_match"] for r in seen} == {True, False, None}


def test_seeded_trial_fails_on_a_target_outside_the_group():
    # Qubit 1 ends in |0>, never in -X, so -X is outside the group on every
    # branch.  The product its destabilizer pattern picks has a sign that
    # carries the random outcome b; on the branch b = 1 (seed 0's draw) that
    # form must not cancel the mismatch.
    c = AdaptiveCircuit(2, 1, [[Gate("H", (0,))], [Gate("CZ", (0, 1))], [Measure(0, 0)]])
    seen = check_against_reference(c, [from_stabilizers([parse_pauli("-X")])], trials_set=(1,))
    assert [(r["all_match"], r["counterexample"]) for r in seen] == [(False, "1")] * 2


def test_seeded_trials_match_reference_on_errors():
    # seen[1] is the run with no trial and no symbolic pass, which simulates nothing.
    # Gates on measured qubits 0 and 1: both paths name qubit 1, the highest, as the factor-out does.
    c = AdaptiveCircuit(3, 2, [[Measure(0, 0), Measure(1, 1)], [Gate("H", (0,)), Gate("H", (1,))]])
    seen = check_against_reference(c, [zero_state(1)])
    assert set(seen[:1] + seen[2:]) == {(ValueError, "qubit 1 is not in a definite Z eigenstate")}
    seen = check_against_reference(ghz_adaptive(6, 2, 2), [ghz_state(5)])
    assert set(seen[:1] + seen[2:]) == {(ValueError, "dimension mismatch")}
    c = AdaptiveCircuit(2, 1, [[Measure(0, 0)], [Measure(0, 0)]])
    seen = check_against_reference(c, [zero_state(1)], trials_set=(0, 3))
    assert set(seen[:1] + seen[2:]) == {(ValueError, "layer 1: qubit 0 measured a second time")}


# -- no outcome draws when every branch matches ---------------------------------------


@pytest.fixture
def draws(monkeypatch):
    """Counts of ``np.random.default_rng`` calls."""
    counts = {"rngs": 0}
    default_rng = np.random.default_rng

    def counting(*args, **kwargs):
        counts["rngs"] += 1
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counting)
    return counts


def first_failing_seed(circuit, target, trials):
    """The first seed whose simulated branch ends off the target, or None."""
    return next((s for s in range(trials) if not states_equal(simulate(circuit, seed=s)[0], target)), None)


def test_matching_circuit_draws_no_outcomes(draws):
    for circ, target in (TRIAL_CIRCUITS["ghz(16)"](), TRIAL_CIRCUITS["toric(3)"]()):
        for also_exhaustive in (True, False):
            report = verify_preparation(circ, target, trials=20, also_exhaustive=also_exhaustive)
            assert report["all_match"] is True and report["random_trials"] == 20
    assert draws["rngs"] == 0


def test_broken_circuit_draws_one_generator_per_seed_to_the_first_failure(draws):
    circ, target = ghz_adaptive(16, 2, 2), ghz_state(16)
    firsts = [first_failing_seed(broken, target, 20) for broken in without_one_correction(circ)]
    assert None not in firsts and max(firsts) > 0
    for broken, first in zip(without_one_correction(circ), firsts):
        draws["rngs"] = 0
        report = verify_preparation(broken, target, trials=20)
        assert report["all_match"] is False and report["branches"] is None
        assert draws["rngs"] == first + 1


def rare_wrong_branch():
    """Data qubit 0 is flipped when ancilla outcomes 1 and 2 differ; seeds
    0-4 draw them equal, seed 5 first draws them apart."""
    c = AdaptiveCircuit(4, 3)
    c.add_layer([Gate("H", (q,)) for q in (1, 2, 3)])
    c.add_layer([Measure(q, q - 1) for q in (1, 2, 3)])
    c.add_layer([Gate("X", (0,), cond=Condition((1, 2), 1))])
    return c, zero_state(1)


def test_wrong_branch_the_first_trials_miss_matches_reference(draws):
    circ, target = rare_wrong_branch()
    assert first_failing_seed(circ, target, 20) == 5
    draws["rngs"] = 0
    report = verify_preparation(circ, target, trials=5)
    assert draws["rngs"] == 5  # every trial drew, and none failed
    assert report["all_match"] is False and report["branches"] == 8
    tab, _ = simulate(circ, forced=report["counterexample"])
    assert not states_equal(tab, target)
    seen = check_against_reference(circ, [target], trials_set=(0, 1, 5, 6, 20))
    # Trials 0-4 miss the wrong branch, which the exhaustive verdict finds; trial 5 hits it.
    missed, hit = [(False, 8), (True, None)], [(False, None)] * 2
    assert [(r["all_match"], r["branches"]) for r in seen] == [(False, 8), (None, None), *missed, *missed, *hit, *hit]


def test_ghz_demo_with_a_million_trials_draws_nothing(capsys, draws):
    code = main(["ghz-demo", "--n", "16", "--a", "2", "--k", "2", "--trials", "1000000", "--seed", "0"])
    verify = json.loads(capsys.readouterr().out)["results"]["verify"]
    assert code == 0 and verify["all_match"] is True and verify["random_trials"] == 1000000
    assert draws["rngs"] == 0


def test_negative_trial_count_is_refused_before_any_work(monkeypatch):
    def refuse(*_a, **_k):
        raise AssertionError("simulated a negative trial count")

    monkeypatch.setattr(prep, "simulate", refuse)
    monkeypatch.setattr(prep, "simulate_symbolic", refuse)
    monkeypatch.setattr(prep, "ancilla_count", refuse)
    for also_exhaustive in (True, False):
        with pytest.raises(ValueError, match="^trials must be >= 0, got -3$"):
            verify_preparation(ghz_adaptive(8, 2, 2), ghz_state(8), trials=-3, also_exhaustive=also_exhaustive)


# -- code validation on planes -----------------------------------------------------------


def pair_scan(checks):
    """The replaced O(t^2) scan: message of the first anticommuting pair, or None."""
    for i in range(len(checks)):
        for j in range(i + 1, len(checks)):
            if not checks[i].commutes(checks[j]):
                return f"checks {checks[i]} and {checks[j]} anticommute"
    return None


def test_code_commutation_matches_pair_scan_on_perturbed_toric3():
    rows = [c.letters() for c in builtin_code("toric(3)").checks]
    rng = np.random.default_rng(3)
    hits = 0
    for _ in range(200):
        perturbed = [list(r) for r in rows]
        for _ in range(int(rng.integers(1, 4))):
            i, q = int(rng.integers(0, len(rows))), int(rng.integers(0, len(rows[0])))
            perturbed[i][q] = "IXYZ"[int(rng.integers(0, 4))]
        checks = [parse_pauli("".join(r)) for r in perturbed if set(r) != {"I"}]
        want = pair_scan(checks)
        try:
            StabilizerCode(checks[0].n, tuple(checks))
            got = None
        except ValueError as exc:
            got = str(exc) if "anticommute" in str(exc) else None
        assert got == want
        hits += want is not None
    assert hits > 50


def test_code_commutation_messages():
    with pytest.raises(ValueError, match=r"^checks \+XX and \+ZI anticommute$"):
        build_code(["XX", "ZI"])


def test_support_and_sparsity_match_full_scans():
    for name in ["repetition(3)", "repetition(24)", "steane"] + [f"toric({s})" for s in range(2, 9)]:
        code = builtin_code(name)
        for c in code.checks:
            assert c.support() == tuple(q for q in range(c.n) if (c.x | c.z) >> q & 1)
        part = [sum((c.x | c.z) >> q & 1 for c in code.checks) for q in range(code.n)]
        assert code.s == max(max(c.weight() for c in code.checks), max(part))
        assert vars(code)["s"] == code.s  # computed once, on first read
