"""Earlier circuit paths, kept as oracles for the code that replaced them.

``reference_simulate`` is the concrete ``simulate`` loop that the shared
layer walk replaced: ``circuit.simulate`` and ``circuit.simulate_symbolic``
now run one private walk, and this loop, with its own condition check
(``_fire``) and bookkeeping, keeps tests of the walk from checking it
against itself.

``reference_verify`` is ``prep.verify_preparation`` as it was before its
seeded trials were read off the symbolic pass: each trial is a
``reference_simulate`` run compared with ``states_equal``, and the symbolic
pass runs afterwards, only when every trial matched.

``wrong_branch`` is the ``SymbolicRun`` method of that name: it reads a
failing branch off ``sign_planes`` through ``circuit._first_wrong``, the
step ``verify_preparation`` takes inline.
"""

from __future__ import annotations

import numpy as np

from adaptstab.bounds import ResourceProfile, check_adaptive_weight, check_clifford_adaptive, weight_checks
from adaptstab.circuit import Measure, _first_wrong, ancilla_count, conditioned_non_pauli, depth, simulate_symbolic
from adaptstab.pauli import single_site
from adaptstab.tableau import (
    apply_gate,
    factor_out_qubits,
    states_equal,
    validate_tableau,
    zero_state,
)
from helpers_tableau import plane_measure_pauli


def _fire(cond, record):
    if cond is None:
        return True
    acc = 0
    for b in cond.bits:
        v = record[b]
        if v is None:
            raise ValueError(f"condition reads unwritten classical bit {b}")
        acc ^= v
    return acc == cond.xor


def _mark_measured(measured, q, layer):
    if q in measured:
        raise ValueError(f"layer {layer}: qubit {q} measured a second time")
    measured.add(q)


def _write_cbit(record, b, value):
    if record[b] is not None:
        raise ValueError(f"classical bit {b} written twice")
    record[b] = value


def reference_simulate(c, *, seed=None, forced=None, initial=None):
    """(tableau on surviving qubits, outcome bits); ``forced`` is a 0/1 list."""
    t = initial.copy() if initial is not None else zero_state(c.m)
    if t.n != c.m:
        raise ValueError("initial tableau size mismatch")
    rng = np.random.default_rng(seed)
    record = [None] * c.cbits
    measured = set()
    for li, layer in enumerate(c.layers):
        for op in layer:
            if isinstance(op, Measure):
                _mark_measured(measured, op.qubit, li)
                p = single_site(c.m, op.qubit, "Z")
                force_sign = None
                if forced is not None:
                    force_sign = 1 if forced[op.cbit] == 0 else -1
                outcome, _, _ = plane_measure_pauli(t, p, forced=force_sign, rng=rng)
                _write_cbit(record, op.cbit, 0 if outcome == 1 else 1)
            elif _fire(op.cond, record):
                apply_gate(t, op.op, op.qubits, pauli=op.pauli)
    if measured:
        t = factor_out_qubits(t, measured)
        validate_tableau(t)
    return t, record


def wrong_branch(run, target):
    """Variable values of a branch of ``run`` whose surviving qubits do not
    end in ``target``'s state, or None when every branch does."""
    return _first_wrong(*run.sign_planes(target))


def reference_verify(circuit, target, trials=20, also_exhaustive=True):
    """The report of ``verify_preparation`` with one simulation per trial."""
    report = {
        "n": target.n,
        "m": circuit.m,
        "n_a": ancilla_count(circuit, target.n),
        "depth": depth(circuit),
        "random_trials": trials,
        "branches": None,
        "realizable": None,
        "all_match": True,
        "counterexample": None,
        "unsupported": None,
    }
    for seed in range(trials):
        tab, record = reference_simulate(circuit, seed=seed)
        if not states_equal(tab, target):
            report["all_match"] = False
            report["counterexample"] = "".join(str(b) for b in record)
            break
    if also_exhaustive and report["all_match"]:
        bad = conditioned_non_pauli(circuit)
        if bad is not None:
            report["unsupported"] = {
                "layer": bad[0],
                "gate": bad[1].op,
                "reason": "sign forms cover conditioned Pauli gates only",
            }
        else:
            run = simulate_symbolic(circuit)
            values = wrong_branch(run, target)
            report["branches"] = 1 << circuit.cbits
            report["realizable"] = 1 << (len(run.forms) + run.record.count(None))
            if values is not None:
                report["all_match"] = False
                report["counterexample"] = "".join(str(b) for b in run.forced(values))
    if trials <= 0 and report["branches"] is None:
        report["all_match"] = None
    profile = ResourceProfile.from_circuit(circuit, target.n)
    _, report["bounds"] = weight_checks(profile, target, (check_adaptive_weight, check_clifford_adaptive))
    return report
