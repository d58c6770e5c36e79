"""The concrete ``simulate`` loop that the shared layer walk replaced.

``circuit.simulate`` and ``circuit.simulate_symbolic`` now run one private
walk; this is the earlier concrete loop, with its own condition check
(``_fire``) and bookkeeping, kept as an oracle so that tests of the walk
do not check it against itself.
"""

from __future__ import annotations

import numpy as np

from adaptstab.circuit import Measure
from adaptstab.pauli import single_site
from adaptstab.tableau import apply_gate, factor_out_qubits, measure_pauli, validate_tableau, zero_state


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
                outcome, _, _ = measure_pauli(t, p, forced=force_sign, rng=rng)
                _write_cbit(record, op.cbit, 0 if outcome == 1 else 1)
            elif _fire(op.cond, record):
                apply_gate(t, op.op, op.qubits, pauli=op.pauli)
    if measured:
        t = factor_out_qubits(t, measured)
        validate_tableau(t)
    return t, record
