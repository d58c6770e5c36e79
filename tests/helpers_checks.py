"""Lemma, continuity and indistinguishability checks used only by tests."""

from __future__ import annotations

import math
from itertools import combinations
from typing import Sequence

import numpy as np

from adaptstab.densesim import StateVector, correlation, fidelity
from adaptstab.metrics import _group_table
from adaptstab.pauli import PauliOperator
from adaptstab.tableau import StabilizerTableau, conjugate_pauli, restricted_group_elements


def restrict(p: PauliOperator, qubits: Sequence[int]) -> PauliOperator:
    """Letters of ``p`` on ``qubits`` as a |qubits|-site Pauli (phase kept)."""
    x = z = 0
    for i, q in enumerate(qubits):
        x |= ((p.x >> q) & 1) << i
        z |= ((p.z >> q) & 1) << i
    return PauliOperator.from_exponent(len(qubits), x, z, p.e)


def correlation_continuity_check(
    s1: StateVector,
    s2: StateVector,
    op1,
    op2,
    tol: float = 1e-9,
) -> bool:
    """|Cor(s1) - Cor(s2)| <= 6 sqrt(1 - F) for norm-1 observables."""
    for op in (op1, op2):
        if op.operator_norm() > 1 + 1e-9:
            raise ValueError("continuity bound needs operator norm <= 1")
    eps = max(0.0, 1.0 - fidelity(s1, s2))
    gap = abs(correlation(s1, op1, op2) - correlation(s2, op1, op2))
    return gap <= 6 * math.sqrt(eps) + tol


def group_elements(t: StabilizerTableau) -> list[PauliOperator]:
    """All 2^n - 1 non-identity stabilizer group elements (generator-mask
    order), each the product of its generators with the higher one on the
    left."""
    n = t.n
    table = _group_table(t)
    x = table & np.uint64((1 << n) - 1)
    e = np.zeros(1 << n, np.uint8)
    for i, g in enumerate(t.generators):
        e[1 << i : 2 << i] = (e[: 1 << i] + g.e + 2 * np.bitwise_count(x[: 1 << i] & np.uint64(g.z))) % 4
    rows = zip(x[1:].tolist(), (table[1:] >> np.uint64(n)).tolist(), e[1:].tolist())
    return [PauliOperator.from_exponent(n, *xze) for xze in rows]


def flip_generator_sign(t: StabilizerTableau, index: int) -> StabilizerTableau:
    if not 0 <= index < t.n:
        raise IndexError("generator index out of range")
    out = t.copy()
    out.e1 ^= 1 << index  # negate: i-exponent + 2 on generator row ``index``
    return out


def local_indistinguishable(
    t1: StabilizerTableau, t2: StabilizerTableau, k: int
) -> bool:
    """Signed restricted stabilizer groups agree on every subset of size <= k."""
    if t1.n != t2.n:
        raise ValueError("dimension mismatch")
    for size in range(1, min(k, t1.n) + 1):
        for subset in combinations(range(t1.n), size):
            if restricted_group_elements(t1, subset) != restricted_group_elements(
                t2, subset
            ):
                return False
    return True


def lemma1_check(p: PauliOperator, layer: Sequence, K: int) -> bool:
    """One layer of fan-in <= K gates grows Pauli weight at most K-fold."""
    used: set[int] = set()
    q = p
    for gate in layer:
        name, qubits = gate[0], tuple(gate[1])
        pauli = gate[2] if len(gate) > 2 else None
        if len(qubits) > K:
            raise ValueError("gate fan-in exceeds K")
        if used & set(qubits):
            raise ValueError("layer gates overlap")
        used |= set(qubits)
        q = conjugate_pauli(q, name, qubits, pauli=pauli)
    return q.weight() <= K * p.weight()
