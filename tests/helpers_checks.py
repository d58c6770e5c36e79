"""Lemma, continuity, indistinguishability and measurement-transform checks,
Pauli corrections and a GF(2) solve, used only by tests."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Sequence

import numpy as np

from adaptstab.densesim import StateVector, correlation, fidelity
from adaptstab.metrics import _group_table
from adaptstab.pauli import GF2Elimination, PauliOperator
from adaptstab.tableau import StabilizerTableau
from helpers_tableau import generator_product, restricted_group_elements, row_conjugate_pauli


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
    table = _group_table(t)  # z | x << 32
    x = table >> np.uint64(32)
    e = np.zeros(1 << n, np.uint8)
    for i, g in enumerate(t.generators):
        e[1 << i : 2 << i] = (e[: 1 << i] + g.e + 2 * np.bitwise_count(x[: 1 << i] & np.uint64(g.z))) % 4
    rows = zip(x[1:].tolist(), (table[1:] & np.uint64(0xFFFFFFFF)).tolist(), e[1:].tolist())
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
        q = row_conjugate_pauli(q, name, qubits, pauli=pauli)
    return q.weight() <= K * p.weight()


# -- GF(2) solves -------------------------------------------------------------------


def solve_rhs(elim: GF2Elimination, rhs: int) -> int | None:
    """Solution of ``M x = b`` with every free column zero, or None when
    inconsistent; bit i of ``rhs`` is the entry of b for the i-th row added."""
    if any((dep & rhs).bit_count() & 1 for dep in elim.dependencies):
        return None
    return sum((v.bit_count() & 1) << c for c, v in enumerate(elim.columns(rhs)))


@dataclass
class GF2Solution:
    """One particular solution (free columns zero) plus a null-space basis."""

    particular: int
    null_basis: list[int]

    def solutions(self) -> Iterator[int]:
        """All solutions (use only when the null space is small)."""
        for mask in range(1 << len(self.null_basis)):
            x = self.particular
            for i, v in enumerate(self.null_basis):
                if mask >> i & 1:
                    x ^= v
            yield x


def gf2_solve(m: Sequence[int], b: Sequence[int], cols: int) -> GF2Solution | None:
    """Solve ``M x = b`` over GF(2) on one ``GF2Elimination``; None when
    inconsistent."""
    elim = GF2Elimination(cols, m)
    particular = solve_rhs(elim, sum((int(v) & 1) << i for i, v in enumerate(b)))
    return None if particular is None else GF2Solution(particular, elim.null_basis())


# -- corrections and measurement transforms ---------------------------------------


def pauli_correction(s_plus: Sequence[PauliOperator], s_minus: Sequence[PauliOperator]) -> PauliOperator:
    """A Pauli commuting with every ``s_plus`` and anticommuting with every
    ``s_minus``, found by one GF(2) solve; sign fixed to +1."""
    gens = list(s_plus) + list(s_minus)
    if not gens:
        raise ValueError("need at least one generator")
    n = gens[0].n
    rows = [g.z | (g.x << n) for g in gens]
    sol = gf2_solve(rows, [0] * len(s_plus) + [1] * len(s_minus), cols=2 * n)
    if sol is None:
        raise ValueError("inconsistent sign pattern: generators are not independent")
    x, z = sol.particular & ((1 << n) - 1), sol.particular >> n
    return PauliOperator.from_exponent(n, x, z, (x & z).bit_count() % 4)


def check_measurement_transform(big: StabilizerTableau, small: StabilizerTableau) -> bool:
    """Can measuring Z on the last m - n qubits of ``big`` yield ``small``?

    True exactly when every generator S of the small state extends to a
    group element S (x) Z^z of the big state for some ancilla pattern z.
    Each candidate is a unique generator combination, and sign repair uses
    the fact that pure ancilla-Z group elements multiply without phases, so
    their signs form a linear functional over the solution space.
    """
    m, n = big.n, small.n
    if m < n:
        raise ValueError("big register must be at least as wide as small")
    # Unknown: a mask over big's generators.  Its x-part must match s below n
    # and vanish on the ancillas; its z-part is constrained on the data only.
    full = (1 << m) - 1
    elim = GF2Elimination(m, [c & full for c in big.xs] + [c & full for c in big.zs[:n]])
    null_basis = elim.null_basis()
    for s in small.generators:
        particular = solve_rhs(elim, s.x | (s.z << m))
        if particular is None:
            return False
        g0 = generator_product(big, particular)
        expected = s.embed(m).multiply(PauliOperator(m, 0, (g0.z >> n) << n))
        if g0 == expected:
            continue
        # Wrong sign: null-space elements are pure Z on the ancillas, whose
        # signs compose linearly, so any negative one repairs the mismatch.
        if any(generator_product(big, v).display_sign == -1 for v in null_basis):
            continue
        return False
    return True
