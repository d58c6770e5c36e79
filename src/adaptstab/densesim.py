"""Exact statevector reference for small registers.

Index convention: qubit 0 is the most significant bit of the amplitude
index, matching the leftmost letter of a Pauli string.  The default size
guard is 16 qubits; the environment variable ``ADAPTSTAB_MAX_QUBITS``
raises it (documented unsafe — memory grows as 2^n).

The state families implemented here follow the conventions used throughout
the package; in particular ``hypergraph(n)`` applies the n-qubit phase gate
that flips the sign of the all-zeros amplitude to |+>^n (this package's
CZ_n convention — note it differs from the more common all-ones phasing).
``_FAMILY_TABLE`` lists each family once: its spec form, dense builder and
tableau builder (or None).  ``make_state`` builds from it, and ``_read_spec``
reads specs (``ghz:6``, ``dicke:6:2``) for the command line and tolerance table.
"""

from __future__ import annotations

import math
import os
import re
import warnings
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .errors import ResourceGuardError
from .pauli import PauliOperator
from .tableau import StabilizerTableau, _measure_z_run, from_stabilizers, ghz_state, validate_tableau, zero_state

__all__ = [
    "StateVector",
    "SupportedOperator",
    "make_state",
    "ghz",
    "w_state",
    "dicke",
    "hypergraph",
    "basis_state",
    "plus_state",
    "from_tableau",
    "from_amplitudes",
    "apply_pauli",
    "apply_supported",
    "expectation",
    "correlation",
    "fidelity",
    "dicke_correlation_formula",
    "max_qubits",
    "pauli_matrix",
    "pauli_op",
]

_LETTER_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def max_qubits() -> int:
    raw = os.environ.get("ADAPTSTAB_MAX_QUBITS", "")
    return int(raw) if raw else 16


def _guard(n: int) -> None:
    cap = max_qubits()
    if n > cap:
        raise ResourceGuardError(
            f"dense simulation of {n} qubits exceeds the cap of {cap} "
            "(set ADAPTSTAB_MAX_QUBITS to override)",
            name="dense",
            limit=cap,
            value=n,
        )
    if n < 1:
        raise ValueError("need n >= 1")


@dataclass
class StateVector:
    """Normalized amplitudes over 2^n basis states."""

    n: int
    amps: np.ndarray

    def __post_init__(self):
        self.amps = np.asarray(self.amps, dtype=complex)
        if self.amps.shape != (1 << self.n,):
            raise ValueError("amplitude length must be 2^n")
        norm = float(np.linalg.norm(self.amps))
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"state not normalized (norm {norm})")


@dataclass
class SupportedOperator:
    """An operator acting on an ordered subset of qubits."""

    support: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        self.support = tuple(self.support)
        if len(set(self.support)) != len(self.support):
            raise ValueError("support has repeated qubits")
        k = len(self.support)
        self.matrix = np.asarray(self.matrix, dtype=complex)
        if self.matrix.shape != (1 << k, 1 << k):
            raise ValueError("matrix shape must be 2^|support| square")

    def operator_norm(self) -> float:
        return float(np.linalg.norm(self.matrix, 2))

    def is_hermitian(self, tol: float = 1e-10) -> bool:
        return bool(np.abs(self.matrix - self.matrix.conj().T).max() <= tol)


def pauli_matrix(letters: str) -> np.ndarray:
    m = np.eye(1, dtype=complex)
    for ch in letters:
        m = np.kron(m, _LETTER_MATS[ch])
    return m


def pauli_op(support: Sequence[int], letters: str) -> SupportedOperator:
    """Pauli string `letters` on `support` (norm-1 hermitian operator)."""
    if len(letters) != len(support):
        raise ValueError("one letter per support qubit")
    return SupportedOperator(tuple(support), pauli_matrix(letters))


# -- state families -----------------------------------------------------------


def ghz(n: int) -> StateVector:
    _guard(n)
    amps = np.zeros(1 << n, dtype=complex)
    amps[0] = amps[-1] = 1 / math.sqrt(2)
    return StateVector(n, amps)


def w_state(n: int) -> StateVector:
    return dicke(n, 1)


def dicke(n: int, k: int) -> StateVector:
    _guard(n)
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}")
    amps = np.zeros(1 << n, dtype=complex)
    coeff = 1 / math.sqrt(math.comb(n, k))
    for ones in combinations(range(n), k):
        amps[sum(1 << (n - 1 - j) for j in ones)] = coeff
    return StateVector(n, amps)


def hypergraph(n: int) -> StateVector:
    s = plus_state(n)
    s.amps[0] *= -1
    return s


def plus_state(n: int) -> StateVector:
    _guard(n)
    return StateVector(n, np.full(1 << n, 1 / math.sqrt(1 << n), dtype=complex))


def basis_state(bits: str | Sequence[int]) -> StateVector:
    bit_list = [int(b) for b in bits]
    n = len(bit_list)
    _guard(n)
    if any(b not in (0, 1) for b in bit_list):
        raise ValueError("bits must be 0/1")
    amps = np.zeros(1 << n, dtype=complex)
    amps[sum(b << (n - 1 - j) for j, b in enumerate(bit_list))] = 1.0
    return StateVector(n, amps)


def from_amplitudes(values: Iterable[complex]) -> StateVector:
    amps = np.asarray(list(values), dtype=complex)
    n = int(round(math.log2(len(amps))))
    if 1 << n != len(amps):
        raise ValueError("amplitude count must be a power of two")
    _guard(n)
    norm = float(np.linalg.norm(amps))
    if norm < 1e-12:
        raise ValueError("zero vector")
    return StateVector(n, amps / norm)


def from_tableau(t: StabilizerTableau) -> StateVector:
    """Project the lowest basis state in the support onto the stabilized subspace.

    Measuring Z on qubits 0..n-1 of a copy on the branch where every random
    outcome is +1 reads the lowest index with a nonzero amplitude bit by bit
    (qubit 0 is the most significant): one symbolic run, whose outcome forms
    read their constants there, and a deterministic -1 reads as bit 1.
    A tableau that ``validate_tableau`` rejects raises its ValueError.
    """
    _guard(t.n)
    validate_tableau(t)
    forms = _measure_z_run(t.copy(), range(t.n), [])
    start = sum((f & 1) << (t.n - 1 - q) for q, f in enumerate(forms))
    v = np.zeros(1 << t.n, dtype=complex)
    v[start] = 1.0
    for g in t.generators:
        v = (v + apply_pauli(v, g)) / 2
    return StateVector(t.n, v / float(np.linalg.norm(v)))


# Each state family: its spec form, dense builder, and tableau builder (None: dense only).
_FAMILY_TABLE = {
    "ghz": ("ghz:N", ghz, ghz_state),
    "w": ("w:N", w_state, None),
    "dicke": ("dicke:N:K", dicke, None),
    "hypergraph": ("hypergraph:N", hypergraph, None),
    "plus": ("plus:N", plus_state, lambda n: from_stabilizers([PauliOperator(n, 1 << q, 0) for q in range(n)])),
    "zero": ("zero:N", lambda n: dicke(n, 0), zero_state),
    "basis": (
        "basis:BITS",
        basis_state,
        lambda bits: from_stabilizers([PauliOperator(len(bits), 0, 1 << q, (-1) ** int(b)) for q, b in enumerate(bits)]),
    ),
}


def _read_spec(spec: str) -> tuple[str, list]:
    """``(family, params)`` of ``ghz:6``, ``dicke:6:2`` or ``basis:0110``, sizes as
    ints; a ValueError names the forms for an unknown family, else the spec's form."""
    family, *params = (p.strip() for p in spec.lower().split(":"))
    if family not in _FAMILY_TABLE:
        forms = ", ".join(form for form, *_ in _FAMILY_TABLE.values())
        raise ValueError(f"unknown state family {family!r}; specs are {forms}")
    form = _FAMILY_TABLE[family][0]
    pattern = "[01]+" if family == "basis" else r"[+-]?\d+"
    if len(params) != form.count(":") or not all(re.fullmatch(pattern, p) for p in params):
        raise ValueError(f"state spec {spec!r} does not have the form {form}")
    return family, params if family == "basis" else [int(p) for p in params]


def make_state(family: str, *params) -> StateVector:
    """The dense state of a family in ``_FAMILY_TABLE``: ``make_state("dicke", 6, 2)``."""
    if family not in _FAMILY_TABLE:
        raise ValueError(f"unknown state family {family!r}")
    return _FAMILY_TABLE[family][1](*params)


# -- operator application ------------------------------------------------------


def _reverse_bits(mask: int, n: int) -> int:
    out = 0
    for j in range(n):
        if (mask >> j) & 1:
            out |= 1 << (n - 1 - j)
    return out


def apply_pauli(amps: np.ndarray | StateVector, p: PauliOperator) -> np.ndarray:
    """p |psi> computed by index arithmetic (no matrices)."""
    v = amps.amps if isinstance(amps, StateVector) else np.asarray(amps, dtype=complex)
    n = p.n
    if v.shape != (1 << n,):
        raise ValueError("dimension mismatch")
    xm = _reverse_bits(p.x, n)
    zm = _reverse_bits(p.z, n)
    idx = np.arange(1 << n)
    signs = 1.0 - 2.0 * (np.bitwise_count(idx & zm) & 1)
    out = np.empty_like(v)
    out[idx ^ xm] = p.phase * signs * v
    return out


def apply_supported(state: StateVector, op: SupportedOperator) -> np.ndarray:
    n = state.n
    for q in op.support:
        if not 0 <= q < n:
            raise ValueError(f"support qubit {q} out of range")
    k = len(op.support)
    tensor = state.amps.reshape([2] * n)
    tensor = np.moveaxis(tensor, op.support, range(k))
    shaped = tensor.reshape(1 << k, -1)
    shaped = op.matrix @ shaped
    tensor = shaped.reshape([2] * n)
    tensor = np.moveaxis(tensor, range(k), op.support)
    return tensor.reshape(1 << n)


def expectation(state: StateVector, op: SupportedOperator) -> float:
    if not op.is_hermitian():
        raise ValueError("expectation requires a hermitian operator")
    val = complex(np.vdot(state.amps, apply_supported(state, op)))
    if abs(val.imag) > 1e-12:
        raise AssertionError(f"nonreal expectation {val}")
    return val.real


def correlation(
    state: StateVector, op1: SupportedOperator, op2: SupportedOperator
) -> float:
    """Connected correlator <O1 O2> - <O1><O2> for disjoint supports."""
    if set(op1.support) & set(op2.support):
        raise ValueError("correlation requires disjoint supports")
    for op in (op1, op2):
        if op.operator_norm() > 1 + 1e-9:
            warnings.warn("operator norm exceeds 1; correlation bounds assume ||O||<=1")
    joint = StateVector.__new__(StateVector)
    joint.n = state.n
    joint.amps = apply_supported(state, op2)
    both = complex(np.vdot(state.amps, apply_supported(joint, op1)))
    if abs(both.imag) > 1e-12:
        raise AssertionError("nonreal <O1 O2>")
    return both.real - expectation(state, op1) * expectation(state, op2)


def fidelity(s1: StateVector, s2: StateVector) -> float:
    if s1.n != s2.n:
        raise ValueError("dimension mismatch")
    return float(abs(np.vdot(s1.amps, s2.amps)) ** 2)


def dicke_correlation_formula(n: int, k: int, w: int) -> float:
    """|<Z_A1 Z_A2> - <Z_A1><Z_A2>| for weight-w Z products on a Dicke state.

    Closed form by counting excitations inside/outside the 2w support sites.
    """
    if w < 0 or 2 * w > n:
        raise ValueError("need 0 <= 2w <= n")
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    if w == 0:
        return 0.0
    total = math.comb(n, k)
    both = sum(
        (-1) ** k1 * math.comb(2 * w, k1) * math.comb(n - 2 * w, k - k1)
        for k1 in range(max(0, k - (n - 2 * w)), min(k, 2 * w) + 1)
    )
    single = sum(
        (-1) ** k1 * math.comb(w, k1) * math.comb(n - w, k - k1)
        for k1 in range(max(0, k - (n - w)), min(k, w) + 1)
    )
    return abs(both / total - (single / total) ** 2)
