"""Stabilizer tableaux: Clifford conjugation, Pauli measurement, group queries.

A tableau stores n stabilizer generators plus n destabilizers (the
Aaronson-Gottesman layout), so measurements cost O(n^2).  Destabilizer i
anticommutes with generator i and commutes with every other row; the dual
pairing makes deterministic measurement outcomes a simple product over the
generators selected by destabilizer anticommutation.

Gates mutate the tableau in place and also return it, so calls chain.
Qubit indices are 0-based everywhere.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import ContradictionError, ResourceGuardError
from .pauli import (
    GF2Elimination,
    PauliOperator,
    format_pauli,
    from_bits,
    gf2_rank,
    gf2_solve,
    parse_pauli,
    single_site,
)

__all__ = [
    "GATE_ARITY",
    "StabilizerTableau",
    "zero_state",
    "check_gate",
    "apply_gate",
    "conjugate_pauli",
    "measure_pauli",
    "is_stabilized_by",
    "states_equal",
    "canonical_form",
    "random_stabilizer_state",
    "restricted_group_elements",
    "from_stabilizers",
    "tensor_tableau",
    "factor_out_qubit",
    "validate_tableau",
    "to_json",
    "from_json",
]

# Qubits each gate acts on; CNOT is a fan-out taking this many or more.
GATE_ARITY = {"H": 1, "S": 1, "SDG": 1, "X": 1, "Y": 1, "Z": 1, "CNOT": 2, "CZ": 2, "SWAP": 2, "CP": 2}

# (x bit, z bit, i-exponent) of the controlled letter for CP gates.
_LETTER_BITS = {"X": (1, 0, 0), "Z": (0, 1, 0), "Y": (1, 1, 1)}


class StabilizerTableau:
    """Generators + destabilizers of an n-qubit stabilizer state."""

    __slots__ = ("n", "generators", "destabilizers")

    def __init__(
        self,
        n: int,
        generators: list[PauliOperator],
        destabilizers: list[PauliOperator],
    ):
        self.n = n
        self.generators = generators
        self.destabilizers = destabilizers

    def copy(self) -> "StabilizerTableau":
        return StabilizerTableau(
            self.n,
            [PauliOperator.from_exponent(g.n, g.x, g.z, g.e) for g in self.generators],
            [
                PauliOperator.from_exponent(d.n, d.x, d.z, d.e)
                for d in self.destabilizers
            ],
        )

    def __repr__(self) -> str:
        gens = ", ".join(format_pauli(g) for g in self.generators)
        return f"StabilizerTableau(n={self.n}, [{gens}])"


def zero_state(n: int) -> StabilizerTableau:
    """|0...0> with generators Z_i and destabilizers X_i."""
    if n < 1:
        raise ValueError("need n >= 1")
    gens = [single_site(n, q, "Z") for q in range(n)]
    destabs = [single_site(n, q, "X") for q in range(n)]
    return StabilizerTableau(n, gens, destabs)


# -- gate conjugation -------------------------------------------------------


def _conjugate_row(p: PauliOperator, name: str, qubits: Sequence[int], pauli: str | None) -> None:
    """Update one row in place for G row G^dagger."""
    x, z, e = p.x, p.z, p.e
    if name == "H":
        (q,) = qubits
        xq, zq = (x >> q) & 1, (z >> q) & 1
        e += 2 * (xq & zq)
        x ^= (xq ^ zq) << q
        z ^= (xq ^ zq) << q
    elif name == "S":
        (q,) = qubits
        xq = (x >> q) & 1
        e += xq
        z ^= xq << q
    elif name == "SDG":
        (q,) = qubits
        xq = (x >> q) & 1
        e += 3 * xq
        z ^= xq << q
    elif name == "X":
        (q,) = qubits
        e += 2 * ((z >> q) & 1)
    elif name == "Y":
        (q,) = qubits
        e += 2 * (((x >> q) ^ (z >> q)) & 1)
    elif name == "Z":
        (q,) = qubits
        e += 2 * ((x >> q) & 1)
    elif name == "SWAP":
        a, b = qubits
        xa, xb = (x >> a) & 1, (x >> b) & 1
        za, zb = (z >> a) & 1, (z >> b) & 1
        x ^= ((xa ^ xb) << a) | ((xa ^ xb) << b)
        z ^= ((za ^ zb) << a) | ((za ^ zb) << b)
    elif name in ("CNOT", "CZ", "CP"):
        letter = {"CNOT": "X", "CZ": "Z", "CP": pauli}[name]
        if letter not in _LETTER_BITS:
            raise ValueError(f"CP needs a pauli in X/Y/Z, got {letter!r}")
        px, pz, pe = _LETTER_BITS[letter]
        a = qubits[0]
        for q in qubits[1:]:  # CNOT accepts several targets (one fan-out gate)
            xa = (x >> a) & 1
            xq, zq = (x >> q) & 1, (z >> q) & 1
            tau = (xq & pz) ^ (zq & px)
            if xa:
                e += pe + 2 * (pz & xq)
                x ^= px << q
                z ^= pz << q
            z ^= tau << a
    else:
        raise ValueError(f"unknown gate {name!r}")
    p.x, p.z, p.e = x, z, e % 4


def conjugate_pauli(
    p: PauliOperator, name: str, qubits: Sequence[int], pauli: str | None = None
) -> PauliOperator:
    """G p G^dagger for a single Pauli, without touching a tableau."""
    out = PauliOperator.from_exponent(p.n, p.x, p.z, p.e)
    _conjugate_row(out, name, qubits, pauli)
    return out


def check_gate(name: str, n_qubits: int) -> None:
    """Raise ValueError unless ``name`` is a known gate on ``n_qubits`` qubits."""
    arity = GATE_ARITY.get(name)
    if arity is None:
        raise ValueError(f"unknown gate {name!r}")
    if name == "CNOT":
        if n_qubits < arity:
            raise ValueError("CNOT needs a control and at least one target")
    elif n_qubits != arity:
        raise ValueError(f"{name} expects {arity} qubits, got {n_qubits}")


def apply_gate(
    t: StabilizerTableau,
    name: str,
    qubits: Sequence[int],
    pauli: str | None = None,
) -> StabilizerTableau:
    """Conjugate every row by the named Clifford gate (in place)."""
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"repeated qubit in {qubits}")
    for q in qubits:
        if not 0 <= q < t.n:
            raise ValueError(f"qubit {q} out of range for n={t.n}")
    check_gate(name, len(qubits))
    for row in t.generators:
        _conjugate_row(row, name, qubits, pauli)
    for row in t.destabilizers:
        _conjugate_row(row, name, qubits, pauli)
    return t


# -- measurement ------------------------------------------------------------


def _group_product(t: StabilizerTableau, p: PauliOperator) -> PauliOperator:
    """Product of the generators whose destabilizers anticommute with ``p``.

    When ``+-p`` is in the stabilizer group this product is exactly ``+-p``;
    otherwise its bits differ from ``p``'s.
    """
    prod = PauliOperator(t.n, 0, 0)
    for d, g in zip(t.destabilizers, t.generators):
        if not d.commutes(p):
            prod = prod * g
    return prod


def measure_pauli(
    t: StabilizerTableau,
    p: PauliOperator,
    forced: int | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[int, bool, StabilizerTableau]:
    """Measure hermitian Pauli ``p``; returns (outcome, deterministic, tableau).

    When the outcome is random, ``forced`` (+1/-1) picks the branch, else a
    fair coin from ``rng`` is used.  Forcing a deterministic measurement to
    the impossible sign raises :class:`ContradictionError`.
    """
    if not p.hermitian:
        raise ValueError(f"{format_pauli(p)} is not hermitian")
    if p.n != t.n:
        raise ValueError("dimension mismatch")
    anti = [i for i, g in enumerate(t.generators) if not g.commutes(p)]
    if anti:
        pivot = anti[0]
        g_pivot = t.generators[pivot]
        for i in anti[1:]:
            t.generators[i] = t.generators[i] * g_pivot
        for i, d in enumerate(t.destabilizers):
            if not d.commutes(p):
                t.destabilizers[i] = d * g_pivot
        if forced is not None:
            outcome = int(forced)
            if outcome not in (1, -1):
                raise ValueError("forced outcome must be +1 or -1")
        else:
            if rng is None:
                raise ValueError("random measurement outcome requires an rng")
            outcome = 1 if int(rng.integers(0, 2)) == 0 else -1
        t.destabilizers[pivot] = g_pivot
        signed = from_bits(t.n, p.x, p.z, outcome)
        # keep p's own display sign folded in: outcome refers to measuring p
        if p.display_sign == -1:
            signed = signed.negate()
        t.generators[pivot] = signed
        return outcome, False, t
    # Deterministic: p commutes with the whole group, so +-p is in it.
    prod = _group_product(t, p)
    if (prod.x, prod.z) != (p.x, p.z):
        raise AssertionError("commuting Pauli outside the group; tableau corrupt")
    outcome = 1 if prod.e == p.e else -1
    if forced is not None and int(forced) != outcome:
        raise ContradictionError(
            f"measurement of {format_pauli(p)} is deterministic ({outcome:+d}); "
            f"cannot force {int(forced):+d}"
        )
    return outcome, True, t


def is_stabilized_by(t: StabilizerTableau, p: PauliOperator) -> int | None:
    """+1/-1 when ``sign * p`` is in the stabilizer group, else None."""
    if not p.hermitian:
        raise ValueError("is_stabilized_by expects a hermitian Pauli")
    prod = _group_product(t, p)
    if (prod.x, prod.z) != (p.x, p.z):
        return None
    return 1 if prod.e == p.e else -1


def states_equal(t1: StabilizerTableau, t2: StabilizerTableau) -> bool:
    """True iff both tableaux stabilize the same state."""
    if t1.n != t2.n:
        raise ValueError("dimension mismatch")
    return all(is_stabilized_by(t2, g) == 1 for g in t1.generators)


# -- canonical form ---------------------------------------------------------


def _mirror_rowmul(t: StabilizerTableau, i: int, j: int) -> None:
    """gen_i <- gen_i * gen_j, with the destabilizer update that keeps pairing."""
    t.generators[i] = t.generators[i] * t.generators[j]
    t.destabilizers[j] = t.destabilizers[j] * t.destabilizers[i]


def canonical_form(t: StabilizerTableau) -> StabilizerTableau:
    """Deterministic row-reduced copy of the tableau.

    Pivots scan X columns before Z columns, so rows carrying X support come
    first (their x-parts form a full-rank block) and pure-Z rows sink to the
    bottom.  Repeated application is the identity.
    """
    out = t.copy()
    n = out.n

    def bit(row: PauliOperator, col: int) -> int:
        return (row.x >> col) & 1 if col < n else (row.z >> (col - n)) & 1

    pivot_row = 0
    for col in range(2 * n):
        hit = next(
            (r for r in range(pivot_row, n) if bit(out.generators[r], col)), None
        )
        if hit is None:
            continue
        if hit != pivot_row:
            out.generators[hit], out.generators[pivot_row] = (
                out.generators[pivot_row],
                out.generators[hit],
            )
            out.destabilizers[hit], out.destabilizers[pivot_row] = (
                out.destabilizers[pivot_row],
                out.destabilizers[hit],
            )
        for r in range(n):
            if r != pivot_row and bit(out.generators[r], col):
                _mirror_rowmul(out, r, pivot_row)
        pivot_row += 1
        if pivot_row == n:
            break
    return out


# -- construction helpers ----------------------------------------------------


def validate_tableau(t: StabilizerTableau) -> None:
    """Raise ValueError when any tableau invariant is broken."""
    n = t.n
    if len(t.generators) != n or len(t.destabilizers) != n:
        raise ValueError("need exactly n generators and n destabilizers")
    for g in t.generators:
        if g.n != n or not g.hermitian:
            raise ValueError(f"bad generator {format_pauli(g)}")
    rows = [g.symplectic_row() for g in t.generators]
    if gf2_rank(rows) != n:
        raise ValueError("generators are dependent")
    for i, a in enumerate(t.generators):
        for b in t.generators[i + 1 :]:
            if not a.commutes(b):
                raise ValueError(
                    f"generators {format_pauli(a)} and {format_pauli(b)} anticommute"
                )
    for i, d in enumerate(t.destabilizers):
        for j, g in enumerate(t.generators):
            if d.commutes(g) != (i != j):
                raise ValueError(f"destabilizer {i} pairs incorrectly with generator {j}")


def from_stabilizers(gens: Sequence[PauliOperator]) -> StabilizerTableau:
    """Build a tableau from n independent commuting hermitian generators.

    Destabilizers come from one GF(2) elimination of the symplectic
    constraints.  Destabilizer i is the solution, free columns zero, that
    anticommutes with generator i alone and commutes with the destabilizers
    before it; its row then joins the elimination.  Their phases are fixed to
    display sign +1.
    """
    if not gens:
        raise ValueError("need at least one generator")
    n = gens[0].n
    if len(gens) != n:
        raise ValueError(f"need {n} generators, got {len(gens)}")
    gens = list(gens)
    for g in gens:
        if not g.hermitian:
            raise ValueError(f"generator {format_pauli(g)} is not hermitian")
        if g.is_identity_bits():
            raise ValueError("identity cannot be a generator")
    # Unknown row v = (x | z<<n); <v, w> = x.w_z + z.w_x.  Rows 0..n-1 are
    # the generators, so the right-hand side for destabilizer i is bit i.
    elim = GF2Elimination(2 * n, (w.z | (w.x << n) for w in gens))
    if elim.dependencies:
        raise ValueError("generators are dependent")
    for i, a in enumerate(gens):
        for b in gens[i + 1 :]:
            if not a.commutes(b):
                raise ValueError(
                    f"generators {format_pauli(a)} and {format_pauli(b)} anticommute"
                )
    destabs: list[PauliOperator] = []
    for i in range(n):
        v = elim.solve(1 << i)
        d = from_bits(n, v & ((1 << n) - 1), v >> n, 1)
        destabs.append(d)
        elim.add(d.z | (d.x << n))
    t = StabilizerTableau(n, gens, destabs)
    validate_tableau(t)
    return t


def tensor_tableau(t1: StabilizerTableau, t2: StabilizerTableau) -> StabilizerTableau:
    """Product state tableau: t1 on qubits 0..n1-1, t2 above them."""
    n = t1.n + t2.n
    gens = [g.embed(n, 0) for g in t1.generators] + [
        g.embed(n, t1.n) for g in t2.generators
    ]
    destabs = [d.embed(n, 0) for d in t1.destabilizers] + [
        d.embed(n, t1.n) for d in t2.destabilizers
    ]
    return StabilizerTableau(n, gens, destabs)


def factor_out_qubit(t: StabilizerTableau, q: int) -> StabilizerTableau:
    """Remove qubit ``q``, which must be in a definite Z eigenstate.

    Returns a fresh tableau on the remaining qubits (indices above ``q``
    shift down by one), built with O(n) row operations: the first generator
    whose destabilizer anticommutes with Z_q is traded for +-Z_q, the other
    rows are cleared off qubit q, and that pair is dropped.
    """
    n = t.n
    zq = single_site(n, q, "Z")
    signed_zq = _group_product(t, zq)
    if (signed_zq.x, signed_zq.z) != (zq.x, zq.z):
        raise ValueError(f"qubit {q} is not in a definite Z eigenstate")
    if n == 1:
        return StabilizerTableau(0, [], [])
    selected = [(d.x >> q) & 1 for d in t.destabilizers]
    pivot = selected.index(1)
    d_pivot = t.destabilizers[pivot]
    low = (1 << q) - 1

    def drop_q(p: PauliOperator) -> PauliOperator:
        # No row left has X on q, so dropping its Z on q keeps every
        # commutation relation among the remaining rows.
        x = (p.x & low) | ((p.x >> (q + 1)) << q)
        z = (p.z & low) | ((p.z >> (q + 1)) << q)
        return PauliOperator.from_exponent(n - 1, x, z, p.e)

    gens, destabs = [], []
    for i, (g, d) in enumerate(zip(t.generators, t.destabilizers)):
        if i == pivot:
            continue
        if (g.z >> q) & 1:
            g = g * signed_zq
        if selected[i]:
            d = d * d_pivot
        gens.append(drop_q(g))
        destabs.append(drop_q(d))
    return StabilizerTableau(n - 1, gens, destabs)


# -- random states -----------------------------------------------------------


def random_stabilizer_state(n: int, seed: int) -> StabilizerTableau:
    """Seed-reproducible random stabilizer state (depth-2n random circuit)."""
    if n > 64:
        raise ResourceGuardError("random_stabilizer_state supports n <= 64")
    rng = np.random.default_rng(seed)
    t = zero_state(n)
    one_q = ("I", "H", "S", "SDG", "X", "Y", "Z")
    two_q = ("CNOT", "CNOTR", "CZ", "SWAP")
    for _ in range(n):
        for q in range(n):
            g = one_q[int(rng.integers(0, len(one_q)))]
            if g != "I":
                apply_gate(t, g, (q,))
        if n == 1:  # no pairs to couple; keep the layer count at 2n anyway
            g = one_q[int(rng.integers(0, len(one_q)))]
            if g != "I":
                apply_gate(t, g, (0,))
            continue
        perm = rng.permutation(n)
        for i in range(0, n - 1, 2):
            if rng.random() < 0.3:
                continue
            a, b = int(perm[i]), int(perm[i + 1])
            g = two_q[int(rng.integers(0, len(two_q)))]
            if g == "CNOTR":
                apply_gate(t, "CNOT", (b, a))
            else:
                apply_gate(t, g, (a, b))
    return t


# -- group queries ------------------------------------------------------------


def restricted_group_elements(
    t: StabilizerTableau, subset: Iterable[int]
) -> list[PauliOperator]:
    """All group elements (signs included) supported inside ``subset``.

    The combinations form a linear subspace: a product has trivial letters on
    qubit q iff the XOR of the chosen generators' x and z bits at q vanish.
    """
    region = sorted(set(subset))
    n = t.n
    for q in region:
        if not 0 <= q < n:
            raise ValueError(f"qubit {q} out of range")
    outside = [q for q in range(n) if q not in set(region)]
    system = []
    for q in outside:
        system.append(sum(((t.generators[i].x >> q) & 1) << i for i in range(n)))
        system.append(sum(((t.generators[i].z >> q) & 1) << i for i in range(n)))
    sol = gf2_solve(system, [0] * len(system), cols=n)
    assert sol is not None
    dim = len(sol.null_basis)
    if dim > 20:
        raise ResourceGuardError(f"restricted group has 2^{dim} elements")
    elements = []
    for mask in sol.solutions():
        prod = PauliOperator(n, 0, 0)
        for i in range(n):
            if (mask >> i) & 1:
                prod = prod * t.generators[i]
        elements.append(prod)
    elements.sort(key=lambda p: (p.weight(), p.x, p.z))
    return elements


# -- serialization ------------------------------------------------------------


def to_json(t: StabilizerTableau) -> dict:
    return {
        "n": t.n,
        "generators": [format_pauli(g) for g in t.generators],
        "destabilizers": [format_pauli(d) for d in t.destabilizers],
    }


def from_json(data: dict) -> StabilizerTableau:
    n = int(data["n"])
    gens = [parse_pauli(s) for s in data["generators"]]
    if "destabilizers" in data and data["destabilizers"]:
        destabs = [parse_pauli(s) for s in data["destabilizers"]]
        t = StabilizerTableau(n, gens, destabs)
        validate_tableau(t)
        return t
    return from_stabilizers(gens)
