"""Independent correctness checks for the benchmark's outputs.

Nothing here calls into ``adaptstab``: outputs arrive as the package's
public JSON forms (signed Pauli strings, circuit JSON, report dicts) and
are checked with this file's own Pauli product, its own GF(2) elimination
and its own ``numpy.kron`` dense states.

Pauli convention: ``Pauli(n, x, z, r)`` is ``i**r`` times the tensor
product of hermitian letters, qubit ``q`` at bit ``q`` of ``x``/``z``
(``Y`` sets both bits).  Dense matrices put qubit 0 in the most
significant tensor factor, the leftmost letter of a Pauli string.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

_SIGNS = {"+": 0, "+i": 1, "-": 2, "-i": 3, "": 0, "i": 1}
_LETTER_BITS = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


class CheckFailed(AssertionError):
    """An output of the program disagrees with the independent checker."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


class Pauli:
    __slots__ = ("n", "x", "z", "r")

    def __init__(self, n: int, x: int, z: int, r: int = 0):
        self.n, self.x, self.z, self.r = n, x, z, r % 4

    @staticmethod
    def parse(text: str) -> "Pauli":
        body = text.lstrip("+-i")
        sign = text[: len(text) - len(body)]
        if sign not in _SIGNS or not body:
            raise CheckFailed(f"malformed Pauli string {text!r}")
        x = z = 0
        for q, ch in enumerate(body):
            if ch not in _LETTER_BITS:
                raise CheckFailed(f"malformed Pauli string {text!r}")
            bx, bz = _LETTER_BITS[ch]
            x |= bx << q
            z |= bz << q
        return Pauli(len(body), x, z, _SIGNS[sign])

    def __mul__(self, other: "Pauli") -> "Pauli":
        # Letters -> X^x Z^z form costs i^{|x&z|}; commuting Z^z1 past X^x2
        # costs (-1)^{|z1&x2|}; then convert the product back to letters.
        x, z = self.x ^ other.x, self.z ^ other.z
        r = (
            self.r
            + other.r
            + (self.x & self.z).bit_count()
            + (other.x & other.z).bit_count()
            + 2 * (self.z & other.x).bit_count()
            - (x & z).bit_count()
        )
        return Pauli(self.n, x, z, r)

    def commutes(self, other: "Pauli") -> bool:
        return ((self.x & other.z).bit_count() + (self.z & other.x).bit_count()) % 2 == 0

    @property
    def bits(self) -> int:
        return self.x | (self.z << self.n)

    @property
    def weight(self) -> int:
        return (self.x | self.z).bit_count()

    def letters(self) -> str:
        return "".join("IXZY"[((self.x >> q) & 1) + 2 * ((self.z >> q) & 1)] for q in range(self.n))

    def dense(self) -> np.ndarray:
        m = np.eye(1, dtype=complex)
        for ch in self.letters():
            m = np.kron(m, _MATS[ch])
        return (1j**self.r) * m


def identity(n: int) -> Pauli:
    return Pauli(n, 0, 0, 0)


def pauli_on(n: int, sites: dict[int, str]) -> Pauli:
    """Letters on the given qubits, identity elsewhere, sign +1."""
    x = z = 0
    for q, ch in sites.items():
        bx, bz = _LETTER_BITS[ch]
        x |= bx << q
        z |= bz << q
    return Pauli(n, x, z, 0)


class Group:
    """Signed group generated by commuting Paulis, kept in row-echelon form.

    Each basis row is stored with the Pauli product that produced it, so a
    reduction yields both the GF(2) combination and its exact phase.
    """

    def __init__(self, n: int, gens=()):
        self.n = n
        self.rows: dict[int, tuple[int, Pauli]] = {}  # leading bit -> (bits, product)
        self.independent = True
        for g in gens:
            self.independent &= self.add(g)

    def _reduce(self, p: Pauli) -> tuple[int, Pauli]:
        bits, acc = p.bits, identity(self.n)
        while bits:
            row = self.rows.get(bits.bit_length() - 1)
            if row is None:
                break
            bits ^= row[0]
            acc = acc * row[1]
        return bits, acc

    def add(self, p: Pauli) -> bool:
        """Add a generator; False when it is dependent on earlier ones."""
        bits, acc = self._reduce(p)
        if not bits:
            return False
        self.rows[bits.bit_length() - 1] = (bits, p * acc)
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)

    def sign_of(self, p: Pauli) -> int | None:
        """+1 or -1 when that sign times ``p`` is in the group, else None."""
        bits, acc = self._reduce(p)
        if bits:
            return None
        diff = (acc.r - p.r) % 4
        return {0: 1, 2: -1}.get(diff)


def parse_all(strings) -> list[Pauli]:
    return [Pauli.parse(s) for s in strings]


def expect_stabilizer_group(gens: list[Pauli], n: int, label: str) -> Group:
    """``gens`` are n independent, commuting, hermitian generators."""
    expect(len(gens) == n, f"{label}: {len(gens)} generators for {n} qubits")
    expect(all(g.n == n for g in gens), f"{label}: generator width differs from {n}")
    expect(all(g.r % 2 == 0 for g in gens), f"{label}: non-hermitian generator")
    for a, b in combinations(gens, 2):
        if not a.commutes(b):
            raise CheckFailed(f"{label}: generators {a.letters()} and {b.letters()} anticommute")
    group = Group(n, gens)
    expect(group.independent and group.rank == n, f"{label}: generators are dependent")
    return group


def expect_stabilizes(group: Group, ops: list[Pauli], label: str) -> None:
    for p in ops:
        if group.sign_of(p) != 1:
            raise CheckFailed(f"{label}: {p.letters()} does not stabilize with sign +1")


# -- codes and circuits ----------------------------------------------------------


def sparsity(checks: list[Pauli]) -> int:
    n = checks[0].n
    part = [0] * n
    for c in checks:
        for q in range(n):
            part[q] += ((c.x | c.z) >> q) & 1
    return max(max(c.weight for c in checks), max(part))


def x_logical_space(checks: list[Pauli]) -> list[Pauli]:
    """Basis of pure-X operators commuting with every check (signs +1).

    An X-type operator with support d commutes with every check exactly
    when d is orthogonal to every check's Z part, so the basis is the null
    space of the Z-part matrix, read off its reduced row echelon form.
    """
    n = checks[0].n
    pivots: dict[int, int] = {}  # column -> reduced row over columns
    rows = [c.z for c in checks]
    reduced: list[int] = []
    for row in rows:
        for col, idx in pivots.items():
            if (row >> col) & 1:
                row ^= reduced[idx]
        if not row:
            continue
        low = (row & -row).bit_length() - 1
        for idx, other in enumerate(reduced):
            if (other >> low) & 1:
                reduced[idx] = other ^ row
        pivots[low] = len(reduced)
        reduced.append(row)
    basis = []
    for free in range(n):
        if free in pivots:
            continue
        vec = 1 << free
        for col, idx in pivots.items():
            if (reduced[idx] >> free) & 1:
                vec |= 1 << col
        basis.append(Pauli(n, vec, 0, 0))
    return basis


def counted_depth(circuit: dict) -> int:
    """Layers holding at least one operation that is not a merged gate."""
    return sum(1 for layer in circuit["layers"] if any(not op.get("merged", False) for op in layer))


def expect_one_measurement_per_ancilla(circuit: dict, n: int, label: str) -> None:
    measured = [op["qubit"] for layer in circuit["layers"] for op in layer if op["op"] == "MZ"]
    cbits = [op["cbit"] for layer in circuit["layers"] for op in layer if op["op"] == "MZ"]
    expect(sorted(measured) == list(range(n, circuit["m"])), f"{label}: ancillas not each measured exactly once")
    expect(len(set(cbits)) == len(cbits), f"{label}: a classical bit is written twice")


# -- GHZ ---------------------------------------------------------------------------


def ghz_stabilizers(n: int) -> list[Pauli]:
    ops = [Pauli(n, (1 << n) - 1, 0, 0)]
    ops += [Pauli(n, 0, 3 << i, 0) for i in range(n - 1)]
    return ops


def expect_ghz(generators: list[str], n: int, label: str) -> None:
    gens = parse_all(generators)
    group = expect_stabilizer_group(gens, n, label)
    expect_stabilizes(group, ghz_stabilizers(n), label)


def expect_bounds_satisfied(report: dict, wt_s: int, label: str) -> None:
    records = report["bounds"]
    expect(len(records) == 2, f"{label}: expected two bound records, got {len(records)}")
    for rec in records:
        expect(rec["satisfied"] is True, f"{label}: bound {rec['check']} not satisfied")
        expect(rec["lhs"] >= rec["rhs"], f"{label}: bound {rec['check']} has lhs < rhs")
        expect(rec["rhs"] == wt_s, f"{label}: bound {rec['check']} uses wt_s={rec['rhs']}, expected {wt_s}")


# -- weights -------------------------------------------------------------------------


def group_elements(gens: list[Pauli]) -> list[Pauli]:
    """Every element of the group (identity excluded), Gray-code products."""
    n = len(gens)
    out = []
    acc = identity(gens[0].n)
    for i in range(1, 1 << n):
        acc = acc * gens[(i & -i).bit_length() - 1]
        out.append(acc)
    return out


def brute_weight_vector(gens: list[Pauli]) -> list[int]:
    """Minimal non-increasing weight vector by exhaustive enumeration.

    Generating sets form the bases of a linear matroid, so scanning every
    group element by weight and keeping the independent ones is optimal.
    """
    elems = sorted(group_elements(gens), key=lambda p: p.weight)
    picked = Group(gens[0].n)
    weights = []
    for p in elems:
        if picked.add(p):
            weights.append(p.weight)
    return sorted(weights, reverse=True)


def expect_weight_generators(picked: list[str], vector: list[int], state: Group, n: int, label: str) -> None:
    gens = parse_all(picked)
    group = expect_stabilizer_group(gens, n, label)
    for g in gens:
        if state.sign_of(g) != 1:
            raise CheckFailed(f"{label}: {g.letters()} is not a +1 element of the state's group")
    expect(sorted((g.weight for g in gens), reverse=True) == list(vector), f"{label}: weights do not match the vector")
    expect(group.rank == n, f"{label}: generators do not span the group")


# -- dense states (n <= 10) ---------------------------------------------------------


def dense_family(family: str, n: int, k: int = 0) -> np.ndarray:
    """W, GHZ and Dicke amplitudes from their definitions."""
    amps = np.zeros(1 << n, dtype=complex)
    if family == "ghz":
        amps[0] = amps[-1] = 1.0
    else:
        ones = 1 if family == "w" else k
        for sites in combinations(range(n), ones):
            amps[sum(1 << (n - 1 - q) for q in sites)] = 1.0
    return amps / np.linalg.norm(amps)


def dense_from_generators(gens: list[Pauli]) -> np.ndarray:
    """The state fixed by the generators: project a random vector."""
    n = gens[0].n
    rng = np.random.default_rng(12345)
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    for g in gens:
        v = (v + g.dense() @ v) / 2
    norm = np.linalg.norm(v)
    expect(norm > 1e-6, "generators fix no state")
    return v / norm


def overlap(a: np.ndarray, b: np.ndarray) -> float:
    return float(abs(np.vdot(a, b)))


def _expval(psi: np.ndarray, op: Pauli) -> complex:
    return complex(np.vdot(psi, op.dense() @ psi))


def connected_correlation(psi: np.ndarray, n: int, a1, o1: str, a2, o2: str) -> float:
    """<O1 O2> - <O1><O2> with O1 = o1 on a1 and O2 = o2 on a2."""
    p1 = pauli_on(n, dict(zip(a1, o1)))
    p2 = pauli_on(n, dict(zip(a2, o2)))
    both = _expval(psi, p1 * p2)
    return (both - _expval(psi, p1) * _expval(psi, p2)).real


def pauli_correlation_range(psi: np.ndarray, n: int, tol: float = 1e-9) -> int:
    """Largest qubit set whose every pair shows a single-site Pauli correlation."""
    linked = set()
    for i, j in combinations(range(n), 2):
        if any(abs(connected_correlation(psi, n, (i,), a, (j,), b)) > tol for a in "XYZ" for b in "XYZ"):
            linked.add((i, j))
    best = 1
    for mask in range(1, 1 << n):
        qs = [q for q in range(n) if (mask >> q) & 1]
        if len(qs) > best and all(p in linked for p in combinations(qs, 2)):
            best = len(qs)
    return best


def dicke_w1_value(n: int, k: int) -> float:
    return 2 * k * (n - k) / (n * (n - 1))


def close(a: float, b: float, tol: float = 1e-9) -> bool:
    return math.isclose(a, b, rel_tol=0.0, abs_tol=tol)
