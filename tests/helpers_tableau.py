"""Tableau builders shared by test modules, and oracles for removed paths:
the gate if-chain, the single-Pauli anticommutation mask ``_anticommuting``
and generator product ``generator_product``, the plane measurement,
single-Pauli conjugation and sign forms, and the restricted group."""

from __future__ import annotations

from functools import reduce
from operator import xor

from adaptstab.errors import ContradictionError
from adaptstab.pauli import _PAULI_BITS, GF2Elimination, PauliOperator, _bits, format_pauli
from adaptstab.tableau import StabilizerTableau, _add_exponent, check_gate


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


def canonical_form(t: StabilizerTableau) -> StabilizerTableau:
    """Deterministic row-reduced copy of the tableau.

    Pivots scan X columns before Z columns, so rows carrying X support come
    first (their x-parts form a full-rank block) and pure-Z rows sink to the
    bottom.  Generator row operations are mirrored on the destabilizers to
    keep the pairing.  Repeated application is the identity.
    """
    n = t.n
    gens, destabs = list(t.generators), list(t.destabilizers)

    def bit(row: PauliOperator, col: int) -> int:
        return (row.x >> col) & 1 if col < n else (row.z >> (col - n)) & 1

    pivot_row = 0
    for col in range(2 * n):
        hit = next((r for r in range(pivot_row, n) if bit(gens[r], col)), None)
        if hit is None:
            continue
        gens[hit], gens[pivot_row] = gens[pivot_row], gens[hit]
        destabs[hit], destabs[pivot_row] = destabs[pivot_row], destabs[hit]
        for r in range(n):
            if r != pivot_row and bit(gens[r], col):
                gens[r] = gens[r] * gens[pivot_row]
                destabs[pivot_row] = destabs[pivot_row] * destabs[r]
        pivot_row += 1
        if pivot_row == n:
            break
    return StabilizerTableau(n, gens, destabs)


# -- the gate if-chain, kept as an oracle -----------------------------------------
#
# ``apply_gate`` once ran every check on every call and then picked the gate's
# update from a chain of name tests.  It now runs one inline test of the call
# and one kernel of ``tableau._GATES``, the full checks only on the error path.


def reference_apply_gate(t: StabilizerTableau, name: str, qubits, pauli: str | None = None) -> StabilizerTableau:
    """``apply_gate`` as it was: the three checks, then the if-chain."""
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"repeated qubit in {qubits}")
    for q in qubits:
        if not 0 <= q < t.n:
            raise ValueError(f"qubit {q} out of range for n={t.n}")
    check_gate(name, len(qubits))
    xs, zs = t.xs, t.zs
    if name == "H":
        (q,) = qubits
        t.e1 ^= xs[q] & zs[q]
        xs[q], zs[q] = zs[q], xs[q]
    elif name in ("S", "SDG"):
        (q,) = qubits
        _add_exponent(t, xs[q], 1 if name == "S" else 3)
        zs[q] ^= xs[q]
    elif name in _PAULI_BITS:  # a Pauli gate negates the rows it anticommutes with
        (q,) = qubits
        px, pz = _PAULI_BITS[name]
        t.e1 ^= (zs[q] if px else 0) ^ (xs[q] if pz else 0)
    elif name == "SWAP":
        a, b = qubits
        xs[a], xs[b] = xs[b], xs[a]
        zs[a], zs[b] = zs[b], zs[a]
    else:  # CNOT (a fan-out over every target), CZ, CP
        letter = {"CNOT": "X", "CZ": "Z"}.get(name, pauli)
        if letter not in _PAULI_BITS:
            raise ValueError(f"CP needs a pauli in X/Y/Z, got {letter!r}")
        px, pz = _PAULI_BITS[letter]
        y = px & pz  # Y = i X Z
        a = qubits[0]
        xa = xs[a]  # rows with X on the control pick up the letter on each target
        for q in qubits[1:]:
            xq, zq = xs[q], zs[q]
            if y:
                _add_exponent(t, xa, 1)
            if pz:
                t.e1 ^= xa & xq
                zs[q] = zq ^ xa
            if px:
                xs[q] = xq ^ xa
            zs[a] ^= (xq if pz else 0) ^ (zq if px else 0)
    t._rows = None
    return t


# -- the single-Pauli generator product, kept as an oracle -------------------------
#
# ``is_stabilized_by`` once built its product with its own kernel: the
# destabilizers anticommuting with p, then their generators multiplied out
# by a prefix-XOR packing of the columns.  It now reads
# ``tableau._match_products`` on one Pauli, as ``states_equal`` does on many.


def _anticommuting(xs, zs, p: PauliOperator) -> int:
    """Mask of the rows (of planes ``xs``, ``zs``) that anticommute with ``p``."""
    mask = 0
    for q in _bits(p.x):
        mask ^= zs[q]
    for q in _bits(p.z):
        mask ^= xs[q]
    return mask


def generator_product(t: StabilizerTableau, mask: int) -> PauliOperator:
    """Ordered product g_i g_j ... (i < j < ...) of the generators in ``mask``.

    Bits are column parities.  The phase is the exponent sum plus 2 for every
    pair i < j and qubit where g_i has Z and g_j has X (moving X before Z).
    Those pairs are counted for all columns at once: the selected Z and X
    parts of every column are packed into two ints, and a prefix XOR turns
    each Z block into "odd number of Z rows above this row".
    """
    x = z = 0
    e = (t.e0 & mask).bit_count() + 2 * (t.e1 & mask).bit_count()
    width = mask.bit_length()
    span = 1
    while span < width:
        span <<= 1
    stride = width + span  # the prefix XOR spills at most span - 1 bits past a block
    packed_z = packed_x = 0
    for q, (cx, cz) in enumerate(zip(t.xs, t.zs)):
        a, b = cz & mask, cx & mask
        if a:
            z |= (a.bit_count() & 1) << q
            if b:
                packed_z |= a << (q * stride)
                packed_x |= b << (q * stride)
        if b:
            x |= (b.bit_count() & 1) << q
    s = 1
    while s < span:
        packed_z ^= packed_z << s
        s <<= 1
    e += 2 * (packed_x & packed_z << 1).bit_count()
    return PauliOperator.from_exponent(t.n, x, z, e)


# -- the per-measurement plane path, kept as an oracle ---------------------------
#
# ``measure_pauli`` once read the pivot row off the planes bit by bit, cleared
# the destabilizer row across every plane and XORed the new rows back in, one
# measurement at a time; ``measure_form`` built on it.  Measurements now go
# through ``tableau._measure_z_run``, runs of Z measurements on packed rows,
# and a deterministic sign through ``tableau.is_stabilized_by``.


def sign_form(t: StabilizerTableau, forms, p: PauliOperator) -> int | None:
    """Form of the sign s with ``s * p`` in the group on every branch, else None.

    The destabilizers anticommuting with p select the generator product;
    bit v + 1 of the form is the parity of the selected rows in ``forms[v]``
    (see ``tableau._measure_z_run``), and with no ``forms`` the result is the
    constant 0 (+1) or 1 (-1).
    """
    sel = _anticommuting(t.xs, t.zs, p) >> t.n
    prod = generator_product(t, sel)
    if (prod.x, prod.z) != (p.x, p.z):
        return None
    form = int(prod.e != p.e)
    for v, plane in enumerate(forms):
        form |= ((plane & sel).bit_count() & 1) << (v + 1)
    return form


def plane_row(t: StabilizerTableau, r: int) -> tuple[int, int, int]:
    """(x, z, e) of row ``r``, read off the planes."""
    x = z = 0
    for q, (cx, cz) in enumerate(zip(t.xs, t.zs)):
        x |= (cx >> r & 1) << q
        z |= (cz >> r & 1) << q
    return x, z, (t.e0 >> r & 1) | (t.e1 >> r & 1) << 1


def _xor_row(t: StabilizerTableau, r: int, x: int, z: int, e: int) -> None:
    bit = 1 << r
    for q in _bits(x):
        t.xs[q] ^= bit
    for q in _bits(z):
        t.zs[q] ^= bit
    if e & 1:
        t.e0 ^= bit
    if e & 2:
        t.e1 ^= bit


def plane_multiply_rows(t: StabilizerTableau, mask: int, x: int, z: int, e: int) -> None:
    """Right-multiply every row in ``mask`` by the Pauli with bits (x, z, e)."""
    xs, zs = t.xs, t.zs
    odd = 0
    for q in _bits(x):
        odd ^= zs[q]
        xs[q] ^= mask
    for q in _bits(z):
        zs[q] ^= mask
    t.e1 ^= odd & mask
    _add_exponent(t, mask, e)


def plane_measure_pauli(t: StabilizerTableau, p: PauliOperator, forced=None, rng=None):
    """Measure hermitian Pauli ``p``; returns (outcome, deterministic, tableau).

    ``measure_pauli`` as it was, one measurement on the planes.  When the
    outcome is random, ``forced`` (+1/-1) picks the branch, else a fair coin
    from ``rng``.  Forcing a deterministic measurement to the impossible sign
    raises :class:`ContradictionError`.
    """
    if not p.hermitian:
        raise ValueError(f"{format_pauli(p)} is not hermitian")
    if p.n != t.n:
        raise ValueError("dimension mismatch")
    n = t.n
    anti = _anticommuting(t.xs, t.zs, p)
    if anti & ((1 << n) - 1):
        if forced is not None:
            outcome = int(forced)
            if outcome not in (1, -1):
                raise ValueError("forced outcome must be +1 or -1")
        elif rng is None:
            raise ValueError("random measurement outcome requires an rng")
        else:
            outcome = 1 if int(rng.integers(0, 2)) == 0 else -1
        pivot = (anti & -anti).bit_length() - 1
        d = n + pivot
        x, z, e = plane_row(t, pivot)
        plane_multiply_rows(t, anti & ~(1 << pivot | 1 << d), x, z, e)
        t._rows = None
        keep = ~(1 << d)
        t.xs, t.zs = [c & keep for c in t.xs], [c & keep for c in t.zs]
        t.e0, t.e1 = t.e0 & keep, t.e1 & keep
        _xor_row(t, d, x, z, e)
        _xor_row(t, pivot, x ^ p.x, z ^ p.z, e ^ (p.e if outcome == 1 else p.e + 2) & 3)
        return outcome, False, t
    form = sign_form(t, (), p)
    if form is None:
        raise AssertionError("commuting Pauli outside the group; tableau corrupt")
    outcome = 1 - 2 * form
    if forced is not None and int(forced) != outcome:
        raise ContradictionError(
            f"measurement of {format_pauli(p)} is deterministic ({outcome:+d}); "
            f"cannot force {int(forced):+d}"
        )
    return outcome, True, t


def plane_measure_form(t: StabilizerTableau, forms: list[int], p: PauliOperator) -> int:
    """``measure_form`` as it was, on ``plane_measure_pauli``."""
    gens = _anticommuting(t.xs, t.zs, p) & ((1 << t.n) - 1)
    if not gens:
        form = sign_form(t, forms, p)
        if form is None:
            raise AssertionError("commuting Pauli outside the group; tableau corrupt")
        return form
    plane_measure_pauli(t, p, forced=1)
    pivot = gens & -gens
    for v, plane in enumerate(forms):
        if plane & pivot:
            forms[v] = plane ^ gens
    forms.append(pivot)
    return 1 << len(forms)


# -- single-Pauli conjugation, row by row ----------------------------------------

_LETTER_BITS = {"X": (1, 0, 0), "Z": (0, 1, 0), "Y": (1, 1, 1)}


def conjugate_row(p: PauliOperator, name: str, qubits, pauli=None) -> None:
    """G p G^dagger in place, one conjugation rule per gate (the row path)."""
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
    else:
        letter = {"CNOT": "X", "CZ": "Z", "CP": pauli}[name]
        px, pz, pe = _LETTER_BITS[letter]
        a = qubits[0]
        for q in qubits[1:]:
            xa = (x >> a) & 1
            xq, zq = (x >> q) & 1, (z >> q) & 1
            tau = (xq & pz) ^ (zq & px)
            if xa:
                e += pe + 2 * (pz & xq)
                x ^= px << q
                z ^= pz << q
            z ^= tau << a
    p.x, p.z, p.e = x, z, e % 4


def row_conjugate_pauli(p: PauliOperator, name: str, qubits, pauli=None) -> PauliOperator:
    """G p G^dagger for a single Pauli, as a new operator."""
    out = PauliOperator.from_exponent(p.n, p.x, p.z, p.e)
    conjugate_row(out, name, qubits, pauli)
    return out


# -- group queries ------------------------------------------------------------------


def restricted_group_elements(t, subset) -> list[PauliOperator]:
    """All group elements (signs included) supported inside ``subset``, by
    (weight, x, z); ``t`` is anything with ``n`` and ``generators``.

    A generator combination is trivial on qubit q iff its x and z bits there
    cancel, so the combinations form the null space of the outside columns.
    """
    n, gens = t.n, t.generators
    region = set(subset)
    system = []
    for q in range(n):
        if q not in region:
            system.append(sum((g.x >> q & 1) << i for i, g in enumerate(gens)))
            system.append(sum((g.z >> q & 1) << i for i, g in enumerate(gens)))
    basis = GF2Elimination(n, system).null_basis()
    elements = []
    for combo in range(1 << len(basis)):
        mask = reduce(xor, (basis[i] for i in _bits(combo)), 0)
        prod = PauliOperator(n, 0, 0)
        for i in _bits(mask):
            prod = prod * gens[i]
        elements.append(prod)
    elements.sort(key=lambda p: (p.weight(), p.x, p.z))
    return elements
