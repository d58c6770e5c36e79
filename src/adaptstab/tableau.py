"""Stabilizer tableaux: Clifford conjugation, runs of Z measurements, group queries.

A tableau stores n stabilizer generators plus n destabilizers (the
Aaronson-Gottesman layout).  Destabilizer i anticommutes with generator i and
commutes with every other row, so a deterministic measurement outcome is the
product of the generators whose destabilizers anticommute with the Pauli.

Storage is column-major and bit-sliced, as in Stim's transposed tableau: for
qubit q, ``xs[q]`` and ``zs[q]`` are Python-int planes over the 2n rows (bit i
is generator i, bit n + i destabilizer i).  Each row's i-exponent e (the phase
of its X-before-Z form, see ``pauli``) is kept mod 4 in the planes ``e0`` (low
bit) and ``e1`` (high bit), so non-hermitian rows keep their exact phase.
A gate costs a few big-int operations on its qubits' planes, whatever n is:
``apply_gate`` looks its name up in ``_GATES``, a table of one small kernel
per gate, after one inline test of the call; the full checks run only when
that test fails (a fan-out CNOT, or an error).
Measurements run on packed rows x | z << n | e << 2n, as in Stim: a random
outcome multiplies only the anticommuting rows by the pivot.  A run of Z
measurements (``_measure_z_run``) transposes once each way and keeps
current only the X columns still to measure.  ``generators`` and
``destabilizers`` are read-only tuples of :class:`PauliOperator`, built on
demand by one transpose (as the constructor reads its rows) and cached
until the next in-place change.  ``factor_out_qubits`` removes any set of
measured qubits in one pass: one transpose to rows, row products on the
selected rows only, one transpose back.  ``from_stabilizers`` reads every
destabilizer from one GF(2) elimination, one highest-bit pass over the
generators and two transposes (generators to planes, solutions to rows).
``states_equal`` compares a whole generator set in one pass over the column
planes (``_match_products``): O(weight) big-int operations, bit-parallel
over the generators, one transpose, and no row views; ``validate_tableau``
reads its masks with none, and builds the views only to name a failure.
``is_stabilized_by`` is the same plane pass on one Pauli, ``_stabilized`` on
a list, with one more transpose to read the Paulis' planes.

Gates mutate the tableau in place and also return it, so calls chain.
Qubit indices are 0-based everywhere.
"""

from __future__ import annotations

import json
import re
from typing import Iterable, Sequence

import numpy as np

from .errors import ContradictionError, ResourceGuardError
from .pauli import (
    GF2Elimination,
    PauliOperator,
    _PAULI_BITS,
    _bits,
    _transpose,
    format_pauli,
    gf2_rank,
    parse_pauli,
    single_site,
)

__all__ = [
    "GATE_ARITY",
    "StabilizerTableau",
    "zero_state",
    "ghz_state",
    "check_gate",
    "apply_gate",
    "apply_pauli_form",
    "is_stabilized_by",
    "states_equal",
    "random_stabilizer_state",
    "from_stabilizers",
    "factor_out_qubits",
    "validate_tableau",
    "to_json",
    "from_json",
]

# Qubits each gate acts on; CNOT is a fan-out taking this many or more.
GATE_ARITY = {"H": 1, "S": 1, "SDG": 1, "X": 1, "Y": 1, "Z": 1, "CNOT": 2, "CZ": 2, "SWAP": 2, "CP": 2}


class StabilizerTableau:
    """Generators + destabilizers of an n-qubit stabilizer state, stored by column."""

    __slots__ = ("n", "xs", "zs", "e0", "e1", "_rows")

    def __init__(
        self,
        n: int,
        generators: Sequence[PauliOperator],
        destabilizers: Sequence[PauliOperator],
    ):
        if len(generators) != n or len(destabilizers) != n:
            raise ValueError("need exactly n generators and n destabilizers")
        rows = [*generators, *destabilizers]
        if any(r.n != n for r in rows):
            raise ValueError(f"every row must act on n={n} qubits")
        self.n = n
        planes = _transpose([r.x | r.z << n for r in rows], 2 * n)
        self.xs, self.zs = planes[:n], planes[n:]
        self.e0 = sum((r.e & 1) << i for i, r in enumerate(rows))
        self.e1 = sum((r.e >> 1) << i for i, r in enumerate(rows))
        self._rows = None

    @classmethod
    def _from_planes(cls, n: int, xs: list[int], zs: list[int], e0: int, e1: int) -> "StabilizerTableau":
        t = cls.__new__(cls)
        t.n, t.xs, t.zs, t.e0, t.e1, t._rows = n, xs, zs, e0, e1, None
        return t

    def _row_views(self) -> tuple[tuple[PauliOperator, ...], tuple[PauliOperator, ...]]:
        if self._rows is None:
            n, low = self.n, (1 << self.n) - 1
            e0, e1 = self.e0, self.e1
            rows = [
                PauliOperator.from_exponent(n, r & low, r >> n, (e0 >> i & 1) | (e1 >> i & 1) << 1)
                for i, r in enumerate(_transpose([*self.xs, *self.zs], 2 * n))
            ]
            self._rows = (tuple(rows[:n]), tuple(rows[n:]))
        return self._rows

    @property
    def generators(self) -> tuple[PauliOperator, ...]:
        return self._row_views()[0]

    @property
    def destabilizers(self) -> tuple[PauliOperator, ...]:
        return self._row_views()[1]

    def copy(self) -> "StabilizerTableau":
        return StabilizerTableau._from_planes(self.n, list(self.xs), list(self.zs), self.e0, self.e1)

    def __repr__(self) -> str:
        gens = ", ".join(format_pauli(g) for g in self.generators)
        return f"StabilizerTableau(n={self.n}, [{gens}])"


def zero_state(n: int) -> StabilizerTableau:
    """|0...0> with generators Z_i and destabilizers X_i."""
    if n < 1:
        raise ValueError("need n >= 1")
    return StabilizerTableau._from_planes(n, [1 << (n + q) for q in range(n)], [1 << q for q in range(n)], 0, 0)


def ghz_state(n: int) -> StabilizerTableau:
    """GHZ_n: generators X^n and Z_i Z_{i+1}, destabilizers from ``from_stabilizers``."""
    if n < 1:
        raise ValueError("need n >= 1")
    gens = [PauliOperator(n, (1 << n) - 1, 0)]
    gens += [PauliOperator(n, 0, 3 << i) for i in range(n - 1)]
    return from_stabilizers(gens)


# -- plane kernels ----------------------------------------------------------------


def _add_exponent(t: StabilizerTableau, mask: int, k: int) -> None:
    """e += k (mod 4) on every row in ``mask``."""
    if k & 1:
        t.e1 ^= t.e0 & mask
        t.e0 ^= mask
    if k & 2:
        t.e1 ^= mask


def _to_rows(t: StabilizerTableau) -> list[int]:
    """Row r of ``t`` packed as x | z << n | e << 2n, by one transpose."""
    return _transpose([*t.xs, *t.zs, t.e0, t.e1], 2 * t.n)


def _from_rows(t: StabilizerTableau, rows: Sequence[int]) -> None:
    """Write packed rows back into the planes of ``t``, by one transpose."""
    planes = _transpose(rows, 2 * t.n + 2)
    t.xs, t.zs, t.e0, t.e1, t._rows = planes[: t.n], planes[t.n : -2], planes[-2], planes[-1], None


def _times(a: int, b: int, n: int) -> int:
    """Product a * b of two packed rows x | z << n | e << 2n."""
    odd = (a >> n & b & ((1 << n) - 1)).bit_count() & 1  # a's Z meets b's X
    return (a ^ b) & ((1 << 2 * n) - 1) | ((a >> 2 * n) + (b >> 2 * n) + 2 * odd & 3) << 2 * n


def _collapse(rows: list[int], n: int, anti: int, new: int) -> tuple[int, int, int]:
    """A random outcome on packed rows: every other row in ``anti`` (those
    anticommuting with the measured Pauli) is multiplied by its lowest
    generator, the pivot, whose destabilizer becomes it and which becomes
    ``new``.  Returns (pivot, its old row, its old destabilizer)."""
    pivot = (anti & -anti).bit_length() - 1
    p, d = rows[pivot], rows[n + pivot]
    for r in _bits(anti & ~(1 << pivot | 1 << (n + pivot))):
        rows[r] = _times(rows[r], p, n)
    rows[pivot], rows[n + pivot] = new, p
    return pivot, p, d


# -- gate conjugation -------------------------------------------------------


def check_gate(name: str, n_qubits: int) -> None:
    """Raise ValueError unless ``name`` is a known gate on ``n_qubits`` qubits."""
    arity = GATE_ARITY.get(name) if isinstance(name, str) else None
    if arity is None:
        raise ValueError(f"unknown gate {name!r}")
    if name == "CNOT":
        if n_qubits < arity:
            raise ValueError("CNOT needs a control and at least one target")
    elif n_qubits != arity:
        raise ValueError(f"{name} expects {arity} qubits, got {n_qubits}")


# One kernel per gate, ``kernel(t, qubits, pauli)``: the CHP update of the
# planes of its qubits, on a call ``apply_gate`` has checked.


def _h(t: StabilizerTableau, qs: Sequence[int], pauli: str | None) -> None:
    q = qs[0]
    x, z = t.xs[q], t.zs[q]
    t.e1 ^= x & z
    t.xs[q], t.zs[q] = z, x


def _phase(k: int):
    def kernel(t: StabilizerTableau, qs: Sequence[int], pauli: str | None) -> None:
        x = t.xs[qs[0]]
        _add_exponent(t, x, k)
        t.zs[qs[0]] ^= x

    return kernel


def _pauli(px: int, pz: int):
    def kernel(t: StabilizerTableau, qs: Sequence[int], pauli: str | None) -> None:
        q = qs[0]  # a Pauli gate negates the rows it anticommutes with
        t.e1 ^= (t.zs[q] if px else 0) ^ (t.xs[q] if pz else 0)

    return kernel


def _swap(t: StabilizerTableau, qs: Sequence[int], pauli: str | None) -> None:
    a, b = qs
    xs, zs = t.xs, t.zs
    xs[a], xs[b] = xs[b], xs[a]
    zs[a], zs[b] = zs[b], zs[a]


def _cnot(t: StabilizerTableau, qs: Sequence[int], pauli: str | None) -> None:
    xs, zs = t.xs, t.zs
    a = qs[0]
    xa, za = xs[a], zs[a]  # rows with X on the control pick up X on each target
    for q in qs[1:]:
        xs[q] ^= xa
        za ^= zs[q]
    zs[a] = za


def _controlled(letter: str | None):
    """Controlled-``letter`` (CZ), or controlled-``pauli`` when None (CP)."""

    def kernel(t: StabilizerTableau, qs: Sequence[int], pauli: str | None) -> None:
        p = letter or pauli
        if not isinstance(p, str) or p not in _PAULI_BITS:
            raise ValueError(f"CP needs a pauli in X/Y/Z, got {p!r}")
        px, pz = _PAULI_BITS[p]
        a, b = qs
        xs, zs = t.xs, t.zs
        xa, xb, zb = xs[a], xs[b], zs[b]  # rows with X on a pick up the letter on b
        if px & pz:  # Y = i X Z
            _add_exponent(t, xa, 1)
        if pz:
            t.e1 ^= xa & xb
            zs[b] = zb ^ xa
        if px:
            xs[b] = xb ^ xa
        zs[a] ^= (xb if pz else 0) ^ (zb if px else 0)

    return kernel


_GATES = {"H": _h, "S": _phase(1), "SDG": _phase(3), **{p: _pauli(*bits) for p, bits in _PAULI_BITS.items()}}
_GATES |= {"CNOT": _cnot, "CZ": _controlled("Z"), "SWAP": _swap, "CP": _controlled(None)}


def apply_gate(t: StabilizerTableau, name: str, qubits: Sequence[int], pauli: str | None = None) -> StabilizerTableau:
    """Conjugate every row by the named Clifford gate (in place).

    The CHP update rules act on whole columns: a few big-int operations on
    the planes of ``qubits``, whatever the number of rows.  Each gate is one
    kernel of ``_GATES``.  A call with the gate's arity on qubits in range
    and distinct is checked by one inline test; only any other call (a
    fan-out CNOT, or an error) runs the full checks, whose order sets which
    error a bad call raises.
    """
    kernel = _GATES.get(name) if isinstance(name, str) else None
    n, k = t.n, len(qubits)
    if not (
        kernel is not None
        and GATE_ARITY[name] == k
        and (0 <= qubits[0] < n if k == 1 else qubits[0] != qubits[1] and 0 <= qubits[0] < n and 0 <= qubits[1] < n)
    ):  # every check, in order; only a valid fan-out CNOT passes them
        if len(set(qubits)) != k:
            raise ValueError(f"repeated qubit in {qubits}")
        for q in qubits:
            if not 0 <= q < n:
                raise ValueError(f"qubit {q} out of range for n={n}")
        check_gate(name, k)
    kernel(t, qubits, pauli)
    t._rows = None
    return t


# -- Z measurement and sign forms --------------------------------------------
#
# A symbolic run carries every generator's sign as an affine GF(2) form over
# the outcomes of the random measurements made so far, so one pass covers
# every outcome branch.  A form is an int: bit 0 is the constant, bit v + 1
# is outcome variable v (0 reads +1).  In the tableau the constant part stays
# in ``e0``/``e1`` and ``forms[v]`` is the plane of generator rows whose sign
# contains variable v.  Destabilizers carry no forms: rows are only ever
# multiplied by generators, so their signs never reach a generator's.


def _measure_z_run(
    t: StabilizerTableau,
    qubits: Sequence[int],
    forms: list[int] | None = None,
    forced: Sequence[int] | None = None,
    rng: np.random.Generator | None = None,
) -> list[int]:
    """Measure Z on each of the distinct ``qubits`` in turn; returns each
    outcome's form (a concrete outcome is the constant 0 for +1, 1 for -1).

    With an ``rng`` a random outcome is ``forced[k]`` when given, else one
    draw, and an impossible forced deterministic one raises
    :class:`ContradictionError`.  Without one a random outcome is a fresh
    variable: the new pivot's form, XORed into the forms of the other
    anticommuting generators.  One transpose each way; in between only the
    X columns of the qubits still to measure, their anticommuting rows, are
    kept current.  A deterministic outcome is the product of the generators
    the destabilizers select.
    """
    n = t.n
    gens = (1 << n) - 1
    rows = _to_rows(t)
    xcol = {q: t.xs[q] for q in qubits}  # rows with X on a qubit still to measure
    pending = sum(1 << q for q in xcol)
    out = []
    for k, q in enumerate(qubits):
        anti = xcol.pop(q)
        pending ^= 1 << q
        if g := anti & gens:
            if rng is None:  # the new pivot's constant sign is +
                forms[:] = [plane ^ g if plane & g & -g else plane for plane in forms] + [g & -g]
                form, sign = 1 << len(forms), 0
            else:
                form = sign = int(rng.integers(0, 2)) if forced is None else forced[k]
            pivot, p, d = _collapse(rows, n, anti, 1 << (n + q) | sign << (2 * n + 1))
            # Rows multiplied by p flip on p's X columns; the pivot drops
            # them and its destabilizer changes from d's to p's.
            for c in _bits(p & pending):
                xcol[c] ^= anti & ~(1 << (n + pivot))
            for c in _bits((p ^ d) & pending):
                xcol[c] ^= 1 << (n + pivot)
        else:
            sel, prod = anti >> n, 0
            for i in _bits(sel):
                prod = _times(prod, rows[i], n)
            if prod & ~(-1 << 2 * n) != 1 << (n + q):
                raise AssertionError("commuting Pauli outside the group; tableau corrupt")
            form = int(prod >> 2 * n != 0)
            if rng is None:
                for v, plane in enumerate(forms):
                    form |= ((plane & sel).bit_count() & 1) << (v + 1)
            elif forced is not None and forced[k] != form:
                raise ContradictionError(
                    f"measurement of {format_pauli(single_site(n, q, 'Z'))} is deterministic "
                    f"({1 - 2 * form:+d}); cannot force {1 - 2 * forced[k]:+d}"
                )
        out.append(form)
    _from_rows(t, rows)
    return out


def apply_pauli_form(t: StabilizerTableau, forms: list[int], name: str, qubits: Sequence[int], form: int) -> None:
    """Apply the Pauli gate ``name`` on the branches where ``form`` reads 1."""
    e1 = t.e1
    apply_gate(t, name, qubits)  # negates the rows the Pauli anticommutes with
    flipped = (t.e1 ^ e1) & ((1 << t.n) - 1)
    if not form & 1:
        t.e1 = e1
    for v in _bits(form >> 1):
        forms[v] ^= flipped


def is_stabilized_by(t: StabilizerTableau, p: PauliOperator) -> int | None:
    """+1/-1 when ``sign * p`` is in the stabilizer group, else None."""
    unmatched, wrong = _stabilized(t, [p])
    return None if unmatched else -1 if wrong else 1


def _stabilized(t: StabilizerTableau, ops: Sequence[PauliOperator]) -> tuple[int, int]:
    """(unmatched, wrong): bit i of each is set when neither sign of ``ops[i]``,
    or when not +ops[i], is in the group (one ``_match_products`` pass).  A
    non-hermitian Pauli raises ValueError unless an earlier one is wrong."""
    if any(p.n != t.n for p in ops):
        raise ValueError("dimension mismatch")
    e0, e1 = (sum((p.e >> b & 1) << i for i, p in enumerate(ops)) for b in (0, 1))
    planes = _transpose([p.x | p.z << t.n for p in ops], 2 * t.n)
    _, unmatched, flipped = _match_products(t, planes[: t.n], planes[t.n :], e0, e1, len(ops))
    wrong = unmatched | flipped
    if not all(p.hermitian for p in ops[: (wrong & -wrong).bit_length() or None]):
        raise ValueError("is_stabilized_by expects a hermitian Pauli")
    return unmatched, wrong


# -- whole generator sets -----------------------------------------------------
#
# A set of k Paulis is given by column planes, as a tableau's rows are: bit i
# of ``pxs[q]`` / ``pzs[q]`` is Pauli i's X / Z bit on qubit q, and bit i of
# ``e0`` / ``e1`` the low / high bit of its i-exponent.


def _non_hermitian(t: StabilizerTableau) -> int:
    """Mask of the rows whose exponent parity differs from their Y count's."""
    odd = t.e0
    for cx, cz in zip(t.xs, t.zs):
        odd ^= cx & cz
    return odd


def _anticommuting_masks(
    xs: Sequence[int], zs: Sequence[int], pxs: Sequence[int], pzs: Sequence[int], k: int
) -> list[int]:
    """Mask of the rows (of planes ``xs``, ``zs``) that anticommute with
    each of k Paulis given by column planes."""
    masks = [0] * k
    for cx, cz, px, pz in zip(xs, zs, pxs, pzs):
        for i in _bits(px):
            masks[i] ^= cz
        for i in _bits(pz):
            masks[i] ^= cx
    return masks


def _match_products(
    t: StabilizerTableau, pxs: Sequence[int], pzs: Sequence[int], e0: int, e1: int, k: int
) -> tuple[list[int], int, int]:
    """Compare k Paulis with the generator products their destabilizer
    patterns select (as in ``is_stabilized_by``), all at once.

    Returns (picks, unmatched, flipped): bit i of ``picks[j]`` is set when
    Pauli i's product takes generator j, of ``unmatched`` when that product
    has other X/Z bits than Pauli i, and of ``flipped`` when it has another
    exponent.  One transpose turns the anticommutation masks into picks.
    The products, ordered g_i g_j ... (i < j < ...), are then built column
    by column for every Pauli at once: an X of generator j meets the Z
    parity of the selected generators before j on the same column.
    """
    n = t.n
    full = (1 << n) - 1
    picks = _transpose([m >> n for m in _anticommuting_masks(t.xs, t.zs, pxs, pzs, k)], n)
    p0 = p1 = 0  # exponent planes of the products
    for j in _bits(t.e0 & full):
        p1 ^= p0 & picks[j]
        p0 ^= picks[j]
    for j in _bits(t.e1 & full):
        p1 ^= picks[j]
    unmatched = 0
    for cx, cz, px, pz in zip(t.xs, t.zs, pxs, pzs):
        cx &= full
        cz &= full
        ax = az = 0
        rows = cx | cz
        while rows:
            low = rows & -rows
            s = picks[low.bit_length() - 1]
            if cx & low:
                p1 ^= s & az
                ax ^= s
            if cz & low:
                az ^= s
            rows ^= low
        unmatched |= ax ^ px | az ^ pz
    return picks, unmatched, p0 ^ e0 | p1 ^ e1


def states_equal(t1: StabilizerTableau, t2: StabilizerTableau) -> bool:
    """True iff both tableaux stabilize the same state.

    Every generator of ``t1`` is compared with the product of ``t2``'s
    generators that its destabilizer pattern selects, all in one plane pass
    (``_match_products``).  A non-hermitian generator of ``t1`` that comes no
    later than the first mismatch raises ValueError.
    """
    if t1.n != t2.n:
        raise ValueError("dimension mismatch")
    n = t1.n
    full = (1 << n) - 1
    pxs, pzs = [c & full for c in t1.xs], [c & full for c in t1.zs]
    _, unmatched, flipped = _match_products(t2, pxs, pzs, t1.e0 & full, t1.e1 & full, n)
    wrong = unmatched | flipped
    # Generators count in order: a non-hermitian one raises unless an
    # earlier one is already wrong.
    odd = _non_hermitian(t1) & ((wrong & -wrong) * 2 - 1 if wrong else full)
    if odd:
        g = t1.generators[(odd & -odd).bit_length() - 1]
        raise ValueError(f"generator {format_pauli(g)} is not hermitian")
    return not wrong


# -- construction helpers ----------------------------------------------------


def _raise_anticommuting(ops: Sequence[PauliOperator], masks: Sequence[int], noun: str) -> None:
    """ValueError naming the first pair i < j of ``ops`` (the ``noun``) that
    anticommutes; ``masks[i]`` has bit j set when op j anticommutes with op i."""
    full = (1 << len(ops)) - 1
    for i, mask in enumerate(masks):
        later = (mask & full) >> (i + 1)
        if later:
            j = i + (later & -later).bit_length()
            raise ValueError(f"{noun} {format_pauli(ops[i])} and {format_pauli(ops[j])} anticommute")


def validate_tableau(t: StabilizerTableau) -> None:
    """Raise ValueError when any tableau invariant is broken.

    Hermiticity and one anticommutation mask per generator are read from
    the planes; the masks cover both the generator commutation and the
    destabilizer pairing.  Only a failure builds the row views, to name it.
    """
    n = t.n
    full = (1 << n) - 1
    masks = _anticommuting_masks(t.xs, t.zs, [c & full for c in t.xs], [c & full for c in t.zs], n)
    if not _non_hermitian(t) & full and all(mask == 1 << (n + j) for j, mask in enumerate(masks)):
        return
    gens = t.generators
    for g in gens:
        if not g.hermitian:
            raise ValueError(f"bad generator {format_pauli(g)}")
    # Correct pairing implies independence, so rank only matters on failure.
    if gf2_rank([c & full for c in (*t.xs, *t.zs)]) != n:
        raise ValueError("generators are dependent")
    _raise_anticommuting(gens, masks, "generators")
    wrong = [(mask >> n) ^ (1 << j) for j, mask in enumerate(masks)]
    i = min((w & -w).bit_length() - 1 for w in wrong if w)
    j = next(j for j, w in enumerate(wrong) if w >> i & 1)
    raise ValueError(f"destabilizer {i} pairs incorrectly with generator {j}")


def _check_widths(gens: Sequence[PauliOperator], n: int) -> None:
    for g in gens:
        if g.n != n:
            raise ValueError(f"generator {format_pauli(g)} acts on {g.n} qubits, expected {n}")


def from_stabilizers(gens: Sequence[PauliOperator]) -> StabilizerTableau:
    """Build a tableau from n independent commuting hermitian generators.

    Destabilizer i is the solution of ``M x = e_i``, free columns zero, where
    M holds the symplectic constraints of the generators and of the
    destabilizers before i (see ``_from_stabilizers``); display sign +1.
    """
    return _from_stabilizers(gens)[0]


def _from_stabilizers(gens: Sequence[PauliOperator]) -> tuple[StabilizerTableau, list[int]]:
    """``from_stabilizers``, plus ``columns``: bit j of ``columns[c]`` is
    column c of the solution over the generators alone (``M x = e_j`` before
    any destabilizer joins), free columns zero.

    Every x_j starts as that solution, in planes (``GF2Elimination.columns``)
    and rows (one transpose).  When destabilizer i joins with new pivot
    column p, each later x_j that meets its row takes the null vector of M at
    column p (1 on p, 0 on the other free columns), in both.  The x_j it meets
    are the generators in the tag of its reduced row: x_j meets each input
    row as ``e_j`` says and is zero on the free columns where the reduced row
    lies.  The vectors meeting no generator and no destabilizer before i are
    the span of generators i..n-1, whose free columns are its highest bits,
    so the null vectors come from reducing each generator by those after it,
    highest bit first.
    """
    if not gens:
        raise ValueError("need at least one generator")
    n = gens[0].n
    _check_widths(gens, n)
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
    rows = [g.x | g.z << n for g in gens]
    planes = _transpose(rows, 2 * n)
    xs, zs = planes[:n], planes[n:]
    _raise_anticommuting(gens, _anticommuting_masks(xs, zs, xs, zs, n), "generators")
    low = (1 << n) - 1
    columns = elim.columns(low)
    sols, ds = _transpose(columns, n), list(columns)  # the x_j as rows and as planes
    nulls, basis, tops = [0] * n, {}, 0
    for i in reversed(range(n)):
        u = rows[i]
        while hits := u & tops:
            u ^= basis[hits.bit_length() - 1]
        basis[u.bit_length() - 1] = nulls[i] = u
        tops |= 1 << (u.bit_length() - 1)
    for i in range(n - 1):
        v = sols[i]
        tag = elim.add(v >> n | (v & low) << n) & low & -2 << i
        for j in _bits(tag):
            sols[j] ^= nulls[i]
        for c in _bits(nulls[i]):
            ds[c] ^= tag
    es = [g.e for g in gens] + [(v & v >> n & low).bit_count() & 3 for v in sols]
    e0, e1 = (sum((e >> b & 1) << i for i, e in enumerate(es)) for b in (0, 1))
    xs, zs = [a | b << n for a, b in zip(xs, ds)], [a | b << n for a, b in zip(zs, ds[n:])]
    return StabilizerTableau._from_planes(n, xs, zs, e0, e1), columns


def factor_out_qubits(t: StabilizerTableau, qs: Iterable[int]) -> StabilizerTableau:
    """Remove the qubits ``qs``, each in a definite Z eigenstate.

    Returns a fresh tableau on the remaining qubits, the one that removing
    them one at a time, highest first, gives.  For each q in that order: the
    generators whose destabilizers anticommute with Z_q multiply to +-Z_q,
    and every generator with Z on q takes that sign; the lowest of those
    destabilizers still present is the pivot, and the others are multiplied
    by it, which clears their X on q.  No row left has X on q, so the pivot
    pair and column q drop out with every commutation relation kept.  One
    transpose reads the rows, the destabilizers' X bits are kept current on
    the measured columns only, and one transpose writes the rest back.
    """
    n = t.n
    order = sorted(qs, reverse=True)
    for q, prev in zip(order, [None, *order]):
        if not 0 <= q < n:
            raise ValueError(f"qubit {q} out of range for n={n}")
        if q == prev:
            raise ValueError(f"qubit {q} repeated")
    rows = _to_rows(t)
    xcol = {q: t.xs[q] >> n for q in order}  # destabilizers with X on q
    pending = sum(1 << q for q in order)  # measured columns not reached yet
    removed = gone = 0  # pivots and columns dropped so far
    for q in order:
        sel = xcol[q] & ~removed
        signed_zq = 0
        for i in _bits(sel):
            signed_zq = _times(signed_zq, rows[i], n)
        if signed_zq & ((1 << 2 * n) - 1) & ~(gone | gone << n) != 1 << (n + q):
            raise ValueError(f"qubit {q} is not in a definite Z eigenstate")
        pivot = sel & -sel
        if sign := signed_zq >> 2 * n << 2 * n:  # generators with Z on q times +-Z_q
            for i in _bits(t.zs[q] & ((1 << n) - 1) & ~pivot):
                rows[i] = _times(rows[i], sign, n)
        d = rows[n + pivot.bit_length() - 1]
        for i in _bits(sel ^ pivot):
            rows[n + i] = _times(rows[n + i], d, n)
        pending ^= 1 << q
        for c in _bits(d & pending):
            xcol[c] ^= sel ^ pivot
        removed |= pivot
        gone |= 1 << q
    dropped = removed | removed << n
    planes = _transpose([r for i, r in enumerate(rows) if not dropped >> i & 1], 2 * n + 2)
    kept = [c for c in range(n) if not gone >> c & 1]
    return StabilizerTableau._from_planes(
        len(kept), [planes[c] for c in kept], [planes[n + c] for c in kept], planes[2 * n], planes[2 * n + 1]
    )


# -- random states -----------------------------------------------------------


def random_stabilizer_state(n: int, seed: int) -> StabilizerTableau:
    """Seed-reproducible random stabilizer state (depth-2n random circuit)."""
    if n > 64:
        raise ResourceGuardError(
            f"random_stabilizer_state supports n <= 64, got n = {n}", name="random_state", limit=64, value=n
        )
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


# -- serialization ------------------------------------------------------------


def to_json(t: StabilizerTableau) -> dict:
    return {
        "n": t.n,
        "generators": [format_pauli(g) for g in t.generators],
        "destabilizers": [format_pauli(d) for d in t.destabilizers],
    }


_JSON_TYPES = {int: "an integer", str: "a string", list: "a list", dict: "an object", bool: "a boolean"}


def _json_field(value: object, name: str, kind: type = int, *, owner: str) -> object:
    """``value`` when it is a JSON ``kind``; true/false and 1.0 are not integers."""
    if type(value) is not kind:
        raise ValueError(f"{owner} field {name!r} must be {_JSON_TYPES[kind]}, got {json.dumps(value)}")
    return value


def _json_key(d: dict, key: str, kind: type = int, name: str | None = None, *, owner: str) -> object:
    """``d[key]``, a JSON ``kind``; ValueError naming the field when it is missing or of another type."""
    if key not in d:
        raise ValueError(f"{owner} field {name or key!r} is missing")
    return _json_field(d[key], name or key, kind, owner=owner)


def _json_object(value: object, owner: str) -> dict:
    """``value`` when it is a JSON object, the one shape of every input document."""
    if type(value) is not dict:
        raise ValueError(f"a {owner} must be a JSON object, got {json.dumps(value)}")
    return value


def _split_name(name: str) -> tuple[str, int | None]:
    """``(name, N)`` of ``name(N)`` or ``nameN``, ``(name, None)`` of a bare name;
    lower-cased and stripped, a non-integer N a ValueError naming ``name``.  The
    one reader of the size syntax of codes, tableaus and tolerance-table families."""
    key = name.strip().lower()
    if "(" in key and key.endswith(")"):
        base, size = key[:-1].split("(", 1)
        try:
            return base.strip(), int(size)
        except ValueError:
            raise ValueError(f"size in {name!r} is not an integer: {size.strip()!r}") from None
    m = re.fullmatch(r"([a-z]+)(\d+)", key)
    return (m.group(1), int(m.group(2))) if m else (key, None)


def from_json(data: dict) -> StabilizerTableau:
    """Read ``to_json`` output; without destabilizers (the field left out or
    empty) they come from ``from_stabilizers``.  A field that is missing or
    of another JSON type raises ValueError naming it."""
    data = _json_object(data, "tableau")
    n = _json_key(data, "n", owner="tableau")
    gens = [parse_pauli(s) for s in _json_key(data, "generators", list, owner="tableau")]
    _check_widths(gens, n)
    if destabs := _json_field(data.get("destabilizers", []), "destabilizers", list, owner="tableau"):
        destabs = [parse_pauli(s) for s in destabs]
        t = StabilizerTableau(n, gens, destabs)
        validate_tableau(t)
        return t
    return from_stabilizers(gens)
