"""Adaptive-circuit IR: validation, depth, simulation, lightcones.

A circuit is a list of layers; each layer holds gates and measurements
acting on pairwise-disjoint qubits.  Gates may carry a classical condition
(parity of earlier measurement bits).  Measured qubits are dead for the
rest of the circuit and are factored out of the final tableau.

``simulate`` (one seeded or forced branch) and ``simulate_symbolic`` (every
branch at once, signs as affine GF(2) forms over the random outcomes) are
one layer walk: a concrete 0/1 outcome is a constant form, so measurement
records, conditions and their error checks are shared.

Depth counts every layer containing at least one non-merged operation;
layers holding only ``merged`` bookkeeping gates (Hadamards absorbed into
neighboring controlled-Pauli layers) are skipped, so reported depths match
hand counts for syndrome-extraction fragments.

Lightcones are transitive closures of gate-support contact only; classical
feedforward wires are deliberately not traced (operator spreading through
unitaries is what the g function bounds).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from functools import partial
from itertools import groupby
from typing import Iterable, Sequence

import numpy as np

from .pauli import _PAULI_LETTERS, _bits
from .tableau import (
    GATE_ARITY,
    StabilizerTableau,
    _json_field,
    _json_key,
    _json_object,
    _match_products,
    _measure_z_run,
    apply_gate,
    apply_pauli_form,
    check_gate,
    factor_out_qubits,
    validate_tableau,
    zero_state,
)

__all__ = [
    "Condition",
    "Gate",
    "Measure",
    "AdaptiveCircuit",
    "Geometry",
    "ValidationReport",
    "validate",
    "depth",
    "ancilla_count",
    "simulate",
    "SymbolicRun",
    "conditioned_non_pauli",
    "simulate_symbolic",
    "forward_lightcone",
    "backward_lightcone",
    "g_value",
    "ghz_adaptive",
    "fanout_depth",
    "to_json",
    "from_json",
]

@dataclass(frozen=True)
class Condition:
    """Fire the gate when XOR of the classical bits equals `xor`."""

    bits: tuple[int, ...]
    xor: int = 1


@dataclass(frozen=True, slots=True, init=False)
class Gate:
    op: str
    qubits: tuple[int, ...]
    pauli: str | None = None
    cond: Condition | None = None
    merged: bool = False

    def __init__(self, op, qubits, pauli=None, cond=None, merged=False):
        _set_op(self, op)
        _set_qubits(self, tuple(qubits))
        _set_pauli(self, pauli)
        _set_cond(self, cond)
        _set_merged(self, merged)


# Gate's slot setters, bound once: through object.__setattr__, as a frozen
# dataclass sets fields, a gate takes about twice as long to build.
_set_op, _set_qubits, _set_pauli, _set_cond, _set_merged = (getattr(Gate, f.name).__set__ for f in fields(Gate))


@dataclass(frozen=True)
class Measure:
    qubit: int
    cbit: int


@dataclass
class AdaptiveCircuit:
    m: int
    cbits: int = 0
    layers: list[list[Gate | Measure]] = field(default_factory=list)

    def add_layer(self, ops: Iterable[Gate | Measure]) -> None:
        self.layers.append(list(ops))


@dataclass(frozen=True)
class Geometry:
    """all-to-all, or an r-dimensional grid with given side lengths."""

    kind: str = "all"
    r: int = 0
    sides: tuple[int, ...] | None = None

    @staticmethod
    def all_to_all() -> "Geometry":
        return Geometry("all")

    @staticmethod
    def grid(r: int, sides: Sequence[int] | None = None) -> "Geometry":
        if r < 1:
            raise ValueError("grid dimension must be >= 1")
        return Geometry("grid", r, None if sides is None else tuple(sides))

    def _sides_for(self, m: int) -> tuple[int, ...]:
        if self.sides is not None:
            if math.prod(self.sides) < m:
                raise ValueError("grid sides too small for qubit count")
            return self.sides
        side = 1
        while side**self.r < m:
            side += 1
        return (side,) * self.r

    def coords(self, q: int, m: int) -> tuple[int, ...]:
        sides = self._sides_for(m)
        out = []
        for s in reversed(sides):
            out.append(q % s)
            q //= s
        return tuple(reversed(out))

    def gate_fits(self, qubits: Sequence[int], K: int, m: int) -> bool:
        """Grid gates must fit in a box of side K (span <= K-1 per axis)."""
        if self.kind == "all":
            return True
        pts = [self.coords(q, m) for q in qubits]
        for axis in range(self.r):
            vals = [p[axis] for p in pts]
            if max(vals) - min(vals) > K - 1:
                return False
        return True


@dataclass
class ValidationReport:
    ok: bool
    violations: list[str]


def validate(c: AdaptiveCircuit, K: int, geometry: Geometry | None = None) -> ValidationReport:
    geometry = geometry or Geometry.all_to_all()
    bad: list[str] = []
    if c.m < 1:
        bad.append("circuit has no qubits")
    written: set[int] = set()
    dead: dict[int, int] = {}
    cbit_writers: set[int] = set()
    for li, layer in enumerate(c.layers):
        if not layer:
            bad.append(f"layer {li}: empty layer")
        used: set[int] = set()
        newly_written: set[int] = set()
        for op in layer:
            if isinstance(op, Measure):
                qs: tuple[int, ...] = (op.qubit,)
                if not 0 <= op.cbit < c.cbits:
                    bad.append(f"layer {li}: classical bit {op.cbit} out of range")
                elif op.cbit in cbit_writers:
                    bad.append(f"layer {li}: classical bit {op.cbit} written twice")
                else:
                    cbit_writers.add(op.cbit)
                    newly_written.add(op.cbit)
            else:
                qs = op.qubits
                if not isinstance(op.op, str) or op.op not in GATE_ARITY:
                    bad.append(f"layer {li}: unknown gate {op.op!r}")
                    continue
                try:
                    check_gate(op.op, len(qs))
                except ValueError as exc:
                    bad.append(f"layer {li}: {exc}")
                if op.op == "CP" and op.pauli not in _PAULI_LETTERS:
                    bad.append(f"layer {li}: CP gate needs pauli X/Y/Z")
                if len(qs) > K:
                    bad.append(f"layer {li}: gate {op.op} fan-in {len(qs)} exceeds K={K}")
                if not geometry.gate_fits(qs, K, c.m):
                    bad.append(f"layer {li}: gate {op.op} on {qs} violates grid locality")
                if op.cond is not None:
                    if op.cond.xor not in (0, 1):
                        bad.append(f"layer {li}: condition offset must be 0/1")
                    for b in op.cond.bits:
                        if not 0 <= b < c.cbits:
                            bad.append(f"layer {li}: condition bit {b} out of range")
                        elif b not in written:
                            bad.append(
                                f"layer {li}: condition bit {b} not written in an earlier layer"
                            )
            if len(set(qs)) != len(qs):
                bad.append(f"layer {li}: repeated qubit within one operation")
            for q in qs:
                if not 0 <= q < c.m:
                    bad.append(f"layer {li}: qubit {q} out of range")
                elif q in dead:
                    bad.append(
                        f"layer {li}: qubit {q} used after measurement in layer {dead[q]}"
                    )
            overlap = used & set(qs)
            if overlap:
                bad.append(f"layer {li}: qubits {sorted(overlap)} shared by two operations")
            used |= set(qs)
        for op in layer:
            if isinstance(op, Measure) and op.qubit not in dead:
                dead[op.qubit] = li
        written |= newly_written
    return ValidationReport(not bad, bad)


def depth(c: AdaptiveCircuit) -> int:
    count = 0
    for layer in c.layers:
        live = any(not (isinstance(op, Gate) and op.merged) for op in layer)
        if live:
            count += 1
    return count


def ancilla_count(c: AdaptiveCircuit, n_target: int) -> int:
    if n_target > c.m:
        raise ValueError("target register larger than the circuit")
    return c.m - n_target


def simulate(
    c: AdaptiveCircuit,
    *,
    seed: int | None = None,
    forced: Sequence[int] | None = None,
    initial: StabilizerTableau | None = None,
) -> tuple[StabilizerTableau, list[int | None]]:
    """Run the circuit, returning (tableau on surviving qubits, outcome bits).

    Outcomes come from `forced` when given, otherwise from a seeded RNG.
    `forced` has one entry per classical bit, each read by ``int`` as 0 or 1,
    so a report's counterexample string such as ``"10"`` replays as is.  A
    `forced` of another length or value, measuring a qubit or writing a
    classical bit twice raise ValueError, as does an ``initial`` tableau
    that ``validate_tableau`` rejects; forcing an impossible deterministic
    outcome, ContradictionError.
    """
    t = initial.copy() if initial is not None else zero_state(c.m)
    if t.n != c.m:
        raise ValueError("initial tableau size mismatch")
    if initial is not None:
        validate_tableau(t)
    if forced is not None:
        forced = [int(b) for b in forced]
        if len(forced) != c.cbits or not set(forced) <= {0, 1}:
            raise ValueError(f"forced needs {c.cbits} outcome bits, each 0 or 1")
    run = _walk(c, t, forced, np.random.default_rng(seed))
    t = run.tableau
    if run.measured:
        t = factor_out_qubits(t, run.measured)
        validate_tableau(t)
    return t, run.record


@dataclass
class SymbolicRun:
    """Every outcome branch of a circuit at once (see ``simulate_symbolic``).

    ``tableau`` holds all m qubits with the constant part of each generator's
    sign, ``forms`` the sign-form planes (see ``tableau._measure_z_run``), and
    ``record[b]`` the outcome form of classical bit b, None when no
    measurement writes it.  Variable v is the outcome of the v-th random
    measurement; ``forced(values)`` decodes one branch, unwritten bits as 0.
    """

    tableau: StabilizerTableau
    forms: list[int]
    record: list[int | None]
    measured: set[int]

    def forced(self, values: int) -> list[int]:
        """Record of the branch where variable v takes bit v of ``values``,
        with unwritten bits read 0, as ``simulate(c, forced=...)`` replays it."""
        return [0 if f is None else ((f >> 1 & values).bit_count() ^ f) & 1 for f in self.record]

    def sign_planes(self, target: StabilizerTableau) -> tuple[int, list[int]]:
        """(fixed, planes): target generator i fails on the branch with variable
        values ``values`` when bit i of ``fixed``, XORed with ``planes[v]`` for
        each v set in ``values``, is 1.

        The measured qubits end in Z eigenstates, so a target generator on the
        survivors (in index order, as after ``simulate``'s factor-out) must be
        in the group, identity on the measured qubits, with the same sign
        form; one plane pass (``tableau._match_products``) compares them all.
        A measured qubit outside a Z eigenstate is named highest first, as
        ``tableau.factor_out_qubits`` names it.
        """
        t = self.tableau
        generators = (1 << t.n) - 1
        for q in sorted(self.measured, reverse=True):
            if t.xs[q] & generators:
                raise ValueError(f"qubit {q} is not in a definite Z eigenstate")
        live = [q for q in range(t.n) if q not in self.measured]
        if len(live) != target.n:
            raise ValueError("dimension mismatch")
        full = (1 << target.n) - 1
        pxs, pzs = [0] * t.n, [0] * t.n
        for q, cx, cz in zip(live, target.xs, target.zs):
            pxs[q], pzs[q] = cx & full, cz & full
        picks, unmatched, flipped = _match_products(t, pxs, pzs, target.e0 & full, target.e1 & full, target.n)
        planes = []  # bit i of planes[v]: variable v is in target generator i's sign form
        for rows in self.forms:
            plane = 0
            for j in _bits(rows):
                plane ^= picks[j]
            planes.append(plane & ~unmatched)  # a generator outside the group fails on every branch
        return unmatched | flipped, planes


def _first_wrong(fixed: int, planes: Sequence[int]) -> int | None:
    """Variable values of a branch that ``SymbolicRun.sign_planes`` marks wrong, or None."""
    wrong = fixed
    for plane in planes:
        wrong |= plane
    if not wrong:
        return None
    first = wrong & -wrong  # the first target generator to fail
    if fixed & first:  # outside the group, or wrong on the all-zero branch
        return 0
    return next(1 << v for v, plane in enumerate(planes) if plane & first)


def conditioned_non_pauli(c: AdaptiveCircuit) -> tuple[int, Gate] | None:
    """(layer, gate) of the first conditioned gate that is not X, Y or Z."""
    for li, layer in enumerate(c.layers):
        for op in layer:
            if isinstance(op, Gate) and op.cond is not None and op.op not in _PAULI_LETTERS:
                return li, op
    return None


def simulate_symbolic(c: AdaptiveCircuit) -> SymbolicRun:
    """Run the circuit on every outcome branch in one pass.

    Each random measurement adds an outcome variable; deterministic outcomes,
    record bits and generator signs are affine GF(2) forms over them.  Only
    Pauli gates may be conditioned, so all branches share every tableau bit
    but the signs.  Raises NotImplementedError on any other conditioned gate.
    """
    bad = conditioned_non_pauli(c)
    if bad is not None:
        li, op = bad
        raise NotImplementedError(f"layer {li}: conditioned {op.op} gate; sign forms cover conditioned Paulis only")
    return _walk(c, zero_state(c.m), None, None)


def _walk(c: AdaptiveCircuit, t: StabilizerTableau, forced: list[int] | None, rng: np.random.Generator | None) -> SymbolicRun:
    """The layer walk under ``simulate`` and ``simulate_symbolic``, in place on t.

    A run of measurements in a layer is one ``tableau._measure_z_run`` call
    on the ops before the first bad one: a bad bit or qubit raises before
    its own measurement, a bit written twice after it.  With an ``rng`` each
    measurement takes one outcome (``forced[cbit]`` when given) and records
    0 or 1, a constant sign form; without one it records the outcome's form.
    A condition is the XOR of its record forms: a form with variables applies
    the Pauli on the branches where it reads 1, a constant form applies the
    gate when 1.
    """
    forms: list[int] = []
    record: list[int | None] = [None] * c.cbits
    measured: set[int] = set()
    for li, layer in enumerate(c.layers):
        for kind, ops in groupby(layer, type):
            if kind is Measure:
                run, error = [], None
                for op in ops:
                    if not 0 <= op.cbit < c.cbits:
                        error = ValueError(f"classical bit {op.cbit} out of range")
                    elif op.qubit in measured:
                        error = ValueError(f"layer {li}: qubit {op.qubit} measured a second time")
                    elif not 0 <= op.qubit < c.m:
                        error = ValueError(f"qubit {op.qubit} out of range for n={c.m}")
                    else:
                        measured.add(op.qubit)
                        if record[op.cbit] is not None:
                            error = ValueError(f"classical bit {op.cbit} written twice")
                        record[op.cbit] = 0  # written; the outcome lands below
                        run.append(op)
                    if error:
                        break
                picks = None if forced is None else [forced[op.cbit] for op in run]
                for op, form in zip(run, _measure_z_run(t, [op.qubit for op in run], forms, picks, rng) if run else ()):
                    record[op.cbit] = form
                if error:
                    raise error
                continue
            for op in ops:
                if op.cond is None:
                    apply_gate(t, op.op, op.qubits, pauli=op.pauli)
                    continue
                parity = 0
                for b in op.cond.bits:
                    if not 0 <= b < c.cbits:
                        raise ValueError(f"condition bit {b} out of range")
                    if record[b] is None:
                        raise ValueError(f"condition reads unwritten classical bit {b}")
                    parity ^= record[b]
                if op.cond.xor not in (0, 1):  # any other offset never fires
                    continue
                fire = parity ^ op.cond.xor ^ 1  # reads 1 where the parity equals xor
                if fire >> 1:
                    apply_pauli_form(t, forms, op.op, op.qubits, fire)
                elif fire:
                    apply_gate(t, op.op, op.qubits, pauli=op.pauli)
    return SymbolicRun(t, forms, record, measured)


def _cone(layers: Iterable[list[Gate | Measure]], qubits: Iterable[int]) -> set[int]:
    """The qubits reached from ``qubits`` through gate supports, in layer order."""
    cone = set(qubits)
    for layer in layers:
        for op in layer:
            qs = (op.qubit,) if isinstance(op, Measure) else op.qubits
            if cone.intersection(qs):
                cone.update(qs)
    return cone


def forward_lightcone(c: AdaptiveCircuit, qubits: Iterable[int]) -> set[int]:
    return _cone(c.layers, qubits)


def backward_lightcone(c: AdaptiveCircuit, qubits: Iterable[int]) -> set[int]:
    return _cone(reversed(c.layers), qubits)


def g_value(K: int, D: int, geometry: Geometry | None = None) -> int:
    """Worst-case lightcone size of one qubit through D layers of fan-in K."""
    if K < 2 or D < 0:
        raise ValueError("need K >= 2 and D >= 0")
    geometry = geometry or Geometry.all_to_all()
    if geometry.kind == "all":
        return K**D
    return (2 * (K - 1) * D + 1) ** geometry.r


def fanout_depth(block: int, K: int) -> int:
    """Layers needed to copy one filled qubit across a block, fan-in K."""
    d = 0
    filled = 1
    while filled < block:
        filled *= K
        d += 1
    return d


def ghz_adaptive(n: int, a: int, K: int) -> AdaptiveCircuit:
    """Two-phase GHZ_n preparation: adaptive backbone fusion + fan-out trees.

    The n target qubits are split into ceil(n/a) blocks of size <= a.  Block
    leaders are fused into GHZ by measuring neighbor Z-parities on
    ceil(n/a)-1 ancillas (chain fusion) and applying prefix-parity X
    corrections; each leader is then copied across its block by a CNOT tree
    of depth ceil(log_K a).  Ancillas occupy indices n..m-1; the chain order
    interleaves ancilla i between leaders i and i+1.
    """
    if not 1 <= a <= n:
        raise ValueError("need 1 <= a <= n")
    if K < 2:
        raise ValueError("need K >= 2")
    nb = -(-n // a)
    m = n + nb - 1
    blocks = [list(range(i * a, min((i + 1) * a, n))) for i in range(nb)]
    leaders = [b[0] for b in blocks]
    anc = list(range(n, m))
    c = AdaptiveCircuit(m, cbits=nb - 1)

    c.add_layer(Gate("H", (q,)) for q in leaders)
    if nb > 1:
        c.add_layer(Gate("CNOT", (leaders[i], anc[i])) for i in range(nb - 1))
        c.add_layer(Gate("CNOT", (leaders[i + 1], anc[i])) for i in range(nb - 1))
        c.add_layer(Measure(anc[i], i) for i in range(nb - 1))
        c.add_layer(
            Gate("X", (leaders[j],), cond=Condition(tuple(range(j)), 1))
            for j in range(1, nb)
        )
    filled = [b[:1] for b in blocks]
    pending = [b[1:] for b in blocks]
    while any(pending):
        layer: list[Gate] = []
        for i in range(nb):
            nxt_filled = []
            for src in filled[i]:
                grab, pending[i] = pending[i][: K - 1], pending[i][K - 1 :]
                if grab:
                    layer.append(Gate("CNOT", (src, *grab)))
                    nxt_filled += grab
            filled[i] += nxt_filled
        c.add_layer(layer)
    return c


# -- JSON interchange ----------------------------------------------------------


def _op_to_dict(op: Gate | Measure) -> dict:
    if isinstance(op, Measure):
        return {"op": "MZ", "qubit": op.qubit, "cbit": op.cbit}
    d: dict = {"op": op.op, "qubits": list(op.qubits)}
    if op.pauli is not None:
        d["pauli"] = op.pauli
    if op.cond is not None:
        d["cond"] = {"bits": list(op.cond.bits), "xor": op.cond.xor}
    if op.merged:
        d["merged"] = True
    return d


_value = partial(_json_field, owner="circuit")
_field = partial(_json_key, owner="circuit")


def _op_from_dict(d: dict) -> Gate | Measure:
    op = _field(d, "op", str)
    if op == "MZ":
        return Measure(_field(d, "qubit"), _field(d, "cbit"))
    cond = None
    if "cond" in d:
        spec = _field(d, "cond", dict)
        bits = tuple(_value(b, "cond.bits") for b in _field(spec, "bits", list, "cond.bits"))
        cond = Condition(bits, _field(spec, "xor", int, "cond.xor"))
    qubits = tuple(_value(q, "qubits") for q in _field(d, "qubits", list))
    pauli = d.get("pauli")
    if pauli is not None:
        _value(pauli, "pauli", kind=str)
    return Gate(op, qubits, pauli, cond, _value(d.get("merged", False), "merged", kind=bool))


def to_json(c: AdaptiveCircuit, indent: int | None = None) -> str:
    payload = {
        "m": c.m,
        "cbits": c.cbits,
        "layers": [[_op_to_dict(op) for op in layer] for layer in c.layers],
    }
    return json.dumps(payload, indent=indent)


def from_json(text: str) -> AdaptiveCircuit:
    """Parse ``to_json`` output.  A field that is missing or of another JSON
    type (a qubit, classical bit or count that is not an integer, an op or
    pauli that is not a string, a layer that is not a list) raises
    ValueError naming it."""
    d = _json_object(json.loads(text), "circuit")
    m, cbits = _field(d, "m"), _field(d, "cbits")
    layers = [_value(layer, f"layers[{li}]", kind=list) for li, layer in enumerate(_field(d, "layers", list))]
    for li, layer in enumerate(layers):
        layers[li] = [_op_from_dict(_value(op, f"layers[{li}][{k}]", kind=dict)) for k, op in enumerate(layer)]
    return AdaptiveCircuit(m, cbits, layers)
