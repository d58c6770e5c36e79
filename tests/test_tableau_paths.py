"""Bit-plane tableau kernels against the row-list code they replaced.

The oracle below is the earlier implementation: a tableau held as two lists
of ``PauliOperator`` rows, one conjugation rule applied row by row
(``helpers_tableau.conjugate_row``), measurement by row products against the lowest
anticommuting generator, and qubit factor-out by row operations.  Every
tableau the plane kernels produce must serialize byte-identically to the
oracle's, phases of non-hermitian rows included.  The one-pass
``factor_out_qubits`` is also checked against the one-qubit plane
factor-out it replaced, applied highest qubit first.  Hypothesis properties
check random adaptive circuits against dense state vectors and random
qubit subsets against that chain.  ``states_equal`` and ``validate_tableau``
compare whole generator sets in one plane pass; the per-generator
``is_stabilized_by`` loop and the view-based validation they replaced are
kept below as oracles, and ``is_stabilized_by`` itself is checked against
the ``sign_form`` it folded in and the row product.  Runs of Z measurements
on packed rows (``_measure_z_run``) are checked against the per-measurement
plane path in ``helpers_tableau``, concrete and symbolic.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptstab import tableau as tb
from adaptstab.circuit import Measure, ghz_adaptive, simulate
from adaptstab.errors import ContradictionError
from adaptstab.pauli import PauliOperator, _bits, format_pauli, from_bits, gf2_rank, parse_pauli, single_site
from adaptstab.prep import builtin_code, prepare_state
from adaptstab.tableau import (
    GATE_ARITY,
    StabilizerTableau,
    _GATES,
    _add_exponent,
    _anticommuting_masks,
    _match_products,
    _measure_z_run,
    _raise_anticommuting,
    apply_gate,
    factor_out_qubits,
    from_stabilizers,
    ghz_state,
    random_stabilizer_state,
    is_stabilized_by,
    states_equal,
    to_json,
    validate_tableau,
    zero_state,
)
from helpers_dense import dense_pauli, gate_unitary
from helpers_checks import group_elements
from helpers_tableau import (
    _anticommuting,
    canonical_form,
    conjugate_row,
    generator_product,
    plane_measure_form,
    plane_measure_pauli,
    plane_multiply_rows,
    plane_row,
    reference_apply_gate,
    restricted_group_elements,
    row_conjugate_pauli,
    sign_form,
)

# -- oracle: the replaced row-list path ---------------------------------------------

class RowTableau:
    def __init__(self, n, generators, destabilizers):
        self.n = n
        self.generators = [PauliOperator.from_exponent(n, g.x, g.z, g.e) for g in generators]
        self.destabilizers = [PauliOperator.from_exponent(n, d.x, d.z, d.e) for d in destabilizers]

    @classmethod
    def of(cls, t: StabilizerTableau) -> "RowTableau":
        return cls(t.n, t.generators, t.destabilizers)

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "generators": [format_pauli(g) for g in self.generators],
                "destabilizers": [format_pauli(d) for d in self.destabilizers],
            }
        )


def row_apply_gate(t, name, qubits, pauli=None):
    for row in t.generators + t.destabilizers:
        conjugate_row(row, name, qubits, pauli)


def row_group_product(t, p):
    prod = PauliOperator(t.n, 0, 0)
    for d, g in zip(t.destabilizers, t.generators):
        if not d.commutes(p):
            prod = prod * g
    return prod


def row_measure_pauli(t, p, forced=None, rng=None):
    anti = [i for i, g in enumerate(t.generators) if not g.commutes(p)]
    if anti:
        pivot = anti[0]
        g_pivot = t.generators[pivot]
        for i in anti[1:]:
            t.generators[i] = t.generators[i] * g_pivot
        for i, d in enumerate(t.destabilizers):
            if not d.commutes(p):
                t.destabilizers[i] = d * g_pivot
        outcome = int(forced) if forced is not None else (1 if int(rng.integers(0, 2)) == 0 else -1)
        t.destabilizers[pivot] = g_pivot
        signed = from_bits(t.n, p.x, p.z, outcome)
        if p.display_sign == -1:
            signed = signed.negate()
        t.generators[pivot] = signed
        return outcome, False
    prod = row_group_product(t, p)
    assert (prod.x, prod.z) == (p.x, p.z)
    outcome = 1 if prod.e == p.e else -1
    if forced is not None and int(forced) != outcome:
        raise ContradictionError("deterministic")
    return outcome, True


def row_factor_out_qubit(t, q):
    n = t.n
    zq = single_site(n, q, "Z")
    signed_zq = row_group_product(t, zq)
    assert (signed_zq.x, signed_zq.z) == (zq.x, zq.z)
    if n == 1:
        return RowTableau(0, [], [])
    selected = [(d.x >> q) & 1 for d in t.destabilizers]
    pivot = selected.index(1)
    d_pivot = t.destabilizers[pivot]
    low = (1 << q) - 1

    def drop_q(p):
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
    return RowTableau(n - 1, gens, destabs)


def plane_factor_out_qubit(t, q):
    """The one-qubit plane factor-out ``factor_out_qubits`` replaced."""
    n = t.n
    selected = t.xs[q] >> n
    signed_zq = generator_product(t, selected)
    if (signed_zq.x, signed_zq.z) != (0, 1 << q):
        raise ValueError(f"qubit {q} is not in a definite Z eigenstate")
    if n == 1:
        return StabilizerTableau._from_planes(0, [], [], 0, 0)
    pivot = (selected & -selected).bit_length() - 1
    out = t.copy()
    _add_exponent(out, t.zs[q] & ((1 << n) - 1) & ~(1 << pivot), signed_zq.e)
    plane_multiply_rows(out, (selected ^ (1 << pivot)) << n, *plane_row(t, n + pivot))
    del out.xs[q], out.zs[q]
    lo, high = (1 << pivot) - 1, -1 << (n + pivot - 1)
    mid = ~lo & ~high
    planes = [c & lo | c >> 1 & mid | c >> 2 & high for c in (*out.xs, *out.zs, out.e0, out.e1)]
    return StabilizerTableau._from_planes(n - 1, planes[: n - 1], planes[n - 1 : -2], *planes[-2:])


def chain_factor_out(t, qs):
    for q in sorted(qs, reverse=True):
        t = plane_factor_out_qubit(t, q)
    return t


def row_simulate(c, *, seed=None, forced=None):
    t = RowTableau(c.m, [single_site(c.m, q, "Z") for q in range(c.m)], [single_site(c.m, q, "X") for q in range(c.m)])
    rng = np.random.default_rng(seed)
    record = [None] * c.cbits
    measured = []
    for layer in c.layers:
        for op in layer:
            if isinstance(op, Measure):
                p = single_site(c.m, op.qubit, "Z")
                force_sign = None if forced is None else (1 if forced[op.cbit] == 0 else -1)
                outcome, _ = row_measure_pauli(t, p, forced=force_sign, rng=rng)
                record[op.cbit] = 0 if outcome == 1 else 1
                measured.append(op.qubit)
            elif op.cond is None or sum(record[b] for b in op.cond.bits) % 2 == op.cond.xor:
                row_apply_gate(t, op.op, op.qubits, op.pauli)
    for q in sorted(measured, reverse=True):
        t = row_factor_out_qubit(t, q)
    return t, record


def row_canonical_form(t):
    out = RowTableau(t.n, t.generators, t.destabilizers)
    n = out.n

    def bit(row, col):
        return (row.x >> col) & 1 if col < n else (row.z >> (col - n)) & 1

    pivot_row = 0
    for col in range(2 * n):
        hit = next((r for r in range(pivot_row, n) if bit(out.generators[r], col)), None)
        if hit is None:
            continue
        if hit != pivot_row:
            out.generators[hit], out.generators[pivot_row] = out.generators[pivot_row], out.generators[hit]
            out.destabilizers[hit], out.destabilizers[pivot_row] = (
                out.destabilizers[pivot_row],
                out.destabilizers[hit],
            )
        for r in range(n):
            if r != pivot_row and bit(out.generators[r], col):
                out.generators[r] = out.generators[r] * out.generators[pivot_row]
                out.destabilizers[pivot_row] = out.destabilizers[pivot_row] * out.destabilizers[r]
        pivot_row += 1
        if pivot_row == n:
            break
    return out


def per_generator_states_equal(t1, t2):
    """The replaced comparison: one ``is_stabilized_by`` per generator view."""
    if t1.n != t2.n:
        raise ValueError("dimension mismatch")
    return all(is_stabilized_by(t2, g) == 1 for g in t1.generators)


def view_masks(t):
    """The replaced masks: one ``_anticommuting`` call per generator view."""
    return [_anticommuting(t.xs, t.zs, g) for g in t.generators]


def view_validate_tableau(t):
    """The replaced validation: hermiticity from the generator views, then
    the view masks."""
    n = t.n
    full = (1 << n) - 1
    gens = t.generators
    for g in gens:
        if not g.hermitian:
            raise ValueError(f"bad generator {format_pauli(g)}")
    masks = view_masks(t)
    wrong = [(mask >> n) ^ (1 << j) for j, mask in enumerate(masks)]
    if not any(mask & full for mask in masks) and not any(wrong):
        return
    if gf2_rank([c & full for c in (*t.xs, *t.zs)]) != n:
        raise ValueError("generators are dependent")
    _raise_anticommuting(gens, masks, "generators")
    i = min((w & -w).bit_length() - 1 for w in wrong if w)
    j = next(j for j, w in enumerate(wrong) if w >> i & 1)
    raise ValueError(f"destabilizer {i} pairs incorrectly with generator {j}")


def outcome(f, *args):
    """("value", result) or ("raises", exception type) of ``f(*args)``."""
    try:
        return "value", f(*args)
    except ValueError:
        return "raises", ValueError


# -- random inputs ---------------------------------------------------------------------

_ONE_Q = ("H", "S", "SDG", "X", "Y", "Z")


def random_gate(n, rng):
    """One of the 10 gates on random distinct qubits (CNOT may fan out)."""
    names = _ONE_Q + (("CNOT", "CZ", "SWAP", "CP") if n >= 2 else ())
    name = names[int(rng.integers(0, len(names)))]
    if name in _ONE_Q:
        return name, (int(rng.integers(0, n)),), None
    k = int(rng.integers(2, n + 1)) if name == "CNOT" else 2
    qubits = tuple(int(q) for q in rng.permutation(n)[:k])
    pauli = "XYZ"[int(rng.integers(0, 3))] if name == "CP" else None
    return name, qubits, pauli


def random_rows(n, count, rng):
    """Arbitrary rows with arbitrary i-exponents, hermitian or not."""
    return [
        PauliOperator.from_exponent(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)), int(rng.integers(0, 4)))
        for _ in range(count)
    ]


def random_hermitian(n, rng):
    x, z = int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n))
    return from_bits(n, x, z, 1 if rng.random() < 0.5 else -1)


def dumps(t: StabilizerTableau) -> str:
    return json.dumps(to_json(t))


# -- gate kernel -------------------------------------------------------------------------


def test_gate_kernel_matches_row_path_on_arbitrary_rows():
    rng = np.random.default_rng(11)
    for _ in range(150):
        n = int(rng.integers(1, 9))
        t = StabilizerTableau(n, random_rows(n, n, rng), random_rows(n, n, rng))
        oracle = RowTableau.of(t)
        assert oracle.to_json() == dumps(t)
        for _ in range(25):
            name, qubits, pauli = random_gate(n, rng)
            apply_gate(t, name, qubits, pauli)
            row_apply_gate(oracle, name, qubits, pauli)
        assert dumps(t) == oracle.to_json()


def test_gate_table_has_one_kernel_per_gate():
    assert _GATES.keys() == GATE_ARITY.keys()


@st.composite
def gate_calls(draw):
    """A tableau of arbitrary rows and a few gate calls, valid or not: any
    known or unknown (hashable) name, 0-4 qubits that may repeat or fall
    out of range, and any CP letter."""
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = StabilizerTableau(n, random_rows(n, n, rng), random_rows(n, n, rng))
    names = st.sampled_from([*GATE_ARITY, "T", "cnot", "", None, 2])
    valid = st.permutations(range(n)).flatmap(lambda p: st.integers(1, n).map(lambda k: tuple(p[:k])))
    loose = st.lists(st.integers(-2, n + 1), max_size=4).map(tuple)
    letters = st.sampled_from([None, "X", "Y", "Z", "I", "x", "XY", 1])
    calls = st.tuples(names, st.one_of(valid, loose), letters)
    return t, draw(st.lists(calls, min_size=1, max_size=8))


@settings(max_examples=400, deadline=None)
@given(gate_calls())
def test_gate_table_matches_if_chain(case):
    t, calls = case
    ref = t.copy()
    for name, qubits, pauli in calls:
        try:
            reference_apply_gate(ref, name, qubits, pauli)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                apply_gate(t, name, qubits, pauli)
            assert str(got.value) == str(exc)
        else:
            apply_gate(t, name, qubits, pauli)
        assert (t.xs, t.zs, t.e0, t.e1) == (ref.xs, ref.zs, ref.e0, ref.e1)
        assert t._rows is None


def test_gate_kernel_covers_every_gate_and_fanout():
    seen = set()
    rng = np.random.default_rng(12)
    for _ in range(400):
        name, qubits, pauli = random_gate(6, rng)
        seen.add((name, pauli, len(qubits) > 2))
    assert {n for n, _, _ in seen} == set(_ONE_Q) | {"CNOT", "CZ", "SWAP", "CP"}
    assert {("CP", p, False) for p in "XYZ"} <= seen and ("CNOT", None, True) in seen


def test_conjugate_pauli_matches_row_path():
    # The gate kernel on a one-row plane table, as the removed
    # ``conjugate_pauli`` ran it, against the row rule.
    rng = np.random.default_rng(13)
    for _ in range(300):
        n = int(rng.integers(1, 7))
        (p,) = random_rows(n, 1, rng)
        name, qubits, pauli = random_gate(n, rng)
        one = StabilizerTableau._from_planes(
            n, [p.x >> q & 1 for q in range(n)], [p.z >> q & 1 for q in range(n)], p.e & 1, p.e >> 1
        )
        apply_gate(one, name, qubits, pauli)
        assert one.generators[0] == row_conjugate_pauli(p, name, qubits, pauli)


# -- measurement and factor-out --------------------------------------------------------


def test_measure_pauli_matches_row_path():
    rng = np.random.default_rng(14)
    for trial in range(120):
        n = int(rng.integers(1, 8))
        t = random_stabilizer_state(n, trial)
        oracle = RowTableau.of(t)
        for _ in range(8):
            p = random_hermitian(n, rng)
            if rng.random() < 0.5:
                p = single_site(n, int(rng.integers(0, n)), "XYZ"[int(rng.integers(0, 3))])
            forced = (1, -1, None)[int(rng.integers(0, 3))]
            seed = int(rng.integers(0, 2**31))
            try:
                got = plane_measure_pauli(t, p, forced=forced, rng=np.random.default_rng(seed))[:2]
            except ContradictionError:
                with pytest.raises(ContradictionError):
                    row_measure_pauli(oracle, p, forced=forced, rng=np.random.default_rng(seed))
                continue
            assert got == row_measure_pauli(oracle, p, forced=forced, rng=np.random.default_rng(seed))
            assert dumps(t) == oracle.to_json()


def test_factor_out_qubit_matches_row_path():
    rng = np.random.default_rng(15)
    for trial in range(80):
        n = int(rng.integers(1, 8))
        t = random_stabilizer_state(n, 100 + trial)
        q = int(rng.integers(0, n))
        plane_measure_pauli(t, single_site(n, q, "Z"), rng=rng)
        # a random gate elsewhere keeps q in its Z eigenstate
        if n >= 2:
            others = [r for r in range(n) if r != q]
            apply_gate(t, "H", (others[int(rng.integers(0, len(others)))],))
        got = factor_out_qubits(t, [q])
        assert dumps(got) == row_factor_out_qubit(RowTableau.of(t), q).to_json()
        if got.n:
            validate_tableau(got)


def test_factor_out_rejects_undetermined_qubit():
    t = ghz_state(3)
    with pytest.raises(ValueError, match="not in a definite Z eigenstate"):
        factor_out_qubits(t, [1])


@st.composite
def measured_states(draw):
    """A random state with a random qubit subset measured in Z (some of them
    then scrambled by a gate that keeps them definite), plus the subset."""
    n = draw(st.integers(1, 9))
    kind = draw(st.sampled_from(("empty", "single", "random", "all")))
    if kind == "empty":
        qs = []
    elif kind == "single":
        qs = [draw(st.integers(0, n - 1))]
    elif kind == "all":
        qs = list(range(n))
    else:
        qs = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    t = random_stabilizer_state(n, draw(st.integers(0, 2**31 - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    for q in draw(st.permutations(qs)):
        plane_measure_pauli(t, single_site(n, q, "Z"), rng=rng)
    for q in qs:  # S, Z, X and CZ keep measured qubits in Z eigenstates
        name = ("S", "Z", "X", None)[int(rng.integers(0, 4))]
        if name:
            apply_gate(t, name, (q,))
    if len(qs) >= 2:
        apply_gate(t, "CZ", (qs[0], qs[-1]))
    return t, draw(st.permutations(qs))


@settings(max_examples=150, deadline=None)
@given(measured_states())
def test_factor_out_qubits_matches_descending_chain_property(case):
    t, qs = case
    before = dumps(t)
    got = factor_out_qubits(t, qs)
    assert dumps(t) == before  # the input is left alone
    assert dumps(got) == dumps(chain_factor_out(t, qs))
    if got.n:
        validate_tableau(got)


def test_factor_out_qubits_error_parity():
    # Qubit 0 is in |0>, qubits 1 and 2 form a Bell pair: the chain raises
    # at the highest undetermined qubit, and so must the one-pass version.
    t = from_stabilizers([parse_pauli("+ZII"), parse_pauli("+IXX"), parse_pauli("+IZZ")])
    for qs in ([1], [0, 1], [2, 0], [0, 1, 2]):
        with pytest.raises(ValueError) as chain_error:
            chain_factor_out(t, qs)
        with pytest.raises(ValueError) as batch_error:
            factor_out_qubits(t, qs)
        assert str(batch_error.value) == str(chain_error.value)
    assert str(batch_error.value) == "qubit 2 is not in a definite Z eigenstate"
    t = ghz_state(3)
    plane_measure_pauli(t, single_site(3, 1, "Z"), forced=-1)
    with pytest.raises(ValueError, match=r"^qubit 3 out of range for n=3$"):
        factor_out_qubits(t, [0, 3])
    with pytest.raises(ValueError, match=r"^qubit -1 out of range for n=3$"):
        factor_out_qubits(t, [-1])
    with pytest.raises(ValueError, match=r"^qubit 1 repeated$"):
        factor_out_qubits(t, [1, 2, 1])


# -- simulate ------------------------------------------------------------------------------


def _same_simulation(circ, **kw):
    try:
        tab, record = simulate(circ, **kw)
    except ContradictionError:
        with pytest.raises(ContradictionError):
            row_simulate(circ, **kw)
        return False
    oracle, oracle_record = row_simulate(circ, **kw)
    assert record == oracle_record
    assert dumps(tab) == oracle.to_json()
    return True


@pytest.mark.parametrize("n,a,k", [(4, 2, 2), (8, 4, 2), (9, 3, 3), (16, 8, 2), (24, 8, 3)])
def test_simulate_ghz_adaptive_matches_row_path(n, a, k):
    circ = ghz_adaptive(n, a, k)
    for seed in range(3):
        assert _same_simulation(circ, seed=seed)
    rng = np.random.default_rng(n)
    for _ in range(4):
        assert _same_simulation(circ, forced=[int(b) for b in rng.integers(0, 2, circ.cbits)])


@pytest.mark.parametrize("side", [2, 3, 4])
def test_simulate_toric_preparation_matches_row_path(side):
    circ, target = prepare_state(builtin_code(f"toric({side})"))
    for seed in range(2):
        assert _same_simulation(circ, seed=seed)
    rng = np.random.default_rng(side)
    for _ in range(3):  # random patterns may be unrealizable: both paths must then refuse
        _same_simulation(circ, forced=[int(b) for b in rng.integers(0, 2, circ.cbits)])
    # X checks on |+...+> read +1, so the all-zero pattern is realizable
    assert _same_simulation(circ, forced=[0] * circ.cbits)


# -- group queries -----------------------------------------------------------------------


def test_canonical_form_matches_row_path():
    for seed in range(40):
        t = random_stabilizer_state(1 + seed % 7, seed)
        assert dumps(canonical_form(t)) == row_canonical_form(RowTableau.of(t)).to_json()


def test_restricted_group_elements_match_row_path():
    # The null-space oracle against the whole group, filtered by support.
    rng = np.random.default_rng(16)
    for seed in range(40):
        n = 1 + seed % 7
        t = random_stabilizer_state(n, seed)
        subset = [q for q in range(n) if rng.random() < 0.6]
        outside = sum(1 << q for q in range(n) if q not in subset)
        inside = [PauliOperator(n, 0, 0)] + [g for g in group_elements(t) if not (g.x | g.z) & outside]
        want = sorted(inside, key=lambda p: (p.weight(), p.x, p.z))
        assert restricted_group_elements(t, subset) == want
        assert restricted_group_elements(RowTableau.of(t), subset) == want


def test_stabilized_list_matches_a_sign_form_per_pauli():
    # One plane pass over a list of Paulis against the per-Pauli sign form:
    # the masks agree on each hermitian Pauli, and the list raises exactly
    # when its first Pauli that is not a +1 member is non-hermitian.
    rng = np.random.default_rng(41)
    outcomes = set()
    for trial in range(120):
        n = int(rng.integers(1, 10))
        t = random_stabilizer_state(n, 5000 + trial)
        oracle = RowTableau.of(t)
        ops = []
        for _ in range(int(rng.integers(1, 7))):
            kind = rng.random()
            if kind < 0.5:
                p = PauliOperator(n, 0, 0)
                for i in _bits(int(rng.integers(0, 1 << n))):
                    p = p * oracle.generators[i]
                ops.append(p if rng.random() < 0.7 else p.negate())
            elif kind < 0.85:
                ops.append(random_hermitian(n, rng))
            else:
                ops.append(random_rows(n, 1, rng)[0])
        forms = [sign_form(t, (), p) if p.hermitian else "raise" for p in ops]
        first = next((f for f in forms if f != 0), None)
        try:
            unmatched, wrong = tb._stabilized(t, ops)
        except ValueError as exc:
            assert str(exc) == "is_stabilized_by expects a hermitian Pauli" and first == "raise"
            outcomes.add("raise")
            continue
        assert first != "raise"
        for i, form in enumerate(forms):
            if form != "raise":
                assert (unmatched >> i & 1, wrong >> i & 1) == (form is None, form != 0)
        outcomes.add("wrong" if wrong else "all +1")
    assert outcomes == {"raise", "wrong", "all +1"}


@pytest.mark.parametrize("seed", range(6))
def test_is_stabilized_by_matches_sign_form(seed):
    rng = np.random.default_rng(30 + seed)
    kinds = set()
    for trial in range(60):
        n = int(rng.integers(1, 13))
        t = random_stabilizer_state(n, 1000 * seed + trial)
        oracle = RowTableau.of(t)
        members = [PauliOperator(n, 0, 0), PauliOperator(n, 0, 0).negate()]
        for _ in range(3):
            mask = int(rng.integers(0, 1 << n))
            prod = PauliOperator(n, 0, 0)
            for i in range(n):
                if mask >> i & 1:
                    prod = prod * oracle.generators[i]
            members += [prod, prod.negate()]
        cases = [("member", p) for p in members] + [("other", random_hermitian(n, rng)) for _ in range(4)]
        for kind, p in cases:
            form = sign_form(t, (), p)
            want = None if form is None else 1 - 2 * form
            assert is_stabilized_by(t, p) == want
            if want is not None:
                prod = row_group_product(oracle, p)
                assert (prod.x, prod.z) == (p.x, p.z) and want == (1 if prod.e == p.e else -1)
            kinds.add((kind, want, p.is_identity_bits()))
    assert {("member", 1, False), ("member", -1, False), ("other", None, False)} <= kinds
    assert {("member", 1, True), ("member", -1, True)} <= kinds
    # Arbitrary rows: generators need not commute, so the order of the
    # product sets its sign.  Every hermitian p of n <= 4 is tried, and the
    # kernel must keep the ascending order g_i g_j ... (i < j) of the oracles.
    for trial in range(20):
        n = int(rng.integers(1, 5))
        t = StabilizerTableau(n, random_rows(n, n, rng), random_rows(n, n, rng))
        oracle = RowTableau.of(t)
        for x in range(1 << n):
            for z in range(1 << n):
                for sign in (1, -1):
                    p = from_bits(n, x, z, sign)
                    form = sign_form(t, (), p)
                    want = None if form is None else 1 - 2 * form
                    assert is_stabilized_by(t, p) == want
                    if want is None:
                        continue
                    prod = row_group_product(oracle, p)
                    assert (prod.x, prod.z) == (p.x, p.z) and want == (1 if prod.e == p.e else -1)
                    descending = PauliOperator(n, 0, 0)
                    for d, g in reversed(list(zip(oracle.destabilizers, oracle.generators))):
                        if not d.commutes(p):
                            descending = descending * g
                    kinds.add(("arbitrary", want, descending.e != prod.e))
    assert {("arbitrary", 1, True), ("arbitrary", -1, True)} <= kinds


# -- whole generator sets -------------------------------------------------------------------


def column_planes(paulis, n):
    """Column planes of a Pauli list: bit i of ``xs[q]`` is Pauli i's X bit on q."""
    xs = [sum((p.x >> q & 1) << i for i, p in enumerate(paulis)) for q in range(n)]
    zs = [sum((p.z >> q & 1) << i for i, p in enumerate(paulis)) for q in range(n)]
    e0 = sum((p.e & 1) << i for i, p in enumerate(paulis))
    e1 = sum((p.e >> 1) << i for i, p in enumerate(paulis))
    return xs, zs, e0, e1


def test_match_products_matches_generator_product_on_arbitrary_rows():
    rng = np.random.default_rng(21)
    flags = set()
    for _ in range(300):
        n = int(rng.integers(1, 10))
        t = StabilizerTableau(n, random_rows(n, n, rng), random_rows(n, n, rng))
        paulis = random_rows(n, int(rng.integers(1, 12)), rng) + list(t.generators)[: int(rng.integers(0, n + 1))]
        pxs, pzs, e0, e1 = column_planes(paulis, n)
        masks = _anticommuting_masks(t.xs, t.zs, pxs, pzs, len(paulis))
        assert masks == [_anticommuting(t.xs, t.zs, p) for p in paulis]
        picks, unmatched, flipped = _match_products(t, pxs, pzs, e0, e1, len(paulis))
        for i, p in enumerate(paulis):
            sel = masks[i] >> n
            assert sum((picks[j] >> i & 1) << j for j in range(n)) == sel
            prod = generator_product(t, sel)
            assert unmatched >> i & 1 == ((prod.x, prod.z) != (p.x, p.z))
            assert flipped >> i & 1 == (prod.e != p.e)
            flags.add((unmatched >> i & 1, flipped >> i & 1))
    assert flags == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_validation_masks_match_view_masks():
    rng = np.random.default_rng(22)
    for _ in range(200):
        n = int(rng.integers(1, 10))
        t = StabilizerTableau(n, random_rows(n, n, rng), random_rows(n, n, rng))
        full = (1 << n) - 1
        assert _anticommuting_masks(t.xs, t.zs, [c & full for c in t.xs], [c & full for c in t.zs], n) == view_masks(t)


def test_validate_tableau_matches_view_path():
    rng = np.random.default_rng(23)
    messages = set()
    for seed in range(300):
        n = 1 + seed % 9
        t = random_stabilizer_state(n, seed)
        kind = seed % 3
        if kind == 1:  # one row replaced by an arbitrary one
            rows = [*t.generators, *t.destabilizers]
            rows[int(rng.integers(0, 2 * n))] = random_rows(n, 1, rng)[0]
            t = StabilizerTableau(n, rows[:n], rows[n:])
        elif kind == 2:
            t = StabilizerTableau(n, random_rows(n, n, rng), random_rows(n, n, rng))
        try:
            view_validate_tableau(t)
            want = None
        except ValueError as exc:
            want = str(exc)
        try:
            validate_tableau(t)
            got = None
        except ValueError as exc:
            got = str(exc)
        assert got == want
        messages.add(None if want is None else want.split()[0])
    assert messages == {None, "bad", "generators", "destabilizer"}


def rebased(t, rng):
    """The same state from another generator basis: products of generator
    pairs, shuffled, with fresh destabilizers from ``from_stabilizers``."""
    gens = list(t.generators)
    for _ in range(2 * t.n):
        i, j = (int(v) for v in rng.integers(0, t.n, 2))
        if i != j:
            gens[i] = gens[i] * gens[j]
    return from_stabilizers([gens[int(k)] for k in rng.permutation(t.n)])


def pair(n, seed, kind):
    rng = np.random.default_rng(seed)
    t1 = random_stabilizer_state(n, seed)
    if kind == "same":
        t2 = t1.copy()
    elif kind == "flipped":
        t2 = apply_gate(t1.copy(), "XYZ"[int(rng.integers(0, 3))], (int(rng.integers(0, n)),))
    elif kind == "rebased":
        t2 = rebased(t1, rng)
    else:
        t2 = random_stabilizer_state(n, seed + 10_000)
    return t1, t2


PAIR_KINDS = ("same", "flipped", "rebased", "unrelated")


def test_states_equal_matches_per_generator_loop():
    seen = set()
    for seed in range(400):
        n, kind = 1 + seed % 9, PAIR_KINDS[seed % 4]
        t1, t2 = pair(n, seed, kind)
        for a, b in ((t1, t2), (t2, t1)):
            want = per_generator_states_equal(a, b)
            assert states_equal(a, b) == want
            seen.add((kind, want))
        if kind in ("same", "rebased"):
            assert want
    assert seen == {("same", True), ("rebased", True), ("flipped", True), ("flipped", False), ("unrelated", True), ("unrelated", False)}


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 9), st.integers(0, 2**31 - 1), st.sampled_from(PAIR_KINDS))
def test_states_equal_matches_per_generator_loop_property(n, seed, kind):
    t1, t2 = pair(n, seed, kind)
    assert states_equal(t1, t2) == per_generator_states_equal(t1, t2)
    assert states_equal(t2, t1) == per_generator_states_equal(t2, t1)


def test_states_equal_on_non_hermitian_rows_matches_per_generator_loop():
    rng = np.random.default_rng(24)
    results = set()
    for seed in range(300):
        n = 1 + seed % 9
        t2 = random_stabilizer_state(n, seed)
        if seed % 2:
            t1 = StabilizerTableau(n, random_rows(n, n, rng), random_rows(n, n, rng))
        else:  # t2 with one generator's exponent moved by one
            rows = [*t2.generators, *t2.destabilizers]
            k = int(rng.integers(0, n))
            rows[k] = PauliOperator.from_exponent(n, rows[k].x, rows[k].z, rows[k].e + 1)
            t1 = StabilizerTableau(n, rows[:n], rows[n:])
        want = outcome(per_generator_states_equal, t1, t2)
        assert outcome(states_equal, t1, t2) == want
        results.add(want)
        if seed % 2 == 0:  # the generators before k are stabilized, so the loop reaches k
            assert want == ("raises", ValueError)
    assert {("value", False), ("raises", ValueError)} <= results
    t = StabilizerTableau(1, [PauliOperator(1, 0, 1, 1j)], [PauliOperator(1, 1, 0)])
    with pytest.raises(ValueError, match=r"^generator \+iZ is not hermitian$"):
        states_equal(t, zero_state(1))


# -- construction ----------------------------------------------------------------------------


def test_from_stabilizers_names_first_anticommuting_pair():
    gens = [PauliOperator(3, 0, 0b011), PauliOperator(3, 0b001, 0), PauliOperator(3, 0b100, 0)]
    # ZZI anticommutes with XII; XII and IIX commute; pair (0, 1) is first
    with pytest.raises(ValueError, match=r"^generators \+ZZI and \+XII anticommute$"):
        from_stabilizers(gens)
    gens = [PauliOperator(3, 0b100, 0), PauliOperator(3, 0, 0b011), PauliOperator(3, 0b010, 0)]
    # IIX commutes with both; ZZI and IXI anticommute: pair (1, 2)
    with pytest.raises(ValueError, match=r"^generators \+ZZI and \+IXI anticommute$"):
        from_stabilizers(gens)


def test_validate_tableau_messages():
    t = StabilizerTableau(2, [PauliOperator(2, 0, 1), PauliOperator(2, 1, 0)], [PauliOperator(2, 1, 0), PauliOperator(2, 0, 1)])
    with pytest.raises(ValueError, match=r"^generators \+ZI and \+XI anticommute$"):
        validate_tableau(t)
    t = StabilizerTableau(2, [PauliOperator(2, 0, 1), PauliOperator(2, 0, 1)], [PauliOperator(2, 1, 0), PauliOperator(2, 2, 0)])
    with pytest.raises(ValueError, match="^generators are dependent$"):
        validate_tableau(t)
    t = StabilizerTableau(2, [PauliOperator(2, 0, 1), PauliOperator(2, 0, 2)], [PauliOperator(2, 2, 0), PauliOperator(2, 1, 0)])
    with pytest.raises(ValueError, match="^destabilizer 0 pairs incorrectly with generator 0$"):
        validate_tableau(t)
    t = StabilizerTableau(1, [PauliOperator(1, 0, 1, 1j)], [PauliOperator(1, 1, 0)])
    with pytest.raises(ValueError, match=r"^bad generator \+iZ$"):
        validate_tableau(t)
    with pytest.raises(ValueError, match="need exactly n generators"):
        StabilizerTableau(2, [PauliOperator(2, 0, 1)], [PauliOperator(2, 1, 0)])


def test_row_views_are_cached_until_mutation():
    t = ghz_state(4)
    gens = t.generators
    assert isinstance(gens, tuple) and t.generators is gens
    apply_gate(t, "H", (0,))
    assert t.generators is not gens
    assert format_pauli(t.generators[0]) == "+ZXXX"


def test_ghz_state_matches_parsed_generators():
    t = ghz_state(5)
    assert [format_pauli(g) for g in t.generators] == ["+XXXXX", "+ZZIII", "+IZZII", "+IIZZI", "+IIIZZ"]
    validate_tableau(t)


# -- measurement runs against the per-measurement plane path -------------------------------


@st.composite
def measurement_runs(draw):
    """A state where some qubits are untouched (deterministic outcomes) and
    others entangled by random gates, measured in Z on a random qubit order,
    in one or two runs; a seed, and a forced 0/1 pattern or None."""
    n = draw(st.integers(1, 7))
    t = zero_state(n)
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    touched = draw(st.integers(1, n))
    for _ in range(draw(st.integers(0, 3 * n))):
        name, qubits, pauli = random_gate(touched, rng)
        apply_gate(t, name, qubits, pauli)
    qubits = draw(st.permutations(range(n)))[: draw(st.integers(1, n))]
    split = draw(st.integers(0, len(qubits)))
    forced = draw(st.none() | st.lists(st.integers(0, 1), min_size=len(qubits), max_size=len(qubits)))
    return t, [qubits[:split], qubits[split:]], draw(st.integers(0, 2**31 - 1)), forced


def outcome_or_error(f, *args):
    """``f(*args)``, or (exception type, message) when it raises."""
    try:
        return f(*args)
    except (ValueError, ContradictionError) as exc:
        return type(exc), str(exc)


def _plane_measurements(t, runs, forced, rng):
    """Outcome bits of the runs, one plane measurement at a time."""
    bits, k = [], 0
    for run in runs:
        for q in run:
            sign = None if forced is None else 1 - 2 * forced[k]
            outcome, _, _ = plane_measure_pauli(t, single_site(t.n, q, "Z"), forced=sign, rng=rng)
            bits.append((1 - outcome) // 2)
            k += 1
    return bits


def _kernel_measurements(t, runs, forced, rng):
    bits, k = [], 0
    for run in runs:
        picks = None if forced is None else forced[k : k + len(run)]
        bits += _measure_z_run(t, run, None, picks, rng) if run else []
        k += len(run)
    return bits


@settings(max_examples=200, deadline=None)
@given(measurement_runs())
def test_measurement_runs_match_plane_path_property(case):
    t, runs, seed, forced = case
    kernel, plane = t.copy(), t.copy()
    got = outcome_or_error(_kernel_measurements, kernel, runs, forced, np.random.default_rng(seed))
    want = outcome_or_error(_plane_measurements, plane, runs, forced, np.random.default_rng(seed))
    assert got == want
    if not isinstance(got[0], type):
        assert dumps(kernel) == dumps(plane)
        validate_tableau(kernel)


@settings(max_examples=150, deadline=None)
@given(measurement_runs())
def test_symbolic_measurement_runs_match_plane_path_property(case):
    t, runs, _, _ = case
    kernel, plane = t.copy(), t.copy()
    kernel_forms, plane_forms = [], []
    got = [f for run in runs if run for f in _measure_z_run(kernel, run, kernel_forms)]
    want = [plane_measure_form(plane, plane_forms, single_site(t.n, q, "Z")) for run in runs for q in run]
    assert (got, kernel_forms) == (want, plane_forms)
    assert dumps(kernel) == dumps(plane)


def test_measurement_runs_cover_both_outcome_kinds():
    # A Bell pair and an untouched qubit: the first pair qubit is random, and
    # it leaves the second deterministic, read through the kept X columns.
    t = zero_state(3)
    apply_gate(t, "H", (0,))
    apply_gate(t, "CNOT", (0, 1))
    for forced in ([0, 0, 0], [1, 1, 0], None):
        for seed in range(3):
            kernel, plane = t.copy(), t.copy()
            got = _measure_z_run(kernel, [0, 1, 2], None, forced, np.random.default_rng(seed))
            assert got == _plane_measurements(plane, [[0, 1, 2]], forced, np.random.default_rng(seed))
            assert got[0] == got[1] and got[2] == 0
            assert dumps(kernel) == dumps(plane)
    with pytest.raises(ContradictionError, match=r"^measurement of \+IZI is deterministic \(-1\); cannot force \+1$"):
        _measure_z_run(t.copy(), [0, 1], None, [1, 0], np.random.default_rng(0))


# -- property: adaptive circuits against dense state vectors ------------------------------


@st.composite
def adaptive_programs(draw):
    n = draw(st.integers(1, 8))
    ops = []
    cbits = 0
    for _ in range(draw(st.integers(1, 30))):
        kind = draw(st.sampled_from(("gate", "gate", "measure", "cond")))
        if kind == "measure":
            ops.append(("M", draw(st.integers(0, n - 1)), draw(st.sampled_from((0, 1, None)))))
            cbits += 1
        elif kind == "cond" and cbits:
            bits = tuple(draw(st.lists(st.integers(0, cbits - 1), min_size=1, max_size=3, unique=True)))
            ops.append(("C", draw(st.sampled_from("XYZ")), draw(st.integers(0, n - 1)), bits))
        else:
            seed = draw(st.integers(0, 2**31 - 1))
            ops.append(("G",) + random_gate(n, np.random.default_rng(seed)))
    return n, ops, draw(st.integers(0, 2**31 - 1))


@settings(max_examples=60, deadline=None)
@given(adaptive_programs())
def test_adaptive_circuits_match_dense_vectors(program):
    n, ops, seed = program
    t = StabilizerTableau(n, [single_site(n, q, "Z") for q in range(n)], [single_site(n, q, "X") for q in range(n)])
    psi = np.zeros(1 << n, dtype=complex)
    psi[0] = 1.0
    rng = np.random.default_rng(seed)
    record = []
    for op in ops:
        if op[0] == "G":
            _, name, qubits, pauli = op
            apply_gate(t, name, qubits, pauli)
            psi = gate_unitary(name, qubits, n, pauli) @ psi
        elif op[0] == "C":
            _, letter, q, bits = op
            if sum(record[b] for b in bits) % 2:
                apply_gate(t, letter, (q,))
                psi = gate_unitary(letter, (q,), n) @ psi
        else:
            _, q, forced_bit = op
            zq = single_site(n, q, "Z")
            proj_plus = (psi + dense_pauli(zq) @ psi) / 2
            p_plus = float(np.vdot(proj_plus, proj_plus).real)
            forced = None if forced_bit is None else 1 - 2 * forced_bit
            deterministic = not t.xs[q] & ((1 << n) - 1)  # no generator has X on q
            try:
                (bit,) = _measure_z_run(t, [q], None, None if forced_bit is None else [forced_bit], rng)
            except ContradictionError:
                assert min(p_plus, 1 - p_plus) < 1e-9
                assert (p_plus > 0.5) == (forced == -1)
                record.append(0 if forced == -1 else 1)  # the possible outcome happened
                continue
            outcome = 1 - 2 * bit
            assert deterministic == (min(p_plus, 1 - p_plus) < 1e-9)
            if not deterministic:
                assert abs(p_plus - 0.5) < 1e-9
            keep = proj_plus if outcome == 1 else psi - proj_plus
            psi = keep / np.linalg.norm(keep)
            record.append(0 if outcome == 1 else 1)
    validate_tableau(t)
    for g in t.generators:
        np.testing.assert_allclose(np.vdot(psi, dense_pauli(g) @ psi), 1.0, atol=1e-9)
