"""Array kernels of the metrics layer against the per-object code they
replaced.

The oracles below are the earlier implementations: group enumeration as a
list of ``PauliOperator`` products, the matroid greedy that reduces one
operator at a time, the rank sweep over that list, the three-array group
table (x, z and phase planes) with its lexsort greedy, the packed-table
greedy that sorts the whole table by weight, the rank sweep that reruns a
column elimination over all 2n columns per weight class, the recursive
Bron-Kerbosch clique search, and the correlation
estimators run one subset pair at a time (moved-axis RDMs and ``np.kron``,
the three-operand Pauli ``einsum``, the alternating-sign ascent one restart
at a time, and the strict-``<`` pair scan).  Weight picks, signs, oracle
values, Pauli tables, pauli-enum reports and correlation ranges must match
them exactly; alternating-sign values agree to 1e-12.  The batch loop that
runs every pair's tensor, with no memo over byte-identical tensors, must
give byte-identical reports for both methods.
"""

from __future__ import annotations

import json
import tracemalloc
from itertools import combinations, product
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adaptstab import metrics as mt
from adaptstab.densesim import StateVector, dicke, from_tableau, ghz, hypergraph, pauli_matrix, plus_state, w_state
from adaptstab.errors import ResourceGuardError
from adaptstab.pauli import PauliOperator, gf2_rank, parse_pauli
from adaptstab.prep import builtin_code, prepare_state
from adaptstab.tableau import StabilizerTableau, ghz_state, random_stabilizer_state, zero_state
from helpers_checks import group_elements

# -- oracles: the replaced per-object code --------------------------------------


def list_group_elements(t):
    n = t.n
    elems = [None] * (1 << n)
    elems[0] = PauliOperator(n, 0, 0)
    for mask in range(1, 1 << n):
        low = mask & -mask
        elems[mask] = elems[mask ^ low] * t.generators[low.bit_length() - 1]
    return elems[1:]


def _independent_subset(elems, n):
    basis, picked = [], []
    for p in elems:
        r = p.symplectic_row()
        for b in basis:
            r = min(r, r ^ b)
        if r:
            basis.append(r)
            basis.sort(reverse=True)
            picked.append(p)
            if len(picked) == n:
                break
    return picked


def list_min_weight_generators(t):
    elems = sorted(list_group_elements(t), key=lambda p: (p.weight(), p.x, p.z))
    picked = _independent_subset(elems, t.n)
    return picked, tuple(sorted((p.weight() for p in picked), reverse=True))


def list_weight_vector_oracle(t, k):
    n = t.n
    by_weight = {}
    for p in list_group_elements(t):
        by_weight.setdefault(p.weight(), []).append(p.symplectic_row())
    basis, rank = [], 0
    for wt in sorted(by_weight):
        for r in by_weight[wt]:
            for b in basis:
                r = min(r, r ^ b)
            if r:
                basis.append(r)
                basis.sort(reverse=True)
                rank += 1
        if rank >= n - k + 1:
            return wt
    raise AssertionError("group rank below n")


def array_group_table(t):
    n = t.n
    x = np.zeros(1 << n, np.uint64)
    z = np.zeros(1 << n, np.uint64)
    e = np.zeros(1 << n, np.uint8)
    for i, g in enumerate(t.generators):
        lo, hi = slice(0, 1 << i), slice(1 << i, 2 << i)
        gx, gz = np.uint64(g.x), np.uint64(g.z)
        e[hi] = (e[lo] + g.e + 2 * np.bitwise_count(x[lo] & gz)) % 4
        x[hi] = x[lo] ^ gx
        z[hi] = z[lo] ^ gz
    return x, z, e


def array_min_weight_generators(t):
    """Lexsort of the whole table by (weight, x, z), then one full-table
    reduction per pick."""
    n = t.n
    x, z, e = array_group_table(t)
    order = np.lexsort((z, x, np.bitwise_count(x | z)))[1:]
    rest = (x | z << np.uint64(n))[order]
    picked = []
    while len(picked) < n:
        nonzero = rest != 0
        assert nonzero.any(), "group rank below n"
        i = int(np.argmax(nonzero))
        row = rest[i]
        j = order[i]
        picked.append(PauliOperator.from_exponent(n, int(x[j]), int(z[j]), int(e[j])))
        order, rest = order[i + 1 :], rest[i + 1 :]
        np.minimum(rest, rest ^ row, out=rest)
    return picked, tuple(sorted((p.weight() for p in picked), reverse=True))


def argsort_min_weight_generators(t):
    """Weight classes read off one stable argsort of the whole table."""
    n = t.n
    if gf2_rank([g.symplectic_row() for g in t.generators]) < n:
        raise ValueError("generators are dependent")
    x, z, _ = array_group_table(t)
    table = x | z << np.uint64(n)
    weights = np.bitwise_count(x | z)
    by_weight = np.argsort(weights, kind="stable")
    ends = np.cumsum(np.bincount(weights, minlength=n + 1))
    span = np.zeros(1 << n, bool)
    span[0] = True
    spanned = np.zeros(1, np.int64)
    picks = []
    low = np.uint64((1 << n) - 1)
    for wt in range(1, n + 1):
        if len(picks) == n:
            break
        masks = by_weight[ends[wt - 1] : ends[wt]]
        masks = masks[~span[masks]]
        rows = table[masks]
        key = (rows & low) << np.uint64(n) | rows >> np.uint64(n)
        while masks.size:
            m = int(masks[np.argmin(key)])
            picks.append(m)
            if len(picks) == n:
                break
            shifted = spanned ^ m
            span[shifted] = True
            spanned = np.concatenate([spanned, shifted])
            live = ~span[masks]
            masks, key = masks[live], key[live]
    picked = []
    for m in picks:
        p = PauliOperator(n, 0, 0)
        for i in range(n):
            if m >> i & 1:
                p = t.generators[i] * p
        picked.append(p)
    return picked, tuple(sorted((p.weight() for p in picked), reverse=True))


def column_oracle_entries(t, k):
    """Entries k..n of the minimal vector; each weight class is eliminated
    together with the basis so far, column by column over all 2n columns."""
    n = t.n
    x, z, _ = array_group_table(t)
    symplectic = x | z << np.uint64(n)
    weights = np.bitwise_count(x | z)
    basis, levels = [], []
    for wt in range(1, n + 1):
        rows, basis = np.concatenate([np.array(basis, np.uint64), symplectic[weights == wt]]), []
        for c in range(2 * n):
            hit = (rows >> np.uint64(c)) & np.uint64(1) == 1
            if hit.any():
                basis.append(rows[int(np.argmax(hit))])
                rows = np.where(hit, rows ^ basis[-1], rows)
        levels += [wt] * (min(len(basis), n - k + 1) - len(levels))
        if len(levels) == n - k + 1:
            return levels[::-1]
    raise AssertionError("group rank below n")


def recursive_max_clique(adj, n):
    best = 0

    def expand(r_size, p, x):
        nonlocal best
        if p == 0 and x == 0:
            best = max(best, r_size)
            return
        pool = p | x
        pivot = (pool & -pool).bit_length() - 1
        for u in range(n):
            if (pool >> u) & 1 and bin(p & adj[u]).count("1") > bin(p & adj[pivot]).count("1"):
                pivot = u
        cand = p & ~adj[pivot]
        while cand:
            v = (cand & -cand).bit_length() - 1
            bit = 1 << v
            expand(r_size + 1, p & adj[v], x & adj[v])
            p &= ~bit
            x |= bit
            cand &= ~bit

    expand(0, (1 << n) - 1, 0)
    return best


def _sign_operator_2d(m):
    ev, u = np.linalg.eigh((m + m.conj().T) / 2)
    return u @ np.diag(np.where(ev >= 0, 1.0, -1.0)) @ u.conj().T


def old_rdm(s, qubits):
    tensor = s.amps.reshape([2] * s.n)
    tensor = np.moveaxis(tensor, qubits, range(len(qubits)))
    m = tensor.reshape(1 << len(qubits), -1)
    return m @ m.conj().T


def old_delta4(s, a1, a2):
    d1, d2 = 1 << len(a1), 1 << len(a2)
    joint = old_rdm(s, list(a1) + list(a2))
    delta = joint - np.kron(old_rdm(s, a1), old_rdm(s, a2))
    return delta.reshape(d1, d2, d1, d2)


def old_pauli_stack(w):
    names = ["".join(c) for c in product("IXYZ", repeat=w)]
    return names, np.stack([pauli_matrix(p) for p in names])


def old_pauli_table(delta4, w):
    _, stack = old_pauli_stack(w)
    return np.einsum("aik,bjl,klij->ab", stack, stack, delta4).real


def old_pair_max_pauli(delta4, w):
    names, _ = old_pauli_stack(w)
    table = old_pauli_table(delta4, w)
    flat = int(np.abs(table).argmax())
    ai, bi = divmod(flat, len(names))
    return float(abs(table[ai, bi])), names[ai], names[bi]


def per_restart_ascent(delta4, w, restarts, seed):
    """Each start's ascent value, and whether that start is noise-led: its first
    update vanished, so its first sign step read rounding noise, and it did not
    meet the 1e-12 gain test within 200 rounds.  A sign operator of +-1 meets a
    zero update, as the connected tensor's marginals are zero."""
    rng = np.random.default_rng(seed)
    d2 = delta4.shape[1]
    _, _, best_name2 = old_pair_max_pauli(delta4, w)
    inits = [pauli_matrix(best_name2)]
    for _ in range(restarts):
        h = rng.normal(size=(d2, d2)) + 1j * rng.normal(size=(d2, d2))
        inits.append(_sign_operator_2d(h + h.conj().T))
    values, noise_led = [], []
    for o2 in inits:
        val, converged = 0.0, False
        zero_update = np.abs(np.einsum("jl,ilkj->ik", o2, delta4)).max() < 1e-12
        for _ in range(200):
            o1 = _sign_operator_2d(np.einsum("jl,ilkj->ik", o2, delta4))
            o2 = _sign_operator_2d(np.einsum("ik,kjil->jl", o1, delta4))
            new = abs(float(np.einsum("ik,jl,klij->", o1, o2, delta4).real))
            if new - val < 1e-12:
                val, converged = max(val, new), True
                break
            val = new
        values.append(val)
        noise_led.append(zero_update and not converged)
    return values, noise_led


def per_restart_alternating(delta4, w, restarts, seed):
    return max(per_restart_ascent(delta4, w, restarts, seed)[0])


def old_pairs(region, w):
    for a1 in combinations(region, w):
        rest = [q for q in region if q not in a1]
        for a2 in combinations(rest, w):
            if a2 >= a1:
                yield a1, a2


def old_correlation_strength_w(s, region, w, method="pauli-enum", restarts=8, seed=0):
    region = tuple(sorted(set(region)))
    best = None
    for a1, a2 in old_pairs(region, w):
        delta4 = old_delta4(s, a1, a2)
        if method == "pauli-enum":
            val, n1, n2 = old_pair_max_pauli(delta4, w)
        else:
            val = per_restart_alternating(delta4, w, restarts, seed)
            n1 = n2 = "sign-operator"
        if best is None or val < best.value:
            pair = {"a1": list(a1), "a2": list(a2), "o1": n1, "o2": n2}
            best = mt.CorrelationReport(region, w, method, val, pair)
    return best


def batched_correlation_strength_w(s, region, w, method="pauli-enum", restarts=8, seed=0):
    """The batch-per-first-subset loop without the per-tensor memo: every
    pair's tensor gets its own Pauli table row and ascent rows."""
    region = tuple(sorted(set(region)))
    names = mt._pauli_stack(w)[0]
    marginals = {a: mt._rdm(s, a) for a in combinations(region, w)}
    best = None
    for a1 in combinations(region, w):
        rest = [q for q in region if q not in a1]
        pairs = [(a1, a2) for a2 in combinations(rest, w) if a2 >= a1]
        if not pairs:
            continue
        delta = mt._connected(s, pairs, marginals)
        table = np.abs(mt._pauli_tables(delta, w)).reshape(len(pairs), -1)
        flat = table.argmax(axis=1)
        ai, bi = np.divmod(flat, len(names))
        if method == "pauli-enum":
            values = table[np.arange(len(pairs)), flat]
        else:
            values = mt._alternating_values(delta, bi, w, restarts, seed)
        p = int(np.argmin(values))
        if best is None or values[p] < best.value:
            if method == "pauli-enum":
                o1, o2 = names[ai[p]], names[bi[p]]
            else:
                o1 = o2 = "sign-operator"
            pair = {"a1": list(a1), "a2": list(pairs[p][1]), "o1": o1, "o2": o2}
            best = mt.CorrelationReport(region, w, method, float(values[p]), pair)
    return best


def old_pauli_correlation_range(s, tol=1e-9):
    n = s.n
    adj = [0] * n
    for i, j in combinations(range(n), 2):
        if old_pair_max_pauli(old_delta4(s, (i,), (j,)), 1)[0] > tol:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return max(1, recursive_max_clique(adj, n))


def old_correlation_range_w(s, w, delta):
    for size in range(s.n, 2 * w - 1, -1):
        for region in combinations(range(s.n), size):
            if old_correlation_strength_w(s, region, w).value > delta:
                return size
    return 1


# -- states -------------------------------------------------------------------------


def _random_cases(sizes, per_size):
    return [(n, 7919 * n + s) for n in sizes for s in range(per_size)]


def _texts(ops):
    return [str(p) for p in ops]


# -- group table -------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 5, 9, 14])
def test_group_elements_match_list_products_ghz(n):
    t = ghz_state(n)
    assert _texts(group_elements(t)) == _texts(list_group_elements(t))


@pytest.mark.parametrize("n,seed", _random_cases((1, 3, 6, 10, 14), 2))
def test_group_elements_match_list_products_random(n, seed):
    t = random_stabilizer_state(n, seed)
    new, old = group_elements(t), list_group_elements(t)
    assert _texts(new) == _texts(old)
    assert [(p.x, p.z, p.e) for p in new] == [(p.x, p.z, p.e) for p in old]


def test_group_elements_keep_product_order_for_unchecked_generators():
    # The table multiplies in the old order (higher generator on the left),
    # so even generators that anticommute give the same signed products.
    rng = np.random.default_rng(9)
    n = 6
    gens = [PauliOperator.from_exponent(n, int(a), int(b), int(c)) for a, b, c in rng.integers(0, 1 << n, (n, 3))]
    t = StabilizerTableau(n, gens, [PauliOperator(n, 0, 0)] * n)
    assert [(p.x, p.z, p.e) for p in group_elements(t)] == [(p.x, p.z, p.e) for p in list_group_elements(t)]


def test_group_enumeration_guard_raises_before_allocating(monkeypatch):
    t = zero_state(21)

    def refuse(*args, **kwargs):
        raise AssertionError("allocated before the guard")

    monkeypatch.setattr(mt.np, "zeros", refuse)
    with pytest.raises(ResourceGuardError, match="n <= 20"):
        group_elements(t)
    with pytest.raises(ResourceGuardError, match="n <= 20"):
        mt.min_weight_generators(t)


# -- greedy and oracle ---------------------------------------------------------------


def _assert_same_greedy(t):
    picked, vector = mt.min_weight_generators(t)
    old_picked, old_vector = list_min_weight_generators(t)
    assert _texts(picked) == _texts(old_picked)
    assert vector.entries == old_vector


@pytest.mark.parametrize("n", range(2, 19))
def test_min_weight_generators_match_list_greedy_ghz(n):
    _assert_same_greedy(ghz_state(n))


@pytest.mark.parametrize("n,seed", _random_cases(range(1, 17), 2))
def test_min_weight_generators_match_list_greedy_random(n, seed):
    _assert_same_greedy(random_stabilizer_state(n, seed))


def _assert_same_signed_picks(t, oracle=array_min_weight_generators):
    picked, vector = mt.min_weight_generators(t)
    old_picked, old_vector = oracle(t)
    assert _texts(picked) == _texts(old_picked)
    assert [(p.x, p.z, p.e) for p in picked] == [(p.x, p.z, p.e) for p in old_picked]
    assert vector.entries == old_vector


@pytest.mark.parametrize("n", range(17, 21))
def test_min_weight_generators_match_array_greedy_ghz(n):
    _assert_same_signed_picks(ghz_state(n))


@pytest.mark.parametrize("n,seed", _random_cases(range(17, 21), 2))
def test_min_weight_generators_match_array_greedy_random(n, seed):
    _assert_same_signed_picks(random_stabilizer_state(n, seed))


def test_min_weight_generators_match_array_greedy_toric3():
    t = prepare_state(builtin_code("toric(3)"))[1]
    _assert_same_signed_picks(t)
    _assert_same_signed_picks(t, argsort_min_weight_generators)


@pytest.mark.parametrize("n", range(2, 21))
def test_min_weight_generators_match_argsort_greedy_ghz(n):
    _assert_same_signed_picks(ghz_state(n), argsort_min_weight_generators)


@pytest.mark.parametrize("n,seed", _random_cases(range(1, 21), 2))
def test_min_weight_generators_match_argsort_greedy_random(n, seed):
    _assert_same_signed_picks(random_stabilizer_state(n, seed), argsort_min_weight_generators)


def _unchecked_tableau(n, seed):
    """Independent random generators, some pair anticommuting, unchecked."""
    rng = np.random.default_rng(seed)
    while True:
        rows = rng.integers(0, 1 << n, (n, 3))
        gens = [PauliOperator.from_exponent(n, int(a), int(b), int(c)) for a, b, c in rows]
        commuting = all(g.commutes(h) for g, h in combinations(gens, 2))
        if gf2_rank([g.symplectic_row() for g in gens]) == n and not commuting:
            return StabilizerTableau(n, gens, [PauliOperator(n, 0, 0)] * n)


@pytest.mark.parametrize("n,seed", _random_cases((2, 5, 8, 11), 3))
def test_pick_phases_follow_product_order_for_unchecked_generators(n, seed):
    # Picks are products with the higher generator on the left, as in the
    # table, so anticommuting generators give the same signed picks.
    t = _unchecked_tableau(n, seed)
    _assert_same_signed_picks(t)
    _assert_same_signed_picks(t, argsort_min_weight_generators)
    _assert_same_greedy(t)


def test_min_weight_generators_reject_dependent_generators():
    gens = [parse_pauli(p) for p in ("+ZZI", "+IZZ", "+ZIZ")]
    t = StabilizerTableau(3, gens, [PauliOperator(3, 0, 0)] * 3)
    with pytest.raises(ValueError, match="generators are dependent"):
        mt.min_weight_generators(t)


def test_oracle_rejects_dependent_generators():
    zi, xi, ix = (parse_pauli(p) for p in ("+ZI", "+XI", "+IX"))
    t = StabilizerTableau(2, [zi, zi], [xi, ix])
    for k in (1, 2):
        with pytest.raises(ValueError, match="generators are dependent"):
            mt.weight_vector_oracle(t, k)
    # The size guard and the k check come first.
    with pytest.raises(ValueError, match="need 1 <= k <= n"):
        mt.weight_vector_oracle(t, 3)
    big = StabilizerTableau(15, [PauliOperator(15, 0, 1)] * 15, [PauliOperator(15, 0, 0)] * 15)
    with pytest.raises(ResourceGuardError, match="n <= 14"):
        mt.weight_vector_oracle(big, 1)


def test_group_table_is_one_word_per_element():
    t = random_stabilizer_state(9, 4)
    table = mt._group_table(t)
    assert table.dtype == np.uint64 and table.shape == (1 << 9,)
    x, z, _ = array_group_table(t)
    assert np.array_equal(table, z | x << np.uint64(32))
    assert np.array_equal(mt._weights(table), np.bitwise_count(x | z))
    # The same values stored in the other byte order, as on a big-endian host.
    swapped = table.astype(table.dtype.newbyteorder())
    assert np.array_equal(mt._weights(swapped), np.bitwise_count(x | z))


@pytest.mark.parametrize("n,mib", [(18, 6), (20, 20)])
def test_greedy_peak_memory(n, mib):
    # The table (8 bytes per element), one weight byte per element, the span's
    # masks and one weight class: no other array of 2^n 64-bit words.
    t = ghz_state(n)
    mt.min_weight_generators(t)
    tracemalloc.start()
    try:
        mt.min_weight_generators(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= mib << 20


@pytest.mark.parametrize("n,seed", _random_cases((1, 2, 4, 7, 9, 12), 2))
def test_oracle_matches_list_rank_sweep(n, seed):
    t = random_stabilizer_state(n, seed)
    assert [mt.weight_vector_oracle(t, k) for k in range(1, n + 1)] == [
        list_weight_vector_oracle(t, k) for k in range(1, n + 1)
    ]


def _assert_same_oracle_entries(t):
    for k in range(1, t.n + 1):
        assert mt._oracle_entries(t, k) == column_oracle_entries(t, k)


@pytest.mark.parametrize("n,seed", _random_cases(range(1, 15), 2))
def test_oracle_matches_column_elimination_random(n, seed):
    _assert_same_oracle_entries(random_stabilizer_state(n, seed))


@pytest.mark.parametrize("n", range(2, 15))
def test_oracle_matches_column_elimination_ghz(n):
    _assert_same_oracle_entries(ghz_state(n))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 12), seed=st.integers(0, 2**31 - 1))
def test_oracle_matches_column_elimination_property(n, seed):
    _assert_same_oracle_entries(random_stabilizer_state(n, seed))


def test_oracle_never_calls_the_greedy(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle must not share the greedy's path")

    monkeypatch.setattr(mt, "min_weight_generators", refuse)
    t = random_stabilizer_state(6, 3)
    assert [mt.weight_vector_oracle(t, k) for k in range(1, 7)] == [
        list_weight_vector_oracle(t, k) for k in range(1, 7)
    ]


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 10), seed=st.integers(0, 2**31 - 1))
def test_greedy_equals_list_oracle_property(n, seed):
    t = random_stabilizer_state(n, seed)
    _, vector = mt.min_weight_generators(t)
    assert vector.entries == tuple(list_weight_vector_oracle(t, k) for k in range(1, n + 1))


# -- correlations ------------------------------------------------------------------

def _random_state(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return StateVector(n, amps / np.linalg.norm(amps))


# Symmetric families, stabilizer states (values 0 or 1) and one random dense
# state, whose pairs all differ.
_DENSE = {
    "w8": lambda: w_state(8),
    "ghz10": lambda: ghz(10),
    "dicke8_2": lambda: dicke(8, 2),
    "hypergraph6": lambda: hypergraph(6),
    **{f"random{n}": (lambda n=n: from_tableau(random_stabilizer_state(n, 31 * n))) for n in (6, 7, 8)},
    "dense6": lambda: _random_state(6, 3),
}


def _regions(n):
    return [tuple(range(n)), tuple(q for q in range(n) if q % 3 != 1)]


def _report_json(reports):
    return json.dumps([r.to_json() for r in reports])


def test_pauli_stack_is_cached_and_read_only():
    names, stack = mt._pauli_stack(2)
    assert mt._pauli_stack(2)[1] is stack
    assert len(names) == 16 and not stack.flags.writeable
    with pytest.raises(ValueError):
        stack[0, 0, 0] = 0
    col, ph = mt._pauli_entries(2)
    assert mt._pauli_entries(2)[0] is col
    assert not col.flags.writeable and not ph.flags.writeable
    rows = np.arange(4)
    for a, m in enumerate(stack):
        expected = np.zeros((4, 4), complex)
        expected[rows, col[a]] = ph[a]
        assert np.array_equal(m, expected)


@pytest.mark.parametrize("name", sorted(_DENSE))
def test_connected_stack_matches_kron_per_pair(name):
    s = _DENSE[name]()
    for w in (1, 2):
        region = tuple(range(s.n))
        marginals = {a: mt._rdm(s, a) for a in combinations(region, w)}
        pairs = list(old_pairs(region, w))[::7]
        delta = mt._connected(s, pairs, marginals)
        assert delta.shape == (len(pairs),) + (1 << w,) * 4
        for got, (a1, a2) in zip(delta, pairs):
            assert np.array_equal(got, old_delta4(s, a1, a2))


@pytest.mark.parametrize("w", [1, 2, 3])
def test_pauli_tables_match_einsum_bit_for_bit(w):
    # Magnitudes spread over 16 decades, where a change of summation order shows.
    rng = np.random.default_rng(w)
    d = 1 << w
    shape = (6, d, d, d, d)
    delta = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * 10.0 ** rng.uniform(-8, 8, size=shape)
    tables = mt._pauli_tables(delta, w)
    for got, one in zip(tables, delta):
        assert np.array_equal(got, old_pauli_table(one, w))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 7), w=st.integers(1, 3), seed=st.integers(0, 2**31 - 1))
def test_pauli_tables_equal_einsum_on_random_states_property(n, w, seed):
    w = min(w, n // 2)
    s = _random_state(n, seed)
    order = [int(q) for q in np.random.default_rng(seed).permutation(n)]
    a1, a2 = tuple(sorted(order[:w])), tuple(sorted(order[w : 2 * w]))
    delta = mt._connected(s, [(a1, a2)], {a: mt._rdm(s, a) for a in (a1, a2)})
    assert np.array_equal(mt._pauli_tables(delta, w)[0], old_pauli_table(old_delta4(s, a1, a2), w))


@pytest.mark.parametrize("name", sorted(_DENSE))
def test_pauli_enum_report_matches_uncached_stack(name):
    s = _DENSE[name]()
    ws = (1, 2, 3) if s.n == 6 else (1, 2)
    for region in _regions(s.n):
        for w in ws:
            if len(region) < 2 * w:
                continue
            new = mt.correlation_strength_w(s, region, w)
            old = old_correlation_strength_w(s, region, w)
            assert _report_json([new]) == _report_json([old]), (region, w)
    assert mt.pauli_correlation_range(s) == old_pauli_correlation_range(s)


@pytest.mark.parametrize("name", ["w8", "hypergraph6", "random6", "random7", "dense6"])
def test_correlation_range_w_matches_pair_scan(name):
    s = _DENSE[name]()
    for w, delta in ((1, 0.2), (1, 0.5), (2, 0.2)):
        if s.n <= 7 or w == 1:
            assert mt.correlation_range_w(s, w, delta) == old_correlation_range_w(s, w, delta)


@pytest.mark.parametrize(
    "make,delta",
    [(lambda: from_tableau(random_stabilizer_state(10, 310)), 0.2), (lambda: _random_state(10, 5), 0.05)],
    ids=["random10", "dense10"],
)
def test_correlation_range_w_matches_pair_scan_at_n10(make, delta):
    # Asymmetric, so every region is scanned; each pair is evaluated once.
    s = make()
    assert not mt._symmetric(s)
    assert mt.correlation_range_w(s, 1, delta) == old_correlation_range_w(s, 1, delta)


def _pair_values(s):
    return {old_pair_max_pauli(old_delta4(s, (i,), (j,)), 1)[0] for i, j in combinations(range(s.n), 2)}


def _boundary_deltas(values):
    return sorted({d for v in values for d in (np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf))})


_ASYMMETRIC_DENSE = [name for name in sorted(_DENSE) if name.startswith(("random", "dense"))]
_STABILIZER_CASES = [(n, 4099 * n + 17) for n in range(2, 9)]


@pytest.mark.parametrize(
    "make",
    [_DENSE[name] for name in _ASYMMETRIC_DENSE]
    + [lambda n=n, seed=seed: from_tableau(random_stabilizer_state(n, seed)) for n, seed in _STABILIZER_CASES],
    ids=_ASYMMETRIC_DENSE + [f"stabilizer{n}" for n, _ in _STABILIZER_CASES],
)
def test_w1_range_matches_subset_scan_at_every_pair_value(make):
    # Each distinct pair value and one ulp either side, so each pair is read
    # at the `not v > delta` boundary.  One ulp below a pair value of 0 is
    # negative, which is no threshold: it raises.
    s = make()
    assert not mt._symmetric(s)
    for delta in _boundary_deltas(_pair_values(s)):
        if delta < 0:
            with pytest.raises(ValueError, match="^correlation threshold must be >= 0, got -5e-324$"):
                mt.correlation_range_w(s, 1, delta)
        else:
            assert mt.correlation_range_w(s, 1, delta) == old_correlation_range_w(s, 1, delta), delta


@pytest.mark.parametrize(
    "make",
    [
        lambda: from_tableau(random_stabilizer_state(13, 1301)),
        lambda: _random_state(13, 7),
        lambda: from_tableau(random_stabilizer_state(14, 1401)),
        lambda: w_state(14),
        lambda: from_tableau(random_stabilizer_state(16, 3)),
    ],
    ids=["stabilizer13", "dense13", "stabilizer14", "w14", "stabilizer16"],
)
def test_w1_range_runs_above_the_subset_scan_cap(make):
    # The subset scan stops at n = 12; at w = 1 only the dense state's cap applies.
    s = make()
    values = sorted(_pair_values(s))
    for delta in (0.0, 1e-9, values[len(values) // 2], 0.5):
        assert mt.correlation_range_w(s, 1, delta) == old_pauli_correlation_range(s, delta), delta
    with pytest.raises(ResourceGuardError, match="^subset scan capped at n <= 12"):
        mt.correlation_range_w(s, 2, 0.1)


_CODE_STATES = {name: lambda name=name: from_tableau(prepare_state(builtin_code(name))[1]) for name in ("steane", "toric(2)")}


def _kept(log, delta):
    log.append([t.tobytes() for t in delta])
    return delta


@pytest.mark.parametrize("w", [2, 3])
@pytest.mark.parametrize("code", sorted(_CODE_STATES))
def test_range_runs_pauli_tables_on_distinct_tensors_only(monkeypatch, code, w):
    # The code states are asymmetric but repeat tensors: a batch's tables run
    # once per distinct tensor not seen in the batch before it.
    s = _CODE_STATES[code]()
    assert not mt._symmetric(s)
    batches, stacks = [], []
    connected, tables = mt._connected, mt._pauli_tables
    monkeypatch.setattr(mt, "_connected", lambda s, p, m: _kept(batches, connected(s, p, m)))
    monkeypatch.setattr(mt, "_pauli_tables", lambda delta, w: tables(_kept(stacks, delta), w))
    mt.correlation_range_w(s, w, 0.5)
    expected, previous = [], set()
    for keys in batches:
        if fresh := [k for k in dict.fromkeys(keys) if k not in previous]:
            expected.append(fresh)
        previous = set(keys)
    assert stacks == expected
    assert sum(map(len, stacks)) < sum(map(len, batches)) == len(list(old_pairs(range(s.n), w)))


def _cached(fn, key):
    memo = {}

    def call(*args):
        k = key(*args)
        if k not in memo:
            memo[k] = fn(*args)
        return memo[k]

    return call


@pytest.mark.parametrize("w", [2, 3])
@pytest.mark.parametrize("code", sorted(_CODE_STATES))
def test_range_matches_subset_scan_on_code_states_at_every_pair_value(monkeypatch, code, w):
    # The oracle's per-pair work is cached (tensors by pair, Pauli maxima by
    # tensor bytes): both are pure, and the uncached einsum takes minutes.
    s = _CODE_STATES[code]()
    monkeypatch.setitem(globals(), "old_delta4", _cached(old_delta4, lambda s, a1, a2: (a1, a2)))
    monkeypatch.setitem(globals(), "old_pair_max_pauli", _cached(old_pair_max_pauli, lambda delta4, w: delta4.tobytes()))
    values = {old_pair_max_pauli(old_delta4(s, a1, a2), w)[0] for a1, a2 in old_pairs(range(s.n), w)}
    for delta in _boundary_deltas(values):
        if delta >= 0:
            assert mt.correlation_range_w(s, w, delta) == old_correlation_range_w(s, w, delta), delta


def test_correlation_range_w_keeps_argument_errors():
    # correlation_strength_w's errors for a bad w, raised by the range itself.
    s = _DENSE["random8"]()
    for w in (0, -1):
        with pytest.raises(ValueError, match="^need w >= 1$"):
            mt.correlation_range_w(s, w, 0.1)
    with pytest.raises(ResourceGuardError, match="^pauli-enum supports w <= 3, got w = 4$"):
        mt.correlation_range_w(s, 4, 0.1)
    assert mt.correlation_range_w(s, 5, 0.1) == old_correlation_range_w(s, 5, 0.1) == 1


def test_batches_hold_at_most_one_first_subset(monkeypatch):
    batches = []
    connected = mt._connected
    monkeypatch.setattr(mt, "_connected", lambda s, pairs, m: batches.append(pairs) or connected(s, pairs, m))
    cases = [(tuple(region), w) for region, w in ((range(8), 1), (range(8), 2), ((0, 1, 3, 4, 6, 7), 2), (range(8), 3))]
    s = _DENSE["random8"]()
    assert not mt._symmetric(s)
    for region, w in cases:
        batches.clear()
        mt.correlation_strength_w(s, region, w, "pauli-enum" if w < 3 else "alternating-sign", restarts=1)
        assert [p for b in batches for p in b] == list(old_pairs(region, w))
        assert all(0 < len(b) <= comb(len(region) - w, w) for b in batches)
        assert all(len({a1 for a1, _ in b}) == 1 for b in batches)
    # Dicke(8, 2) is permutation-symmetric: one batch holding pair 0 only.
    for region, w in cases:
        batches.clear()
        mt.correlation_strength_w(dicke(8, 2), region, w, "pauli-enum" if w < 3 else "alternating-sign", restarts=1)
        assert batches == [[(region[:w], region[w : 2 * w])]]


def _ascent_pairs(n, w):
    if w == 1:
        return [((0,), (1,)), ((0,), (n - 1,)), ((n - 2,), (n - 1,))]
    if w == 2:
        return [((0, 1), (2, 3)), ((0, n - 1), (1, n - 2)), ((n - 4, n - 3), (n - 2, n - 1))]
    return [((0, 1, 2), (3, 4, 5)), ((0, 2, 4), (1, 3, 5))]


def _ascent_matches_per_restart_loop(s, pairs, restarts, seed):
    w = len(pairs[0][0])
    delta = mt._connected(s, pairs, {a: mt._rdm(s, a) for pair in pairs for a in pair})
    best_b = np.abs(mt._pauli_tables(delta, w)).reshape(len(pairs), -1).argmax(axis=1) % 4**w
    new = mt._alternating_values(delta, best_b, w, restarts, seed)
    for got, (a1, a2) in zip(new, pairs):
        delta4 = old_delta4(s, a1, a2)
        values, noise_led = per_restart_ascent(delta4, w, restarts, seed)
        if not any(noise_led):
            assert abs(got - max(values)) <= 1e-12
            continue
        # The two ascents read different rounding noise on a noise-led start and
        # stop at different points of it.  Every other start takes the same
        # steps, so the value is at least their best; any value of sign
        # operators is at most the trace norm of delta.
        steady = max((v for v, led in zip(values, noise_led) if not led), default=0.0)
        d = delta4.shape[0] * delta4.shape[1]
        assert steady - 1e-12 <= got <= np.linalg.svd(delta4.reshape(d, d), compute_uv=False).sum() + 1e-12


@pytest.mark.parametrize("name", ["w8", "ghz10", "dicke8_2", "random6", "dense6"])
def test_alternating_sign_matches_per_restart_loop(name):
    s = _DENSE[name]()
    n = s.n
    for w in (1, 2, 3) if n == 6 else (1, 2):
        for restarts, seed in ((8, 0), (3, 11), (0, 5)):
            _ascent_matches_per_restart_loop(s, _ascent_pairs(n, w), restarts, seed)
    for w in (1, 2) if n == 6 else (1,):
        report = mt.correlation_strength_w(s, range(n), w, "alternating-sign")
        old = old_correlation_strength_w(s, range(n), w, "alternating-sign")
        assert report.pair == old.pair
        assert abs(report.value - old.value) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 7), w=st.integers(1, 3), restarts=st.integers(0, 4), seed=st.integers(0, 2**31 - 1))
@example(n=3, w=1, restarts=1, seed=363)  # a noise-led start cut off at round 200
def test_alternating_sign_matches_per_restart_loop_on_random_states_property(n, w, restarts, seed):
    w = min(w, n // 2)
    order = [int(q) for q in np.random.default_rng(seed).permutation(n)]
    # The second pair's subsets are unsorted and may be the first's, reordered.
    pairs = [(tuple(sorted(order[:w])), tuple(sorted(order[w : 2 * w]))), (tuple(order[:w]), tuple(order[-w:]))]
    _ascent_matches_per_restart_loop(_random_state(n, seed), pairs, restarts, seed)


def test_alternating_sign_draws_the_same_random_starts(monkeypatch):
    s = dicke(6, 2)
    pairs = [((0, 1), (2, 3)), ((0, 1), (4, 5))]
    delta = mt._connected(s, pairs, {a: mt._rdm(s, a) for pair in pairs for a in pair})
    calls = []
    sign = mt._sign_operator
    monkeypatch.setattr(mt, "_sign_operator", lambda m: calls.append(m) or sign(m))
    mt._alternating_values(delta, np.array([0, 5]), 2, 5, 17)
    rng = np.random.default_rng(17)
    assert len(calls[0]) == 5
    for got in calls[0]:
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert np.array_equal(got, h + h.conj().T)


def test_sign_operator_stack_matches_single_matrices():
    rng = np.random.default_rng(4)
    stack = rng.normal(size=(5, 4, 4)) + 1j * rng.normal(size=(5, 4, 4))
    together = mt._sign_operator(stack)
    for m, op in zip(stack, together):
        assert np.allclose(op, _sign_operator_2d(m), atol=1e-12)
        assert np.allclose(op, mt._sign_operator(m), atol=1e-12)


# -- one ascent per distinct connected tensor -----------------------------------------


@pytest.mark.parametrize("name", sorted(_DENSE))
def test_memo_reports_match_batched_loop(name):
    s = _DENSE[name]()
    ws = (1, 2, 3) if s.n == 6 else (1, 2)
    for region in _regions(s.n):
        for w in ws:
            if len(region) < 2 * w:
                continue
            for method in ("pauli-enum", "alternating-sign"):
                new = mt.correlation_strength_w(s, region, w, method)
                old = batched_correlation_strength_w(s, region, w, method)
                assert _report_json([new]) == _report_json([old]), (region, w, method)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(2, 7),
    w=st.integers(1, 2),
    method=st.sampled_from(["pauli-enum", "alternating-sign"]),
    restarts=st.integers(0, 3),
    seed=st.integers(0, 2**31 - 1),
)
def test_memo_reports_match_batched_loop_on_random_states_property(n, w, method, restarts, seed):
    w = min(w, n // 2)
    s = _random_state(n, seed)
    new = mt.correlation_strength_w(s, range(n), w, method, restarts, seed)
    old = batched_correlation_strength_w(s, range(n), w, method, restarts, seed)
    assert _report_json([new]) == _report_json([old])


def _count_stack_sizes(monkeypatch):
    sizes = {"_pauli_tables": [], "_alternating_values": []}
    for name, calls in sizes.items():
        fn = getattr(mt, name)
        monkeypatch.setattr(mt, name, lambda delta, *a, fn=fn, calls=calls: calls.append(len(delta)) or fn(delta, *a))
    return sizes


def test_symmetric_state_runs_one_ascent(monkeypatch):
    # Dicke(8, 2) has one connected tensor over its 210 pairs at w = 2; the
    # batched loop makes 25 calls of each kernel over all 210.
    sizes = _count_stack_sizes(monkeypatch)
    mt.correlation_strength_w(dicke(8, 2), range(8), 2, "alternating-sign")
    assert sizes == {"_pauli_tables": [1], "_alternating_values": [1]}
    for calls in sizes.values():
        calls.clear()
    batched_correlation_strength_w(dicke(8, 2), range(8), 2, "alternating-sign")
    for calls in sizes.values():
        assert (len(calls), sum(calls)) == (25, 210)


def test_asymmetric_state_merges_no_pairs(monkeypatch):
    sizes = _count_stack_sizes(monkeypatch)
    mt.correlation_strength_w(_random_state(6, 3), range(6), 2, "alternating-sign")
    assert sum(sizes["_pauli_tables"]) == sum(sizes["_alternating_values"]) == len(list(old_pairs(range(6), 2))) == 45


# -- permutation-symmetric states ---------------------------------------------------


def _weight_state(n, seed):
    """Random amplitudes that depend only on the Hamming weight of the index:
    permutation-symmetric, with no zero amplitudes."""
    rng = np.random.default_rng(seed)
    c = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    amps = c[np.bitwise_count(np.arange(1 << n))]
    return StateVector(n, amps / np.linalg.norm(amps))


def _complex_symmetric(s):
    """The check with complex ``==``, which equates -0.0 and +0.0."""
    t = s.amps.reshape([2] * s.n)
    return all(np.array_equal(t, t.swapaxes(q, q + 1)) for q in range(s.n - 1))


def _signed_zero_state():
    # W(4) with a -0.0 on |0011>; swapping qubits 1 and 2 maps it to the +0.0 on |0101>.
    amps = w_state(4).amps.copy()
    amps[0b0011] = complex(-0.0, 0.0)
    return StateVector(4, amps)


def _all_swaps_but(n, q):
    """Symmetric under every adjacent swap except (q, q + 1): a weight state
    on qubits 0..q times one on qubits q+1..n-1."""
    left, right = _weight_state(q + 1, 5), _weight_state(n - q - 1, 6)
    return StateVector(n, np.kron(left.amps, right.amps))


_SYMMETRIC = {
    "w6": lambda: w_state(6),
    "ghz6": lambda: ghz(6),
    "dicke6_3": lambda: dicke(6, 3),
    "hypergraph6": lambda: hypergraph(6),
    "weight6": lambda: _weight_state(6, 11),
    "weight2": lambda: _weight_state(2, 12),
    "bell": lambda: ghz(2),
    "plus5": lambda: plus_state(5),  # no correlations: both ranges are 1
}

_ASYMMETRIC = {
    "signed_zero": _signed_zero_state,
    "all_but_first_swap": lambda: _all_swaps_but(6, 0),
    "all_but_last_swap": lambda: _all_swaps_but(6, 4),
    "all_but_middle_swap": lambda: _all_swaps_but(6, 2),
}


def _sym_regions(n, seed):
    """The full register and random sub-regions of sizes 2, 4 and 5."""
    rng = np.random.default_rng(seed)
    sizes = [size for size in (2, 4, 5) if size < n]
    return [tuple(range(n))] + [tuple(sorted(int(q) for q in rng.choice(n, size, replace=False))) for size in sizes]


def test_symmetry_check_is_exact():
    for name, make in _SYMMETRIC.items():
        assert mt._symmetric(make()), name
    for name, make in _ASYMMETRIC.items():
        assert not mt._symmetric(make()), name
    # Complex == misses the sign of the zero; the bitwise check does not.
    assert _complex_symmetric(_signed_zero_state())
    assert not mt._symmetric(_random_state(5, 1)) and mt._symmetric(_weight_state(1, 0))


def _assert_reports_match_oracles(s, regions, ws, methods=("pauli-enum", "alternating-sign")):
    for region in regions:
        for w in ws:
            if len(region) < 2 * w:
                continue
            for method in methods:
                new = mt.correlation_strength_w(s, region, w, method, restarts=2, seed=3)
                old = batched_correlation_strength_w(s, region, w, method, restarts=2, seed=3)
                assert _report_json([new]) == _report_json([old]), (region, w, method)
                if method == "pauli-enum":
                    assert _report_json([new]) == _report_json([old_correlation_strength_w(s, region, w)])


@pytest.mark.parametrize("name", sorted(_SYMMETRIC) + sorted(_ASYMMETRIC))
def test_symmetric_path_reports_match_full_enumeration(name):
    s = {**_SYMMETRIC, **_ASYMMETRIC}[name]()
    _assert_reports_match_oracles(s, _sym_regions(s.n, s.n), (1, 2, 3))
    assert mt.pauli_correlation_range(s) == old_pauli_correlation_range(s)
    for w, delta in ((1, 0.05), (1, 0.3), (1, 0.9), (2, 0.3)):
        assert mt.correlation_range_w(s, w, delta) == old_correlation_range_w(s, w, delta), (w, delta)


def test_symmetric_path_keeps_argument_errors():
    s = w_state(4)
    for args, error, message in (
        (((0, 9), 1), ValueError, "region qubit 9 outside 0..3"),
        (((0, 1), 0), ValueError, "need w >= 1"),
        (((0, 1, 2), 2), ValueError, "region cannot hold"),
        ((range(4), 2, "bogus"), ValueError, "unknown method"),
    ):
        with pytest.raises(error, match=message):
            mt.correlation_strength_w(s, *args)
    with pytest.raises(ResourceGuardError, match="w <= 3"):
        mt.correlation_strength_w(w_state(8), range(8), 4)


def test_symmetric_state_builds_one_tensor_and_two_marginals(monkeypatch):
    pairs, rdms = [], []
    connected, rdm = mt._connected, mt._rdm
    monkeypatch.setattr(mt, "_connected", lambda s, p, m: pairs.extend(p) or connected(s, p, m))
    monkeypatch.setattr(mt, "_rdm", lambda s, q: rdms.append(q) or rdm(s, q))
    report = mt.correlation_strength_w(w_state(14), range(14), 2)
    assert (pairs, rdms) == ([((0, 1), (2, 3))], [(0, 1), (2, 3)])
    assert report.pair["a1"] == [0, 1] and report.pair["a2"] == [2, 3]
    pairs.clear()
    rdms.clear()
    assert mt.pauli_correlation_range(w_state(14)) == 14
    assert (pairs, rdms) == ([((0,), (1,))], [(0,), (1,)])


def test_each_public_correlation_call_checks_symmetry_once(monkeypatch):
    calls = []
    symmetric = mt._symmetric
    monkeypatch.setattr(mt, "_symmetric", lambda s: calls.append(s) or symmetric(s))
    for t in (ghz_state(6), random_stabilizer_state(6, 5)):
        s = from_tableau(t)
        for name, call in (
            ("strength w=1", lambda: mt.correlation_strength_w(s, range(6), 1)),
            ("strength w=2 alt", lambda: mt.correlation_strength_w(s, range(6), 2, "alternating-sign", restarts=1)),
            ("pauli range", lambda: mt.pauli_correlation_range(s)),
            ("range w=1", lambda: mt.correlation_range_w(s, 1, 0.1)),
            ("range w=2", lambda: mt.correlation_range_w(s, 2, 0.1)),
            ("range w=3", lambda: mt.correlation_range_w(s, 3, 0.1)),
            ("global", lambda: mt.global_correlation(s)),
            ("lower bound", lambda: mt.anti_shallowness_lower(s)),
            ("lemma 2", lambda: mt.lemma2_check(t)),
        ):
            calls.clear()
            call()
            assert len(calls) == 1, (t, name)


def test_symmetric_correlation_range_w_reads_one_region(monkeypatch):
    # Every range reads pair 0 only: one tensor from two marginals.
    pairs, rdms = [], []
    connected, rdm = mt._connected, mt._rdm
    monkeypatch.setattr(mt, "_connected", lambda s, p, m: pairs.extend(p) or connected(s, p, m))
    monkeypatch.setattr(mt, "_rdm", lambda s, q: rdms.append(q) or rdm(s, q))
    for w, delta, expected, first in (
        (2, 0.5, 1, ((0, 1), (2, 3))),
        (2, 0.01, 12, ((0, 1), (2, 3))),
        (3, 0.01, 12, ((0, 1, 2), (3, 4, 5))),
        (1, 0.5, 1, ((0,), (1,))),
        (1, 0.1, 12, ((0,), (1,))),
    ):
        pairs.clear()
        rdms.clear()
        assert mt.correlation_range_w(w_state(12), w, delta) == expected
        assert (pairs, rdms) == ([first], list(first)), (w, delta)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(2, 8),
    w=st.integers(1, 3),
    method=st.sampled_from(["pauli-enum", "alternating-sign"]),
    restarts=st.integers(0, 2),
    seed=st.integers(0, 2**31 - 1),
)
def test_symmetric_path_matches_full_enumeration_on_weight_states_property(n, w, method, restarts, seed):
    w = min(w, n // 2)
    s = _weight_state(n, seed)
    rng = np.random.default_rng(seed)
    region = tuple(range(n)) if seed % 2 else tuple(sorted(int(q) for q in rng.choice(n, rng.integers(2 * w, n + 1), replace=False)))
    new = mt.correlation_strength_w(s, region, w, method, restarts, seed)
    old = batched_correlation_strength_w(s, region, w, method, restarts, seed)
    assert _report_json([new]) == _report_json([old])
    if w == 1:
        assert mt.pauli_correlation_range(s) == old_pauli_correlation_range(s)


# -- maximum clique --------------------------------------------------------------------


def _random_graph(n, density, seed):
    rng = np.random.default_rng(seed)
    adj = [0] * n
    for i, j in combinations(range(n), 2):
        if rng.random() < density:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return adj


@pytest.mark.parametrize("density", [0.2, 0.5, 0.8, 0.95])
def test_max_clique_matches_recursive_search(density):
    for n in range(1, 17):
        for seed in range(4):
            adj = _random_graph(n, density, 1000 * n + seed)
            assert mt._max_clique(adj, n) == recursive_max_clique(adj, n), (n, seed)


def test_max_clique_runs_past_the_recursion_limit():
    n = 1100
    full = (1 << n) - 1
    assert mt._max_clique([full & ~(1 << i) for i in range(n)], n) == n
