"""Array kernels of the metrics layer against the per-object code they
replaced.

The oracles below are the earlier implementations: group enumeration as a
list of ``PauliOperator`` products, the matroid greedy that reduces one
operator at a time, the rank sweep over that list, and the alternating-sign
ascent run one restart at a time.  Weight picks, signs, oracle values and
pauli-enum reports must match them exactly; alternating-sign values agree
to 1e-12.
"""

from __future__ import annotations

import json
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptstab import metrics as mt
from adaptstab.densesim import dicke, ghz, pauli_matrix, w_state
from adaptstab.errors import ResourceGuardError
from adaptstab.pauli import PauliOperator
from adaptstab.tableau import StabilizerTableau, ghz_state, random_stabilizer_state, zero_state

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


def _sign_operator_2d(m):
    ev, u = np.linalg.eigh((m + m.conj().T) / 2)
    return u @ np.diag(np.where(ev >= 0, 1.0, -1.0)) @ u.conj().T


def per_restart_alternating(delta4, w, restarts, seed):
    rng = np.random.default_rng(seed)
    d2 = delta4.shape[1]
    _, _, best_name2 = mt._pair_max_pauli(delta4, w)
    inits = [pauli_matrix(best_name2)]
    for _ in range(restarts):
        h = rng.normal(size=(d2, d2)) + 1j * rng.normal(size=(d2, d2))
        inits.append(_sign_operator_2d(h + h.conj().T))
    best = 0.0
    for o2 in inits:
        val = 0.0
        for _ in range(200):
            o1 = _sign_operator_2d(np.einsum("jl,ilkj->ik", o2, delta4))
            o2 = _sign_operator_2d(np.einsum("ik,kjil->jl", o1, delta4))
            new = abs(float(np.einsum("ik,jl,klij->", o1, o2, delta4).real))
            if new - val < 1e-12:
                val = max(val, new)
                break
            val = new
        best = max(best, val)
    return best


# -- states -------------------------------------------------------------------------


def _random_cases(sizes, per_size):
    return [(n, 7919 * n + s) for n in sizes for s in range(per_size)]


def _texts(ops):
    return [str(p) for p in ops]


# -- group table -------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 5, 9, 14])
def test_group_elements_match_list_products_ghz(n):
    t = ghz_state(n)
    assert _texts(mt.group_elements(t)) == _texts(list_group_elements(t))


@pytest.mark.parametrize("n,seed", _random_cases((1, 3, 6, 10, 14), 2))
def test_group_elements_match_list_products_random(n, seed):
    t = random_stabilizer_state(n, seed)
    new, old = mt.group_elements(t), list_group_elements(t)
    assert _texts(new) == _texts(old)
    assert [(p.x, p.z, p.e) for p in new] == [(p.x, p.z, p.e) for p in old]


def test_group_elements_keep_product_order_for_unchecked_generators():
    # The table multiplies in the old order (higher generator on the left),
    # so even generators that anticommute give the same signed products.
    rng = np.random.default_rng(9)
    n = 6
    gens = [PauliOperator.from_exponent(n, int(a), int(b), int(c)) for a, b, c in rng.integers(0, 1 << n, (n, 3))]
    t = StabilizerTableau(n, gens, [PauliOperator(n, 0, 0)] * n)
    assert [(p.x, p.z, p.e) for p in mt.group_elements(t)] == [(p.x, p.z, p.e) for p in list_group_elements(t)]


def test_group_enumeration_guard_raises_before_allocating(monkeypatch):
    t = zero_state(21)

    def refuse(*args, **kwargs):
        raise AssertionError("allocated before the guard")

    monkeypatch.setattr(mt.np, "zeros", refuse)
    with pytest.raises(ResourceGuardError, match="n <= 20"):
        mt.group_elements(t)
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


@pytest.mark.parametrize("n,seed", _random_cases((1, 2, 4, 7, 9, 12), 2))
def test_oracle_matches_list_rank_sweep(n, seed):
    t = random_stabilizer_state(n, seed)
    assert [mt.weight_vector_oracle(t, k) for k in range(1, n + 1)] == [
        list_weight_vector_oracle(t, k) for k in range(1, n + 1)
    ]


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

_DENSE = {"w8": lambda: w_state(8), "ghz10": lambda: ghz(10), "dicke8_2": lambda: dicke(8, 2)}


def test_pauli_stack_is_cached_and_read_only():
    names, stack = mt._pauli_stack(2)
    assert mt._pauli_stack(2)[1] is stack
    assert len(names) == 16 and not stack.flags.writeable
    with pytest.raises(ValueError):
        stack[0, 0, 0] = 0


@pytest.mark.parametrize("name", sorted(_DENSE))
def test_pauli_enum_report_matches_uncached_stack(monkeypatch, name):
    s = _DENSE[name]()
    reports = [mt.correlation_strength_w(s, range(s.n), w) for w in (1, 2)]
    crange = mt.pauli_correlation_range(s)

    def uncached(w):
        names = ["".join(c) for c in product("IXYZ", repeat=w)]
        return names, np.stack([pauli_matrix(p) for p in names])

    monkeypatch.setattr(mt, "_pauli_stack", uncached)
    old = [mt.correlation_strength_w(s, range(s.n), w) for w in (1, 2)]
    assert json.dumps([r.to_json() for r in reports]) == json.dumps([r.to_json() for r in old])
    assert crange == mt.pauli_correlation_range(s)


@pytest.mark.parametrize("name", sorted(_DENSE))
def test_alternating_sign_matches_per_restart_loop(monkeypatch, name):
    s = _DENSE[name]()
    n = s.n
    for a1, a2 in (((0, 1), (2, 3)), ((0, n - 1), (1, n - 2)), ((n - 4, n - 3), (n - 2, n - 1))):
        delta4 = mt._delta4(s, a1, a2)
        for restarts, seed in ((8, 0), (3, 11), (0, 5)):
            new = mt._pair_max_alternating(delta4, 2, restarts, seed)
            assert abs(new - per_restart_alternating(delta4, 2, restarts, seed)) <= 1e-12
    report = mt.correlation_strength_w(s, range(n), 1, "alternating-sign")
    monkeypatch.setattr(mt, "_pair_max_alternating", per_restart_alternating)
    old = mt.correlation_strength_w(s, range(n), 1, "alternating-sign")
    assert report.pair == old.pair
    assert abs(report.value - old.value) <= 1e-12


def test_alternating_sign_draws_the_same_random_starts(monkeypatch):
    delta4 = mt._delta4(dicke(6, 2), (0, 1), (2, 3))
    calls = []
    sign = mt._sign_operator
    monkeypatch.setattr(mt, "_sign_operator", lambda m: calls.append(m) or sign(m))
    mt._pair_max_alternating(delta4, 2, 5, 17)
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
