"""Acceptance gate: one test (and one printed PASS/FAIL line) per criterion.

Each criterion pins desk-scale-exact numbers, an independent oracle, or a
property sweep, at the stated tolerance.  Run with ``pytest -s`` to see the
per-criterion lines; a plain run reports them through the test outcomes.
"""

from __future__ import annotations

import math
import random
from itertools import combinations

import numpy as np

import adaptstab.densesim as ds
from adaptstab.bounds import (
    ResourceProfile,
    check_adaptive_weight,
    check_clifford_adaptive,
    check_correlation,
    check_nonadaptive,
)
from adaptstab.circuit import (
    AdaptiveCircuit,
    Gate,
    Geometry,
    fanout_depth,
    ghz_adaptive,
    simulate,
)
from adaptstab.errors import ContradictionError
from adaptstab.metrics import (
    anti_shallowness_continuity,
    anti_shallowness_lower,
    anti_shallowness_upper,
    lemma2_check,
    min_weight_generators,
    pauli_correlation_range,
    stabilizer_weight,
    weight_vector_oracle,
)
from adaptstab.pauli import PauliOperator, gf2_rank, parse_pauli
from adaptstab.prep import (
    MeasurementSchedule,
    builtin_code,
    build_code,
    prepare_state,
    synthesize_measurement_circuit,
    verify_preparation,
    x_type_logicals,
)
from adaptstab.tableau import (
    ghz_state,
    random_stabilizer_state,
    states_equal,
    zero_state,
)
from helpers_checks import (
    correlation_continuity_check,
    flip_generator_sign,
    gf2_solve,
    lemma1_check,
    local_indistinguishable,
    pauli_correction,
)
from helpers_tableau import plane_measure_pauli, restricted_group_elements, tensor_tableau


def _report(num: int, errs: list, detail: str) -> None:
    ok = not errs
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {detail}")
    assert ok, f"criterion {num:02d}: " + "; ".join(str(e) for e in errs[:5])


# -- 1: exact two-point correlation values ----------------------------------------


def test_criterion_01_two_point_correlation_values():
    errs = []
    for n in range(3, 11):
        g = ds.ghz(n)
        h = ds.hypergraph(n)
        hx = 2.0 ** (2 - n) * (1 - 2.0 ** (2 - n))
        for i, j in combinations(range(n), 2):
            zz = ds.correlation(g, ds.pauli_op([i], "Z"), ds.pauli_op([j], "Z"))
            if abs(zz - 1.0) > 1e-10:
                errs.append(f"ghz({n}) Z{i}Z{j}: {zz}")
            xx = abs(ds.correlation(h, ds.pauli_op([i], "X"), ds.pauli_op([j], "X")))
            if abs(xx - hx) > 1e-10:
                errs.append(f"hypergraph({n}) X{i}X{j}: {xx} != {hx}")
    for n in range(3, 11):
        for k in range(1, n):
            for w in (1, 2):
                if 2 * w > n:
                    continue
                o1 = ds.pauli_op(range(w), "Z" * w)
                o2 = ds.pauli_op(range(w, 2 * w), "Z" * w)
                dense = abs(ds.correlation(ds.dicke(n, k), o1, o2))
                formula = ds.dicke_correlation_formula(n, k, w)
                if abs(dense - formula) > 1e-10:
                    errs.append(f"dicke({n},{k}) w={w}: {dense} != {formula}")
        # W state: the counting oracle gives 4 w^2 / n^2 (a factor 4 above
        # the order-of-magnitude estimate w^2/n^2; reported, not hidden).
        for w in (1, 2):
            if 2 * w > n:
                continue
            o1 = ds.pauli_op(range(w), "Z" * w)
            o2 = ds.pauli_op(range(w, 2 * w), "Z" * w)
            dense = abs(ds.correlation(ds.w_state(n), o1, o2))
            if abs(dense - 4 * w * w / n**2) > 1e-12:
                errs.append(f"w({n}) w={w}: {dense} != {4 * w * w / n**2}")
    _report(
        1,
        errs,
        "GHZ/hypergraph/Dicke two-point values match dense simulation for"
        " n=3..10 at 1e-10; W Z-products equal 4w^2/n^2 (constant is 4x the"
        " order estimate)",
    )


# -- 2: stabilizer weight, greedy vs oracle ----------------------------------------


def test_criterion_02_stabilizer_weight_greedy_vs_oracle():
    errs = []
    for n in range(3, 9):
        wt = stabilizer_weight(ghz_state(n))
        if wt != n:
            errs.append(f"wt_s(ghz{n}) = {wt} != {n}")
    checked = 0
    for seed in range(100):
        n = 3 + seed % 4
        t = random_stabilizer_state(n, seed=seed)
        _, vector = min_weight_generators(t)
        oracle = [weight_vector_oracle(t, k) for k in range(1, n + 1)]
        if list(vector.entries) != oracle:
            errs.append(f"seed {seed}: greedy {vector.entries} != oracle {oracle}")
        checked += 1
    _report(
        2,
        errs,
        f"wt_s(GHZ_n) = n for n=3..8; greedy vector == rank-threshold oracle"
        f" on {checked} random stabilizer states (n <= 6)",
    )


# -- 3: parallel measurement depth and equivalence ---------------------------------


def _sequential(code, t0, forced):
    seq = t0.copy()
    for j, ch in enumerate(code.checks):
        plane_measure_pauli(
            seq, ch, forced=1 if forced[j] == 0 else -1, rng=np.random.default_rng(0)
        )
    return seq


def _parallel_vs_sequential(code, frag, t0, masks):
    errs = []
    init = tensor_tableau(t0, zero_state(code.t))
    for mask in masks:
        forced = [(mask >> i) & 1 for i in range(code.t)]
        try:
            seq = _sequential(code, t0, forced)
            seq_ok = True
        except ContradictionError:
            seq_ok = False
        try:
            par, _ = simulate(frag.circuit, forced=forced, initial=init)
            par_ok = True
        except ContradictionError:
            par_ok = False
        if seq_ok != par_ok:
            errs.append(f"realizability mismatch at mask {mask}")
        elif seq_ok and not states_equal(par, seq):
            errs.append(f"state mismatch at mask {mask}")
    return errs


def test_criterion_03_parallel_measurement_depth_and_equivalence():
    errs = []
    xz4 = build_code(["XXXX", "ZZZZ"])

    frag_plain = synthesize_measurement_circuit(xz4)
    if frag_plain.depth != 5:
        errs.append(f"untangled fragment depth {frag_plain.depth} != 5")

    letters = {(q, 0): "X" for q in range(4)} | {(q, 1): "Z" for q in range(4)}
    odd = {(0, 0): 1, (1, 0): 2, (2, 0): 3, (3, 0): 4,
           (0, 1): 2, (1, 1): 3, (2, 1): 4, (3, 1): 1}
    frag_tangled = synthesize_measurement_circuit(
        xz4, schedule=MeasurementSchedule(odd, letters, 4)
    )
    if frag_tangled.depth != 6:
        errs.append(f"tangled fragment depth {frag_tangled.depth} != 6")

    for name in ("repetition(3)", "repetition(5)", "steane", "toric(2)", "toric(3)"):
        code = builtin_code(name)
        frag = synthesize_measurement_circuit(code)
        budget = 2 + code.s + code.s**2
        if frag.depth > budget:
            errs.append(f"{name}: depth {frag.depth} > 2+s+s^2 = {budget}")

    # 50 random stabilizer inputs per code; outcome branches exhaustive for
    # codes with <= 2 checks (and for repetition(5)'s 16), sampled for steane.
    rng = random.Random(11)
    for code, frag in (
        (xz4, frag_plain),
        (xz4, frag_tangled),
        (builtin_code("repetition(3)"), None),
        (builtin_code("repetition(5)"), None),
        (builtin_code("steane"), None),
    ):
        if frag is None:
            frag = synthesize_measurement_circuit(code)
        exhaustive = code.t <= 4
        for s in range(50):
            t0 = random_stabilizer_state(code.n, seed=1000 + s)
            if exhaustive:
                masks = range(1 << code.t)
            else:
                masks = [rng.randrange(1 << code.t) for _ in range(4)]
            errs += [
                f"{code.name or 'xz4'}: {e}"
                for e in _parallel_vs_sequential(code, frag, t0, masks)
            ]
    _report(
        3,
        errs,
        "fragment depths 5 (untangled) and 6 (tangled) for {XXXX,ZZZZ};"
        " depth <= 2+s+s^2 for all builtin codes; compiled-parallel =="
        " sequential on 50 random inputs per code",
    )


# -- 4: code state preparation end to end ------------------------------------------


def test_criterion_04_code_state_preparation_end_to_end():
    errs = []
    lines = []
    for name in ("steane", "toric(2)"):
        code = builtin_code(name)
        circ, target = prepare_state(code)
        rep = verify_preparation(circ, target, trials=8, also_exhaustive=True)
        if rep["branches"] != 64:
            errs.append(f"{name}: {rep['branches']} branches != 64")
        if not rep["all_match"]:
            errs.append(f"{name}: branch mismatch {rep['counterexample']}")
        if not all(b["satisfied"] for b in rep["bounds"]):
            errs.append(f"{name}: resource bound violated")
        lines.append(f"{name}: depth {rep['depth']}, ancillas {rep['n_a']}")

    circ, target = prepare_state(builtin_code("repetition(3)"))
    rep = verify_preparation(circ, target, trials=8, also_exhaustive=True)
    if not rep["all_match"]:
        errs.append("repetition(3): branch mismatch")
    if not states_equal(target, ghz_state(3)):
        errs.append("repetition(3) target is not GHZ_3")
    lines.append(f"repetition(3): depth {rep['depth']}, ancillas {rep['n_a']}")

    _report(4, errs, "exhaustive branch verification passed; " + "; ".join(lines))


# -- 5: adaptive GHZ saturation -----------------------------------------------------


def test_criterion_05_ghz_adaptive_saturation():
    errs = []
    notes = []
    for n, a in ((8, 2), (8, 4), (16, 4)):
        circ = ghz_adaptive(n, a, 2)
        n_a = circ.m - n
        want = -(-n // a) - 1
        if n_a != want:
            errs.append(f"({n},{a}): ancillas {n_a} != {want}")
        rep = verify_preparation(circ, ghz_state(n), trials=4, also_exhaustive=True)
        if not rep["all_match"]:
            errs.append(f"({n},{a}): verification failed")
        fan = fanout_depth(a, 2)
        sat = (n_a + 1) * 2**fan
        if sat < n or sat / n > 2:
            errs.append(f"({n},{a}): (n_a+1)*2^L = {sat} vs n = {n}")
        notes.append(f"({n},{a}): (n_a+1)*2^L = {sat} >= {n}, ratio {sat / n:g}")
    _report(5, errs, "exhaustive verification and saturation: " + "; ".join(notes))


# -- 6: resource bound suite --------------------------------------------------------


def _bound_checks(profile, target, errs, label):
    _, vector = min_weight_generators(target)
    recs = []
    if profile.n_a == 0:
        recs.append(check_nonadaptive(profile, vector[0]))
    recs.append(check_adaptive_weight(profile, vector[0]))
    recs.append(check_clifford_adaptive(profile, vector[0]))
    if 2 <= target.n <= 10:
        cr = pauli_correlation_range(ds.from_tableau(target))
        recs.append(check_correlation(profile, 1, cr))
    for rec in recs:
        if not rec["satisfied"]:
            errs.append(f"{label}: {rec['check']} {rec['lhs']} < {rec['rhs']}")
    return len(recs)


def test_criterion_06_resource_bound_suite():
    errs = []
    pairs = 0

    for n, a, k in (
        (8, 2, 2), (8, 4, 2), (8, 8, 2), (9, 3, 3), (10, 2, 2),
        (10, 5, 2), (12, 3, 2), (12, 4, 2), (12, 6, 2), (16, 4, 2),
    ):
        circ = ghz_adaptive(n, a, k)
        profile = ResourceProfile.from_circuit(circ, n, K=k)
        _bound_checks(profile, ghz_state(n), errs, f"ghz({n},{a},{k})")
        pairs += 1

    for name in ("repetition(3)", "repetition(5)", "steane", "toric(2)"):
        circ, target = prepare_state(builtin_code(name))
        profile = ResourceProfile.from_circuit(circ, target.n)
        _bound_checks(profile, target, errs, name)
        pairs += 1

    # measurement-free chains on a line: grid-geometry g = (2(K-1)D+1)^r
    for n in range(4, 10):
        chain = AdaptiveCircuit(n, 0, [[Gate("CNOT", (q, q + 1))] for q in range(n - 1)])
        profile = ResourceProfile.from_circuit(
            chain, n, K=2, geometry=Geometry.grid(1)
        )
        _bound_checks(profile, zero_state(n), errs, f"chain({n})")
        pairs += 1

    if pairs < 20:
        errs.append(f"only {pairs} circuit/state pairs generated")

    # deliberately falsified profiles must be flagged
    vec8 = min_weight_generators(ghz_state(8))[1]
    falsified = [
        check_nonadaptive(ResourceProfile(8, 8, 2, 2), vec8[0]),
        check_adaptive_weight(ResourceProfile(16, 17, 2, 1), 16),
        check_clifford_adaptive(ResourceProfile(8, 9, 2, 0), 8),
        check_correlation(ResourceProfile(8, 9, 2, 0), 1, 8),
    ]
    for rec in falsified:
        if rec["satisfied"]:
            errs.append(f"falsified profile not flagged: {rec['check']}")

    _report(
        6,
        errs,
        f"weight/correlation bounds satisfied on {pairs} generated pairs"
        " (all-to-all and grid); 4 falsified profiles flagged",
    )


# -- 7: invariant property sweeps ---------------------------------------------------


def _random_layer(rng, n, K):
    qubits = list(range(n))
    rng.shuffle(qubits)
    layer = []
    while qubits:
        arity = rng.randint(1, min(K, len(qubits)))
        group, qubits = qubits[:arity], qubits[arity:]
        if arity == 1:
            layer.append((rng.choice(("H", "S", "X", "Z")), tuple(group)))
        elif arity == 2:
            layer.append((rng.choice(("CNOT", "CZ", "SWAP")), tuple(group)))
        else:
            layer.append(("CNOT", tuple(group)))  # one control, many targets
    return layer


def test_criterion_07_invariant_property_sweeps():
    errs = []

    rng = random.Random(5)
    for trial in range(200):
        n = rng.randint(4, 10)
        K = rng.randint(2, 4)
        x = rng.getrandbits(n)
        z = rng.getrandbits(n)
        if x == 0 and z == 0:
            x = 1
        p = PauliOperator(n, x, z)
        if not lemma1_check(p, _random_layer(rng, n, K), K):
            errs.append(f"layer conjugation grew weight beyond K (trial {trial})")

    for seed in range(100):
        n = 3 + seed % 6
        if not lemma2_check(random_stabilizer_state(n, seed=seed)):
            errs.append(f"wt_s < CR/sqrt(n) at seed {seed}")

    nrng = np.random.default_rng(17)
    for trial in range(500):
        n = int(nrng.integers(2, 7))
        base = nrng.normal(size=1 << n) + 1j * nrng.normal(size=1 << n)
        noise = nrng.normal(size=1 << n) + 1j * nrng.normal(size=1 << n)
        eta = float(nrng.uniform(0, 0.5))
        s1 = ds.from_amplitudes(base)
        s2 = ds.from_amplitudes(base + eta * noise)
        i, j = nrng.choice(n, size=2, replace=False)
        o1 = ds.pauli_op([int(i)], str(nrng.choice(list("XYZ"))))
        o2 = ds.pauli_op([int(j)], str(nrng.choice(list("XYZ"))))
        if not correlation_continuity_check(s1, s2, o1, o2):
            errs.append(f"correlation moved more than 6 sqrt(eps) (trial {trial})")

    _report(
        7,
        errs,
        "200 single-layer conjugations grow weight <= K-fold; 100 random"
        " states satisfy wt_s >= CR/sqrt(n); 500 perturbed pairs satisfy"
        " |dCor| <= 6 sqrt(eps); zero violations",
    )


# -- 8: anti-shallowness numbers ----------------------------------------------------


def test_criterion_08_anti_shallowness_values():
    errs = []
    lower_ref = math.log2(36 / 35)
    for n in range(4, 9):
        g = ds.ghz(n)
        lo = anti_shallowness_lower(g)
        hi = anti_shallowness_upper(g, [ds.basis_state([0] * n)])
        if abs(lo - lower_ref) > 1e-12:
            errs.append(f"ghz({n}) lower {lo} != log2(36/35)")
        if abs(hi - 1.0) > 1e-12:
            errs.append(f"ghz({n}) upper {hi} != 1 (|0..0> fidelity 1/2)")

    for n in range(3, 11):
        h = ds.hypergraph(n)
        overlap = abs(complex(np.vdot(ds.plus_state(n).amps, h.amps)))
        got = -math.log2(overlap)
        want = -math.log2(1 - 2.0 ** (1 - n))
        if abs(got - want) > 1e-12:
            errs.append(f"hypergraph({n}) upper {got} != {want}")

    for f in (0.5, 0.25, 0.9):
        if abs(anti_shallowness_continuity(math.log2(f), 0.0) + math.log2(f)) > 1e-12:
            errs.append(f"continuity at eps=0 does not recover -log2({f})")

    _report(
        8,
        errs,
        "GHZ interval [log2(36/35), 1] reproduced for n=4..8; hypergraph"
        " plus-overlap bound -log2(1-2^(1-n)) for n=3..10; continuity"
        " recovers -log F at eps=0 (1e-12)",
    )


# -- 9: correction operators and X-type logicals ------------------------------------


def test_criterion_09_corrections_and_logicals():
    errs = []

    rng = random.Random(3)
    for trial in range(100):
        n = rng.randint(2, 6)
        t = random_stabilizer_state(n, seed=trial)
        gens = [g if g.display_sign == 1 else g.negate() for g in t.generators]
        flips = [rng.random() < 0.5 for _ in gens]
        plus = [g for g, f in zip(gens, flips) if not f]
        minus = [g for g, f in zip(gens, flips) if f]
        pc = pauli_correction(plus, minus)
        if pc.display_sign != 1 or not pc.hermitian:
            errs.append(f"trial {trial}: correction not a +1 hermitian Pauli")
        if any(not pc.commutes(g) for g in plus) or any(
            pc.commutes(g) for g in minus
        ):
            errs.append(f"trial {trial}: wrong (anti)commutation pattern")
        # uniqueness on the syndrome space: any two solutions differ by an
        # operator commuting with every generator
        rows = [g.z | (g.x << n) for g in gens]
        sol = gf2_solve(rows, [0] * len(gens), cols=2 * n)
        for v in sol.null_basis:
            x, z = v & ((1 << n) - 1), v >> n
            op = PauliOperator.from_exponent(n, x, z, bin(x & z).count("1") % 4)
            if any(not op.commutes(g) for g in gens):
                errs.append(f"trial {trial}: null-space element changes a syndrome")

    for name in ("repetition(3)", "repetition(5)", "steane", "toric(2)"):
        code = builtin_code(name)
        logicals = x_type_logicals(code)
        if len(logicals) != code.k:
            errs.append(f"{name}: {len(logicals)} logicals != k = {code.k}")
        for lg in logicals:
            if lg.z != 0:
                errs.append(f"{name}: logical has Z part")
            if any(not lg.commutes(c) for c in code.checks):
                errs.append(f"{name}: logical anticommutes with a check")
        stacked = [c.symplectic_row() for c in code.checks]
        stacked += [lg.symplectic_row() for lg in logicals]
        if gf2_rank(stacked) != code.n:
            errs.append(f"{name}: checks + logicals not full rank")

    _report(
        9,
        errs,
        "100 random (code, syndrome) pairs give corrections with the exact"
        " sign pattern and syndrome-space uniqueness; X-type logicals commute"
        " with all checks and complete the full-rank stack",
    )


# -- 10: local indistinguishability --------------------------------------------------


def test_criterion_10_local_indistinguishability():
    errs = []
    t1 = ghz_state(4)
    idx = next(i for i, g in enumerate(t1.generators) if g.x)
    t2 = flip_generator_sign(t1, idx)
    if not local_indistinguishable(t1, t2, 3):
        errs.append("GHZ_4 and sign-flipped copy differ on a size-<=3 subset")
    full = (0, 1, 2, 3)
    if restricted_group_elements(t1, full) == restricted_group_elements(t2, full):
        errs.append("GHZ_4 and sign-flipped copy agree globally")
    if local_indistinguishable(t1, t2, 4):
        errs.append("size-4 restriction failed to distinguish the pair")
    _report(
        10,
        errs,
        "GHZ_4 vs sign-flipped partner: identical on all subsets of size"
        " <= 3, distinguished by the full register",
    )
