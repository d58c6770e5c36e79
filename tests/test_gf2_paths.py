"""Row-operation factor-out and single-elimination GF(2) paths against the
per-solve code they replaced, plus counts of GF(2) eliminations and of bit
transposes.

The oracles below are the earlier implementations: a fresh augmented
elimination per right-hand side, destabilizers completed one solve at a
time, qubit removal by rebuilding the whole tableau, one solve per syndrome
bit, a scan over every pair of checks for tangling, the CZ edge coloring
that rebuilds a set of a vertex's colors per query, the Tanner coloring
that scans each node's color dicts per edge, the schedule check that
buckets every edge by (node, color), the basis loop behind ``gf2_rank``,
builtin codes written as Pauli strings and parsed back, and the bit
transpose that packs the whole transposed bit matrix in one call.  The new
paths must reproduce them byte for byte; compiled circuits are also pinned
by hash.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptstab import bounds as bd
from adaptstab import circuit as ci
from adaptstab import pauli as pa
from adaptstab import prep
from adaptstab import tableau as tb
from adaptstab.circuit import Condition, Gate
from adaptstab.errors import ContradictionError
from adaptstab.pauli import GF2Elimination, PauliOperator, _transpose, from_bits, gf2_rank, single_site
from adaptstab.prep import (
    MeasurementSchedule,
    TannerGraph,
    TanglingGraph,
    build_code,
    builtin_code,
    edge_color_bipartite,
    prepare_state,
    tanner_graph,
)
from adaptstab.tableau import (
    StabilizerTableau,
    factor_out_qubits,
    from_stabilizers,
    is_stabilized_by,
    random_stabilizer_state,
    to_json,
    validate_tableau,
)
from helpers_checks import gf2_solve

# -- oracles: the replaced per-solve code ------------------------------------


def solve_augmented(rows, b, ncols):
    """Particular solution (free columns zero) of one system, or None."""
    aug = [rows[i] | (b[i] & 1) << ncols for i in range(len(rows))]
    pivots: dict[int, int] = {}
    reduced: list[int] = []
    for row in aug:
        for col, idx in pivots.items():
            if (row >> col) & 1:
                row ^= reduced[idx]
        if row == 0:
            continue
        low = (row & -row).bit_length() - 1
        if low == ncols:
            return None
        for idx, r in enumerate(reduced):
            if (r >> low) & 1:
                reduced[idx] = r ^ row
        pivots[low] = len(reduced)
        reduced.append(row)
    x = 0
    for col, idx in pivots.items():
        if (reduced[idx] >> ncols) & 1:
            x |= 1 << col
    return x


def per_row_from_stabilizers(gens):
    n = gens[0].n
    destabs = []
    for i in range(n):
        system = [w.z | (w.x << n) for w in gens] + [w.z | (w.x << n) for w in destabs]
        rhs = [1 if j == i else 0 for j in range(n)] + [0] * len(destabs)
        v = solve_augmented(system, rhs, 2 * n)
        destabs.append(from_bits(n, v & ((1 << n) - 1), v >> n, 1))
    t = StabilizerTableau(n, list(gens), destabs)
    validate_tableau(t)
    return t


def rebuild_factor_out(t, q):
    zq = single_site(t.n, q, "Z")
    sign = is_stabilized_by(t, zq)
    if sign is None:
        raise ValueError(f"qubit {q} is not in a definite Z eigenstate")
    rows = [g.symplectic_row() for g in t.generators]
    target = zq.symplectic_row()
    system = [sum(((rows[i] >> col) & 1) << i for i in range(t.n)) for col in range(2 * t.n)]
    mask = solve_augmented(system, [(target >> col) & 1 for col in range(2 * t.n)], t.n)
    pivot = (mask & -mask).bit_length() - 1
    signed_zq = zq if sign == 1 else zq.negate()
    cleaned = []
    for i, g in enumerate(t.generators):
        if i == pivot:
            continue
        if (g.z >> q) & 1:
            g = g * signed_zq
        x = (g.x & ((1 << q) - 1)) | ((g.x >> (q + 1)) << q)
        z = (g.z & ((1 << q) - 1)) | ((g.z >> (q + 1)) << q)
        cleaned.append(PauliOperator.from_exponent(t.n - 1, x, z, g.e))
    if not cleaned:
        return StabilizerTableau(0, [], [])
    return per_row_from_stabilizers(cleaned)


def rebuild_factor_out_chain(t, qs):
    for q in sorted(qs, reverse=True):
        t = rebuild_factor_out(t, q)
    return t


def per_syndrome_correction_layers(gens, t, n):
    rows = [g.z | (g.x << n) for g in gens]
    xs, zs = [], []
    for j in range(t):
        u = solve_augmented(rows, [1 if i == j else 0 for i in range(len(gens))], 2 * n)
        xs.append(u & ((1 << n) - 1))
        zs.append(u >> n)
    first, second = [], []
    for q in range(n):
        jx = tuple(j for j in range(t) if (xs[j] >> q) & 1)
        jz = tuple(j for j in range(t) if (zs[j] >> q) & 1)
        if jx and jx == jz:
            first.append(Gate("Y", (q,), cond=Condition(jx, 1)))
        elif jx and jz:
            first.append(Gate("X", (q,), cond=Condition(jx, 1)))
            second.append(Gate("Z", (q,), cond=Condition(jz, 1)))
        elif jx:
            first.append(Gate("X", (q,), cond=Condition(jx, 1)))
        elif jz:
            first.append(Gate("Z", (q,), cond=Condition(jz, 1)))
    return [layer for layer in (first, second) if layer]


def transpose_solve_logicals(code):
    t, n = code.t, code.n
    zrows = [c.z for c in code.checks]
    candidates = gf2_solve(zrows, [0] * t, cols=n).null_basis
    trans = [sum(((zrows[i] >> q) & 1) << i for i in range(t)) for q in range(n)]
    span = []

    def reduce(vec):
        for b in span:
            vec = min(vec, vec ^ b)
        return vec

    for lam in gf2_solve(trans, [0] * n, cols=t).null_basis:
        vec = 0
        for i in range(t):
            if (lam >> i) & 1:
                vec ^= code.checks[i].x
        vec = reduce(vec)
        if vec:
            span.append(vec)
    logicals = []
    for d in candidates:
        rem = reduce(d)
        if rem:
            span.append(rem)
            logicals.append(PauliOperator(n, d, 0))
        if len(logicals) == code.k:
            break
    return logicals


def basis_loop_rank(rows):
    basis = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
    return len(basis)


def unblocked_transpose(vectors, width):
    if not vectors or not width:
        return [0] * width
    nbytes = (width + 7) // 8
    buf = b"".join(v.to_bytes(nbytes, "little") for v in vectors)
    bits = np.unpackbits(
        np.frombuffer(buf, np.uint8).reshape(len(vectors), nbytes), axis=1, count=width, bitorder="little"
    )
    packed = np.packbits(bits.T, axis=1, bitorder="little")
    k, data = packed.shape[1], packed.tobytes()
    return [int.from_bytes(data[j * k : (j + 1) * k], "little") for j in range(width)]


def string_repetition(n):
    rows = ["I" * i + "ZZ" + "I" * (n - i - 2) for i in range(n - 1)]
    return build_code(rows, f"repetition({n})")


def string_steane():
    rows = []
    for letter in "XZ":
        for sup in ((0, 2, 4, 6), (1, 2, 5, 6), (3, 4, 5, 6)):
            rows.append("".join(letter if q in sup else "I" for q in range(7)))
    return build_code(rows, "steane")


def string_toric(side):
    def h(r, c):
        return r * side + c

    def v(r, c):
        return side * side + r * side + c

    n = 2 * side * side
    rows = []
    for r in range(side):
        for c in range(side):
            if (r, c) == (side - 1, side - 1):
                continue
            sup = {h(r, c), h(r, (c - 1) % side), v(r, c), v((r - 1) % side, c)}
            rows.append("".join("X" if q in sup else "I" for q in range(n)))
    for r in range(side):
        for c in range(side):
            if (r, c) == (side - 1, side - 1):
                continue
            sup = {h(r, c), h((r + 1) % side, c), v(r, c), v(r, (c + 1) % side)}
            rows.append("".join("Z" if q in sup else "I" for q in range(n)))
    return build_code(rows, f"toric({side})")


def tangling_parity(schedule: MeasurementSchedule, i: int, j: int) -> bool:
    """True when ancillas i and j need a CZ to undo odd interleaving.

    Over shared qubits where the two checks apply anticommuting letters,
    count the sites where check i's controlled Pauli is scheduled before
    check j's.  Swapping one anticommuting pair costs a CZ between the two
    ancillas, so an odd count leaves a net CZ.  Global commutation makes the
    anticommuting-site count even, hence the parity order-independent.
    """
    letters, colors = schedule.letters, schedule.colors
    sites = [q for (q, jj), letter in letters.items() if jj == i and letters.get((q, j), letter) != letter]
    if len(sites) % 2 == 1:
        raise ValueError(f"checks {i} and {j} anticommute; schedule is for commuting checks")
    before = 0
    for q in sites:
        ci, cj = colors[(q, i)], colors[(q, j)]
        if ci == cj:
            raise RuntimeError(f"improper schedule: edges ({q},{i}) and ({q},{j}) share color {ci}")
        if ci < cj:
            before += 1
    return before % 2 == 1


def pair_scan_tangling(schedule):
    n_nodes = max((j for _, j in schedule.colors), default=-1) + 1
    edges = tuple(
        (i, j) for i, j in combinations(range(n_nodes), 2) if tangling_parity(schedule, i, j)
    )
    return TanglingGraph(n_nodes, edges)


def set_scan_edge_color(g):
    if not g.edges:
        return {}
    limit = g.max_degree + 1
    adj = {v: {} for v in range(g.n_nodes)}  # neighbor -> color
    color = {}

    def key(u, v):
        return (u, v) if u < v else (v, u)

    def free(v):
        used = set(adj[v].values())
        return min(c for c in range(1, limit + 1) if c not in used)

    def set_color(u, v, c):
        color[key(u, v)] = c
        adj[u][v] = c
        adj[v][u] = c

    def is_fan(u, fan):
        for a, b in zip(fan, fan[1:]):
            c = adj[u].get(b)
            if c is None or c in adj[a].values():
                return False
        return True

    for u, v in sorted(g.edges):
        fan = [v]
        while True:
            nxt = None
            for w in sorted(adj[u]):
                if w in fan:
                    continue
                if adj[u][w] not in adj[fan[-1]].values():
                    nxt = w
                    break
            if nxt is None:
                break
            fan.append(nxt)
        c = free(u)
        d = free(fan[-1])
        if d not in set(adj[u].values()):
            w_idx = len(fan) - 1
        else:
            path = []
            seen = set()
            cur, col = u, d
            while True:
                nbr = next((x for x, cc in adj[cur].items() if cc == col), None)
                if nbr is None or key(cur, nbr) in seen:
                    break
                seen.add(key(cur, nbr))
                path.append((cur, nbr, col))
                cur, col = nbr, c if col == d else d
            for a_v, b_v, old in path:
                set_color(a_v, b_v, c if old == d else d)
            w_idx = next(
                (i for i in range(len(fan)) if d not in adj[fan[i]].values() and is_fan(u, fan[: i + 1])),
                None,
            )
            if w_idx is None:
                raise RuntimeError("edge coloring failed; this is a bug")
        for i in range(w_idx):
            set_color(u, fan[i], adj[u][fan[i + 1]])
        set_color(u, fan[w_idx], d)
    return color


def dict_scan_edge_color_bipartite(g):
    delta = g.max_degree
    used_q = [dict() for _ in range(g.n_qubits)]  # color -> check
    used_c = [dict() for _ in range(g.n_checks)]  # color -> qubit
    colors = {}
    for q, j in g.edges:
        both = [c for c in range(1, delta + 1) if c not in used_q[q] and c not in used_c[j]]
        if both:
            c = both[0]
        else:
            a = min(c for c in range(1, delta + 1) if c not in used_q[q])
            b = min(c for c in range(1, delta + 1) if c not in used_c[j])
            path = []
            on_check, vertex, col = True, j, a
            while True:
                table = used_c[vertex] if on_check else used_q[vertex]
                if col not in table:
                    break
                other = table[col]
                edge = (other, vertex) if on_check else (vertex, other)
                path.append((edge, col))
                on_check, vertex, col = not on_check, other, b if col == a else a
            for edge, old in path:
                used_q[edge[0]].pop(old)
                used_c[edge[1]].pop(old)
            for edge, old in path:
                new = a + b - old
                colors[edge] = new
                used_q[edge[0]][new] = edge[1]
                used_c[edge[1]][new] = edge[0]
            c = a
        colors[(q, j)] = c
        used_q[q][c] = j
        used_c[j][c] = q
    return colors, delta if g.edges else 0


def ordered_scan_schedule_error(colors, num_colors):
    """The message schedule validation raised, or None (integer colors)."""
    edges = list(colors)
    at = {}  # (side, node, color) -> indices of its edges
    for i, (q, j) in enumerate(edges):
        for node in (("qubit", q), ("check", j)):
            at.setdefault((*node, colors[(q, j)]), []).append(i)
    clashes = [ids[:2] for ids in at.values() if len(ids) > 1]
    if clashes:
        i, k = min(clashes)
        return f"edges {edges[i]} and {edges[k]} share a node and a color"
    for e, c in colors.items():
        if not 1 <= c <= num_colors:
            return f"edge {e} has color {c} outside 1..{num_colors}"
    return None


# -- helpers ------------------------------------------------------------------


def _outcome(fn, *args, **kwargs):
    """Result or (exception type, message), so failures compare too."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, RuntimeError, KeyError, ContradictionError) as exc:
        return type(exc), str(exc)


def _simulate_both(monkeypatch, circuit, **kwargs):
    new = _outcome(ci.simulate, circuit, **kwargs)
    with monkeypatch.context() as m:
        m.setattr(ci, "factor_out_qubits", rebuild_factor_out_chain)
        old = _outcome(ci.simulate, circuit, **kwargs)
    return new, old


def _as_text(result):
    if isinstance(result, tuple) and isinstance(result[0], StabilizerTableau):
        tab, record = result
        validate_tableau(tab)
        return to_json(tab)["generators"], record
    return result


_CODES = [
    "repetition(2)",
    "repetition(3)",
    "repetition(7)",
    "repetition(24)",
    "steane",
    *(f"toric({side})" for side in range(2, 7)),
]


# -- simulate -----------------------------------------------------------------


_CIRCUITS = {
    "toric2": lambda: prepare_state(builtin_code("toric(2)"))[0],
    "toric3": lambda: prepare_state(builtin_code("toric(3)"))[0],
    "ghz16": lambda: ci.ghz_adaptive(16, 4, 2),
    "ghz24": lambda: ci.ghz_adaptive(24, 3, 3),
}


@pytest.mark.parametrize("name", _CIRCUITS)
def test_simulate_matches_rebuild_factor_out(monkeypatch, name):
    circuit = _CIRCUITS[name]()
    rng = random.Random(circuit.m)
    runs = [{"seed": s} for s in range(6)]
    runs += [{"forced": [rng.randrange(2) for _ in range(circuit.cbits)]} for _ in range(6)]
    runs.append({"forced": [0] * circuit.cbits})
    for kwargs in runs:
        new, old = _simulate_both(monkeypatch, circuit, **kwargs)
        assert _as_text(new) == _as_text(old), kwargs


def test_factor_out_keeps_error_for_undetermined_qubit():
    t = from_stabilizers([PauliOperator(2, 0b11, 0), PauliOperator(2, 0, 0b11)])
    for q in (0, 1):
        with pytest.raises(ValueError, match="definite Z eigenstate"):
            factor_out_qubits(t, [q])


# -- prepare_state --------------------------------------------------------------


@pytest.mark.parametrize("name", _CODES)
def test_prepare_state_matches_per_solve_paths(monkeypatch, name):
    code = builtin_code(name)
    circuit, target = prepare_state(code)
    with monkeypatch.context() as m:
        # The shared elimination's solutions reach the corrections as
        # ``columns``; the per-solve oracles pass the generators instead.
        m.setattr(prep, "_from_stabilizers", lambda gens: (per_row_from_stabilizers(gens), gens))
        m.setattr(prep, "_correction_layers", per_syndrome_correction_layers)
        m.setattr(prep, "build_tangling", pair_scan_tangling)
        m.setattr(prep, "x_type_logicals", transpose_solve_logicals)
        old_circuit, old_target = prepare_state(code)
    assert ci.to_json(circuit) == ci.to_json(old_circuit)
    assert json.dumps(to_json(target)) == json.dumps(to_json(old_target))


def test_from_stabilizers_matches_per_row_solve():
    for n, seed in [(1, 0), (3, 1), (6, 2), (12, 3), (20, 4)]:
        gens = random_stabilizer_state(n, seed).generators
        assert to_json(from_stabilizers(gens)) == to_json(per_row_from_stabilizers(gens))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 14), st.integers(0, 2**31 - 1))
def test_from_stabilizers_matches_per_row_solve_property(n, seed):
    gens = random_stabilizer_state(n, seed).generators
    assert to_json(from_stabilizers(gens)) == to_json(per_row_from_stabilizers(gens))


def test_prepare_state_rejects_dependent_generators_before_corrections():
    # The corrections are read off the elimination that completes the
    # destabilizers, which rejects a dependent generator set first.
    z0 = single_site(3, 0, "Z")
    with pytest.raises(ValueError, match="^generators are dependent$"):
        prepare_state(builtin_code("repetition(3)"), s1=[z0, z0], s2=[z0], phi_layers=[])


# -- builtin codes and gf2_rank -----------------------------------------------------


def _string_builtins():
    yield from ((f"repetition({n})", string_repetition(n)) for n in range(2, 31))
    yield "steane", string_steane()
    yield from ((f"toric({side})", string_toric(side)) for side in range(2, 13))


def test_builtin_codes_match_string_builders():
    for name, old in _string_builtins():
        new = builtin_code(name)
        assert (new.n, new.name) == (old.n, old.name)
        assert new.checks == old.checks, name


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40).flatmap(lambda cols: st.lists(st.integers(0, (1 << cols) - 1), max_size=30)))
def test_gf2_rank_matches_basis_loop_property(rows):
    assert gf2_rank(rows) == basis_loop_rank(rows)


# -- build_tangling ---------------------------------------------------------------


@pytest.mark.parametrize("name", ["steane", "toric(3)", "toric(4)", "repetition(5)"])
def test_build_tangling_matches_pair_scan(name):
    base = edge_color_bipartite(tanner_graph(builtin_code(name)))
    rng = random.Random(name)
    for _ in range(8):
        perm = list(range(1, base.num_colors + 1))
        rng.shuffle(perm)
        colors = {e: perm[c - 1] for e, c in base.colors.items()}
        sched = MeasurementSchedule(colors, dict(base.letters), base.num_colors)
        assert prep.build_tangling(sched) == pair_scan_tangling(sched)


def _unvalidated_schedule(colors, letters):
    sched = object.__new__(MeasurementSchedule)
    sched.colors, sched.letters, sched.num_colors = colors, letters, max(colors.values(), default=0)
    return sched


def test_build_tangling_errors_match_pair_scan():
    # XX and ZI anticommute on qubit 0 only.
    anti = MeasurementSchedule(
        {(0, 0): 1, (1, 0): 2, (0, 1): 2}, {(0, 0): "X", (1, 0): "X", (0, 1): "Z"}, 2
    )
    improper = _unvalidated_schedule(
        {(0, 0): 1, (0, 1): 1, (1, 0): 2, (1, 1): 2}, {(0, 0): "X", (0, 1): "Z", (1, 0): "X", (1, 1): "Z"}
    )
    for sched, kind in ((anti, ValueError), (improper, RuntimeError)):
        new = _outcome(prep.build_tangling, sched)
        assert new[0] is kind
        assert new == _outcome(pair_scan_tangling, sched)
    # Letters on the uncolored edge (0, 1), with one site or two: the
    # schedule itself is refused, naming that edge.
    odd_uncolored = ({(0, 0): 1, (1, 1): 1}, {(0, 0): "X", (0, 1): "Z", (1, 1): "Z"}, 1)
    even_uncolored = ({(0, 0): 1, (1, 1): 1}, {(0, 0): "X", (0, 1): "Z", (1, 0): "X", (1, 1): "Z"}, 1)
    for args in (odd_uncolored, even_uncolored):
        assert _outcome(MeasurementSchedule, *args) == (ValueError, "edge (0, 1) has a letter but no color")


def test_build_tangling_names_the_first_clash_in_letters_order():
    # Qubit 1 is met first, but check 0's sites in ``letters`` order start
    # at qubit 0, which the pair scan names.
    letters = {(1, 1): "Z", (0, 0): "X", (0, 1): "Z", (1, 0): "X"}
    sched = _unvalidated_schedule({(1, 1): 2, (0, 0): 1, (0, 1): 1, (1, 0): 2}, letters)
    expected = (RuntimeError, "improper schedule: edges (0,0) and (0,1) share color 1")
    assert _outcome(prep.build_tangling, sched) == _outcome(pair_scan_tangling, sched) == expected


def _commuting(letters, n_checks):
    return all(
        sum(letters.get((q, a), letter) != letter for (q, b), letter in letters.items() if b == c) % 2 == 0
        for a, c in combinations(range(n_checks), 2)
    )


def test_build_tangling_matches_pair_scan_on_unvalidated_schedules():
    # Random letters and colors 1..3 on edges in random order, so clashes
    # are common; every other draw redraws letters until the checks commute.
    # The tangled pairs or the error must match the pair scan.
    rng = random.Random(2024)
    kinds = Counter()
    for i in range(3000):
        n_qubits, n_checks = rng.randint(1, 4), rng.randint(2, 4)
        edges = [(q, j) for q in range(n_qubits) for j in range(n_checks) if rng.random() < 0.6]
        rng.shuffle(edges)
        letters = {e: rng.choice("XYZ") for e in edges}
        while i % 2 and not _commuting(letters, n_checks):
            letters = {e: rng.choice("XYZ") for e in edges}
        sched = _unvalidated_schedule({e: rng.randint(1, 3) for e in edges}, letters)
        new = _outcome(prep.build_tangling, sched)
        assert new == _outcome(pair_scan_tangling, sched), (sched.colors, letters)
        kinds[new[0] if isinstance(new, tuple) else bool(new.edges)] += 1
    assert min(kinds[k] for k in (ValueError, RuntimeError, True, False)) >= 50, kinds


# -- edge_color_general -----------------------------------------------------------


def _assert_same_coloring(g):
    assert list(prep.edge_color_general(g).items()) == list(set_scan_edge_color(g).items())


@pytest.mark.parametrize(
    "name", [f"toric({side})" for side in range(2, 17)] + ["steane", "repetition(3)", "repetition(7)", "repetition(24)"]
)
def test_edge_color_general_matches_set_scan_on_codes(name):
    _assert_same_coloring(prep.build_tangling(edge_color_bipartite(tanner_graph(builtin_code(name)))))


@pytest.mark.parametrize("seed", range(12))
def test_edge_color_general_matches_set_scan_on_random_graphs(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 40)
    density = rng.choice((0.05, 0.2, 0.5, 0.9))
    # Edges in random order and orientation: the coloring walks them sorted
    # and keys each by (low, high).
    edges = [(j, i) if rng.random() < 0.5 else (i, j) for i, j in combinations(range(n), 2) if rng.random() < density]
    rng.shuffle(edges)
    _assert_same_coloring(TanglingGraph(n, tuple(edges)))


def test_edge_color_general_matches_set_scan_on_small_random_graphs():
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randint(2, 14)
        density = rng.choice((0.2, 0.5, 0.8))
        edges = [(j, i) if rng.random() < 0.5 else (i, j) for i, j in combinations(range(n), 2) if rng.random() < density]
        rng.shuffle(edges)
        _assert_same_coloring(TanglingGraph(n, tuple(edges)))


# -- edge_color_bipartite and schedule validation ---------------------------------


def _assert_same_bipartite_coloring(g):
    schedule = edge_color_bipartite(g)
    colors, num_colors = dict_scan_edge_color_bipartite(g)
    assert list(schedule.colors.items()) == list(colors.items())
    assert schedule.num_colors == num_colors
    assert list(schedule.letters.items()) == list(g.letters.items())


@pytest.mark.parametrize(
    "name",
    [f"repetition({n})" for n in range(2, 31)] + ["steane"] + [f"toric({side})" for side in range(2, 17)],
)
def test_edge_color_bipartite_matches_dict_scan_on_codes(name):
    _assert_same_bipartite_coloring(tanner_graph(builtin_code(name)))


def _random_tanner_graph(rng):
    n_qubits, n_checks = rng.randint(1, 30), rng.randint(1, 30)
    density = rng.choice((0.05, 0.2, 0.5, 0.9))
    edges = [(q, j) for q in range(n_qubits) for j in range(n_checks) if rng.random() < density]
    if rng.random() < 0.5:
        rng.shuffle(edges)  # the coloring walks the edges in the order given
    letters = {e: rng.choice("XYZ") for e in edges}
    return TannerGraph(n_qubits, n_checks, tuple(edges), letters)


@pytest.mark.parametrize("chunk", range(10))
def test_edge_color_bipartite_matches_dict_scan_on_random_graphs(chunk):
    for seed in range(20 * chunk, 20 * chunk + 20):
        _assert_same_bipartite_coloring(_random_tanner_graph(random.Random(seed)))


def test_edge_color_bipartite_matches_dict_scan_on_small_shuffled_graphs():
    # Edges out of (qubit, check) order: a later edge can meet a qubit an
    # alternating path has already recolored, so every node's mask must
    # follow the swaps (in sorted order such qubits take no further edges).
    for seed in range(1000):
        rng = random.Random(seed)
        n_qubits, n_checks = rng.randint(2, 12), rng.randint(2, 12)
        edges = [(q, j) for q in range(n_qubits) for j in range(n_checks) if rng.random() < 0.4]
        rng.shuffle(edges)
        _assert_same_bipartite_coloring(TannerGraph(n_qubits, n_checks, tuple(edges), dict.fromkeys(edges, "Z")))


@pytest.mark.parametrize("name", ["steane", "toric(3)", "toric(5)", "repetition(9)"])
def test_schedule_errors_match_ordered_scan(name):
    proper = edge_color_bipartite(tanner_graph(builtin_code(name)))
    rng = random.Random(name)
    outcomes = set()
    for _ in range(150):
        order = list(proper.colors)
        rng.shuffle(order)
        colors = {e: proper.colors[e] for e in order}
        for e in rng.sample(order, rng.randint(0, 3)):
            colors[e] = rng.randint(0, proper.num_colors + 1)  # 0 and num_colors + 1 are out of range
        want = ordered_scan_schedule_error(colors, proper.num_colors)
        got = _outcome(MeasurementSchedule, colors, proper.letters, proper.num_colors)
        if want is None:
            assert isinstance(got, MeasurementSchedule)
        else:
            assert got == (ValueError, want)
        outcomes.add(want is None or want.split()[0])
    assert outcomes == {True, "edges", "edge"}  # proper, clash and range cases all met


# Circuits compiled before the synthesis stages moved to per-node bitmasks.
_PINNED_CIRCUITS = {
    "toric(2)": "edbee090d1447492d32a6ba90961aca3a26461288a02aecc50b51c9d95d04c62",
    "toric(3)": "300d89c9b88494d0fe890a4214dc0f33e5f9663768925c8c4d49d047f4b79909",
    "toric(4)": "0d26b57652db6f09090f645d06bc2dfab57ac364bf5aef3b3b5089a894e270a1",
    "toric(5)": "4f013f87b2ea0a7fe7cd8e05a75ea0d126c98f2bb02f96c21acefc8500af6d6c",
    "toric(6)": "915dec110df1aa6d3d40dd89fb275519ac196dc5d78df7d612dd8c6085ff3445",
    "toric(7)": "81b46f85abd5a41e42de42848b27b3d5fe774c39ba6c0d2656dcbdb92086534f",
    "toric(8)": "8660e4aef9921fec0ad1614960edaede1b6f2c831a9e700431eb6c34bac5fca3",
    "steane": "79b82ea5f950b74a27af1f40f347ef74aa580e4bd2d76abebefebdb9261c71e1",
    "repetition(3)": "afa04f084f2fbb7b2e272acf727686f04896d0c0db3bc813b4a74d7566fb5b3b",
    "repetition(24)": "a93884d5af44234b0e1cefde9b9f65aca525123777c60316fa18fddd70263d20",
}


@pytest.mark.parametrize("name", _PINNED_CIRCUITS)
def test_prepare_state_circuit_hash_pinned(name):
    circuit = prepare_state(builtin_code(name))[0]
    assert hashlib.sha256(ci.to_json(circuit).encode()).hexdigest() == _PINNED_CIRCUITS[name]


# -- complexity: GF(2) eliminations counted ---------------------------------------


@pytest.fixture
def eliminations(monkeypatch):
    counts = {"eliminations": 0, "rows": 0}
    init, add = GF2Elimination.__init__, GF2Elimination.add

    def counting_init(self, *args, **kwargs):
        counts["eliminations"] += 1
        init(self, *args, **kwargs)

    def counting_add(self, row):
        counts["rows"] += 1
        return add(self, row)

    monkeypatch.setattr(GF2Elimination, "__init__", counting_init)
    monkeypatch.setattr(GF2Elimination, "add", counting_add)
    return counts


def test_simulate_makes_no_gf2_elimination(eliminations):
    tab, record = ci.simulate(ci.ghz_adaptive(128, 8, 2), seed=0)
    assert tab.n == 128 and len(record) == 15
    assert eliminations == {"eliminations": 0, "rows": 0}


def test_prepare_state_eliminates_each_matrix_once(eliminations):
    code = builtin_code("toric(8)")
    n, t = code.n, code.t
    prepare_state(code)
    # Four matrices, each eliminated once with one add per row:
    # - the checks' symplectic rows (the code's independence check, t rows);
    # - the checks' z-parts (X-type logical candidates, t rows);
    # - the pure-X span: 63 pure-X group elements (one per dependency of the
    #   z-parts), then candidates until the k = 2 logicals raise its rank (9);
    # - the symplectic system completed into destabilizers (n generator rows,
    #   then n - 1 destabilizer rows: the last meets no later destabilizer).
    # The destabilizers are read from the tags once and updated as each
    # joins, and the corrections read every syndrome from the same tags.
    assert eliminations == {"eliminations": 4, "rows": t + t + 63 + 9 + 2 * n - 1}
    assert (n, eliminations["rows"]) == (128, 579)


# -- bit transpose --------------------------------------------------------------


def _vector(rng, width, kind):
    """A random vector, one whose high or low half is zero, or zero."""
    half = width // 2
    if kind == "high-zero":
        return rng.getrandbits(half)
    if kind == "low-zero":
        return rng.getrandbits(width - half) << half
    return rng.getrandbits(width) if kind == "random" else 0


# Besides random matrices: vectors whose high bytes are zero (output rows,
# and round-trip rows, that end in zero bytes, which the bytes view drops),
# vectors whose low bytes are zero (round-trip rows that start with them),
# all-zero vectors, output widths at the 256-row conversion block, and one
# output byte per row (at most 8 vectors) next to more than 128.
_TRANSPOSE_CASES = [
    *((count, width, "random") for count, width in [(0, 0), (0, 5), (3, 0), (1, 1), (8, 8), (5, 13), (46, 23)]),
    *((count, width, "random") for count, width in [(255, 9), (256, 64), (257, 3), (600, 77), (1030, 260)]),
    (300, 64, "high-zero"), (300, 64, "low-zero"), (1100, 40, "high-zero"), (1100, 40, "low-zero"),
    (12, 40, "zero"), (1100, 300, "zero"),
    (40, 255, "random"), (40, 256, "random"), (40, 257, "random"), (40, 513, "random"), (3, 513, "high-zero"),
    (1, 257, "random"), (8, 257, "random"), (8, 513, "low-zero"), (1100, 257, "random"), (1100, 513, "random"),
]


@pytest.mark.parametrize(
    "count,width,kind",
    _TRANSPOSE_CASES,
    ids=[f"{c}-{w}" if kind == "random" else f"{c}-{w}-{kind}" for c, w, kind in _TRANSPOSE_CASES],
)
def test_transpose_matches_unblocked_transpose(count, width, kind):
    rng = random.Random(count * 1000 + width)
    vectors = [_vector(rng, width, kind) for _ in range(count)]
    got = _transpose(vectors, width)
    assert got == unblocked_transpose(vectors, width)
    assert _transpose(got, count) == vectors


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 70).flatmap(lambda w: st.tuples(st.just(w), st.lists(st.integers(0, (1 << w) - 1), max_size=600))))
def test_transpose_matches_unblocked_transpose_property(case):
    width, vectors = case
    assert _transpose(vectors, width) == unblocked_transpose(vectors, width)


# -- complexity: bit transposes counted -----------------------------------------


@pytest.fixture
def transposes(monkeypatch):
    calls = []

    def counting(vectors, width):
        calls.append((len(vectors), width))
        return _transpose(vectors, width)

    for module in (pa, tb, prep, bd):
        monkeypatch.setattr(module, "_transpose", counting)
    return calls


def test_from_stabilizers_makes_two_transposes(transposes):
    # One turns the generators' x | z << n rows into planes, one the
    # solutions' columns into rows; the destabilizer planes are kept current
    # as the chain runs, so none is read back.
    n = 40
    cases = [[PauliOperator(n, (1 << n) - 1, 0)] + [PauliOperator(n, 0, 3 << i) for i in range(n - 1)]]
    cases += [list(random_stabilizer_state(m, seed).generators) for m, seed in ((1, 0), (12, 5), (33, 7))]
    for gens in cases:
        transposes.clear()
        t = from_stabilizers(gens)
        assert len(transposes) == 2, len(gens)
        assert to_json(t) == to_json(per_row_from_stabilizers(gens))


def test_row_views_make_one_transpose(transposes):
    t = random_stabilizer_state(20, 3)
    assert transposes == []  # gates only
    t.generators, t.destabilizers
    assert transposes == [(40, 40)]


def test_stabilized_makes_two_transposes(transposes):
    # One reads the Paulis' x | z << n rows into planes, one the picks of
    # _match_products.
    t = random_stabilizer_state(16, 4)
    ops = [*t.generators, *t.destabilizers]
    transposes.clear()
    destabilizers = ((1 << 16) - 1) << 16  # no destabilizer is in the group
    assert tb._stabilized(t, ops) == (destabilizers, destabilizers)
    assert len(transposes) == 2
    transposes.clear()
    assert is_stabilized_by(t, ops[3]) == 1
    assert len(transposes) == 2


def test_stabilizer_code_makes_one_transpose(transposes):
    code = builtin_code("toric(3)")
    transposes.clear()
    assert prep.StabilizerCode(code.n, code.checks, code.name) == code
    assert transposes == [(code.t, 2 * code.n)]


def test_stabilizer_tableau_constructor_makes_one_transpose(transposes):
    t = random_stabilizer_state(12, 9)
    gens, destabs = t.generators, t.destabilizers
    transposes.clear()
    built = StabilizerTableau(12, gens, destabs)
    assert transposes == [(24, 24)]
    assert (built.xs, built.zs, built.e0, built.e1) == (t.xs, t.zs, t.e0, t.e1)


@pytest.mark.parametrize(
    "make", [lambda: tb.ghz_state(24), lambda: random_stabilizer_state(24, 11)], ids=["ghz24", "random24"]
)
def test_weight_checks_above_the_cap_makes_one_transpose_and_no_rows(transposes, make):
    target = make()
    transposes.clear()
    read = [lambda profile, wt: {"satisfied": True, "wt": wt}]
    vector, records = bd.weight_checks(bd.ResourceProfile(n=24, m=24, K=2, L=1), target, read)
    assert vector is None and len(transposes) == 1 and target._rows is None
    assert records[0]["wt"] == max(g.weight() for g in target.generators)
