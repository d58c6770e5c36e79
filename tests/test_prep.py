from __future__ import annotations

import itertools
import json
import random
import re

import numpy as np
import pytest

from adaptstab import tableau as tb
from adaptstab.circuit import AdaptiveCircuit, Gate, Measure, depth, simulate, validate
from adaptstab.circuit import to_json as ci_json
from adaptstab.errors import ContradictionError
from adaptstab.pauli import PauliOperator, format_pauli, gf2_rank, parse_pauli
from adaptstab.prep import (
    MeasurementSchedule,
    StabilizerCode,
    build_code,
    build_tangling,
    builtin_code,
    edge_color_bipartite,
    edge_color_general,
    parse_code_text,
    prepare_state,
    synthesize_measurement_circuit,
    tanner_graph,
    verify_preparation,
    x_type_logicals,
    TanglingGraph,
)
from adaptstab.tableau import (
    from_stabilizers,
    ghz_state,
    is_stabilized_by,
    random_stabilizer_state,
    states_equal,
    zero_state,
)
from helpers_checks import check_measurement_transform, gf2_solve, pauli_correction
from helpers_tableau import plane_measure_pauli, tensor_tableau


def test_build_code_examples():
    c = build_code(["ZZI", "IZZ"])
    assert (c.n, c.k, c.s) == (3, 1, 2)
    c2 = build_code(["XX", "ZZ"])
    assert c2.k == 0
    with pytest.raises(ValueError, match="anticommute"):
        build_code(["XX", "ZI"])
    with pytest.raises(ValueError, match="dependent"):
        build_code(["ZZI", "IZZ", "ZIZ"])
    with pytest.raises(ValueError, match="sign"):
        build_code(["-ZZ"])


def test_builtin_codes():
    rep = builtin_code("repetition(3)")
    assert [format_pauli(c) for c in rep.checks] == ["+ZZI", "+IZZ"]
    st = builtin_code("steane")
    assert (st.n, st.k, st.s) == (7, 1, 6)
    assert all(c.weight() == 4 for c in st.checks)
    tor = builtin_code("toric(2)")
    assert (tor.n, tor.t, tor.k, tor.s) == (8, 6, 2, 4)
    tor3 = builtin_code("toric(3)")
    assert (tor3.n, tor3.t, tor3.k) == (18, 16, 2)
    with pytest.raises(ValueError):
        builtin_code("toric(1)")
    with pytest.raises(ValueError, match="unknown builtin"):
        builtin_code("surface")


def test_parse_code_text():
    code = parse_code_text("# repetition\nZZI\nIZZ  # tail comment\n", "rep")
    assert code.t == 2 and code.name == "rep"
    blob = json.dumps({"name": "pair", "n": 2, "checks": ["XX", "ZZ"]})
    code2 = parse_code_text(blob)
    assert code2.name == "pair" and code2.k == 0
    with pytest.raises(ValueError, match="declared n"):
        parse_code_text(json.dumps({"n": 5, "checks": ["XX"]}))


def test_tanner_graph_structure():
    code = build_code(["XXXX", "ZZZZ"])
    g = tanner_graph(code)
    assert g.edges == tuple((q, j) for q in range(4) for j in range(2))
    assert g.max_degree == 4
    assert g.letters[(2, 1)] == "Z"
    for name in ("repetition(4)", "steane", "toric(2)"):
        code = builtin_code(name)
        assert tanner_graph(code).max_degree <= code.s


@pytest.mark.parametrize(
    "name", ["repetition(3)", "repetition(24)", "steane", *(f"toric({side})" for side in range(2, 9))]
)
def test_tanner_graph_matches_letter_strings(name):
    code = builtin_code(name)
    edges, letters = [], {}
    for j, check in enumerate(code.checks):
        for q, ch in enumerate(check.letters()):
            if ch != "I":
                edges.append((q, j))
                letters[(q, j)] = ch
    g = tanner_graph(code)
    assert g.edges == tuple(sorted(edges))
    assert g.letters == letters


def test_prepare_state_does_not_revalidate_the_code(monkeypatch):
    code, rep = builtin_code("toric(8)"), builtin_code("repetition(3)")
    calls = []
    post_init = StabilizerCode.__post_init__
    monkeypatch.setattr(StabilizerCode, "__post_init__", lambda self: calls.append(self.name) or post_init(self))
    prepare_state(code)
    assert calls == []
    # A caller's S1 is still wrapped in a code and validated.
    with pytest.raises(ValueError, match=r"^check -ZZI must be hermitian with sign \+1$"):
        prepare_state(
            rep,
            s1=[parse_pauli("-ZZI"), parse_pauli("IZZ")],
            s2=[parse_pauli("XXX")],
            phi_layers=[[Gate("H", (q,)) for q in range(3)]],
        )
    assert calls == ["fragment"]


def _assert_proper(colors):
    per_node: dict = {}
    for (q, j), c in colors.items():
        assert c not in per_node.setdefault(("q", q), set())
        assert c not in per_node.setdefault(("c", j), set())
        per_node[("q", q)].add(c)
        per_node[("c", j)].add(c)


def test_edge_color_bipartite_uses_exactly_delta():
    for name in ("repetition(4)", "steane", "toric(2)", "toric(3)"):
        code = builtin_code(name)
        g = tanner_graph(code)
        sched = edge_color_bipartite(g)
        _assert_proper(sched.colors)
        assert sched.num_colors == g.max_degree
        assert max(sched.colors.values()) == g.max_degree
    single = build_code(["XYZXY"])
    sched = edge_color_bipartite(tanner_graph(single))
    assert sched.num_colors == 5
    assert sorted(sched.colors.values()) == [1, 2, 3, 4, 5]


def test_edge_color_bipartite_deterministic():
    g = tanner_graph(builtin_code("toric(2)"))
    a = edge_color_bipartite(g)
    b = edge_color_bipartite(g)
    assert a.colors == b.colors


def test_schedule_validation():
    code = build_code(["XXXX", "ZZZZ"])
    sched = edge_color_bipartite(tanner_graph(code))
    bad = dict(sched.colors)
    bad[(0, 1)] = bad[(0, 0)]  # same qubit, same color
    with pytest.raises(ValueError, match="share a node"):
        MeasurementSchedule(bad, sched.letters, sched.num_colors)


def test_schedule_rejects_conflict():
    sched = edge_color_bipartite(tanner_graph(builtin_code("steane")))
    edges = sorted(sched.colors)
    a, b = edges[2], edges[3]
    assert a[0] == b[0]  # edges 2 and 3 share qubit 1
    colors = {e: sched.colors[e] for e in edges}
    colors[b] = colors[a]
    with pytest.raises(ValueError) as exc:
        MeasurementSchedule(colors, sched.letters, sched.num_colors)
    assert str(exc.value) == f"edges {a} and {b} share a node and a color"


def _pair_scan_clash(colors):
    for (q1, j1), (q2, j2) in itertools.combinations(colors, 2):
        if (q1 == q2 or j1 == j2) and colors[(q1, j1)] == colors[(q2, j2)]:
            return f"edges {(q1, j1)} and {(q2, j2)} share a node and a color"
    return None


def test_schedule_conflict_message_matches_pair_scan():
    rng = random.Random(5)
    proper = edge_color_bipartite(tanner_graph(builtin_code("toric(3)")))
    clashes = 0
    for trial in range(200):
        order = list(proper.colors)
        rng.shuffle(order)
        colors = {e: proper.colors[e] for e in order}
        for e in rng.sample(order, rng.randint(0, 4)):
            colors[e] = rng.randint(1, proper.num_colors)
        want = _pair_scan_clash(colors)
        if want is None:
            MeasurementSchedule(colors, proper.letters, proper.num_colors)
            continue
        clashes += 1
        with pytest.raises(ValueError) as exc:
            MeasurementSchedule(colors, proper.letters, proper.num_colors)
        assert str(exc.value) == want
    assert 0 < clashes < 200


def test_schedule_rejects_non_integer_colors():
    sched = edge_color_bipartite(tanner_graph(builtin_code("steane")))
    first = next(iter(sched.colors))
    for bad in (float(sched.colors[first]), "2", None):
        colors = dict(sched.colors)
        colors[first] = bad
        with pytest.raises(ValueError) as exc:
            MeasurementSchedule(colors, sched.letters, sched.num_colors)
        assert str(exc.value) == f"edge {first} has non-integer color {bad!r}"
    colors = dict(sched.colors)
    colors[first] = sched.num_colors + 1
    with pytest.raises(ValueError, match=rf"outside 1\.\.{sched.num_colors}$"):
        MeasurementSchedule(colors, sched.letters, sched.num_colors)


def test_tangling_parity_interleavings():
    letters = {(q, 0): "X" for q in range(4)} | {(q, 1): "Z" for q in range(4)}
    even = {(0, 0): 1, (1, 0): 2, (2, 0): 3, (3, 0): 4,
            (0, 1): 3, (1, 1): 4, (2, 1): 1, (3, 1): 2}
    assert build_tangling(MeasurementSchedule(even, letters, 4)).edges == ()
    odd = {(0, 0): 1, (1, 0): 2, (2, 0): 3, (3, 0): 4,
           (0, 1): 2, (1, 1): 3, (2, 1): 4, (3, 1): 1}
    assert build_tangling(MeasurementSchedule(odd, letters, 4)).edges == ((0, 1),)
    # Disjoint supports never tangle.
    code = build_code(["XXII", "IIZZ"])
    sched = edge_color_bipartite(tanner_graph(code))
    assert build_tangling(sched).edges == ()


def test_tangling_same_color_is_internal_error():
    sched = object.__new__(MeasurementSchedule)
    sched.colors = {(0, 0): 1, (0, 1): 1}
    sched.letters = {(0, 0): "X", (0, 1): "Z"}
    sched.num_colors = 1
    with pytest.raises(ValueError, match="anticommute"):
        build_tangling(sched)  # one anticommuting site: not commuting
    sched.colors = {(0, 0): 1, (0, 1): 1, (1, 0): 2, (1, 1): 2}
    sched.letters = {(0, 0): "X", (0, 1): "Z", (1, 0): "X", (1, 1): "Z"}
    with pytest.raises(RuntimeError, match="improper"):
        build_tangling(sched)


def test_edge_color_general_small_graphs():
    assert edge_color_general(TanglingGraph(3, ())) == {}
    tri = TanglingGraph(3, ((0, 1), (0, 2), (1, 2)))
    colors = edge_color_general(tri)
    assert len(set(colors.values())) == 3
    per = {}
    for (i, j), c in colors.items():
        assert c not in per.setdefault(i, set()) and c not in per.setdefault(j, set())
        per[i].add(c)
        per[j].add(c)


def test_edge_color_general_random_graphs():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(4, 12)
        edges = tuple(
            (i, j) for i, j in itertools.combinations(range(n), 2) if rng.random() < 0.35
        )
        g = TanglingGraph(n, edges)
        colors = edge_color_general(g)
        assert set(colors) == {tuple(sorted(e)) for e in edges}
        per: dict = {}
        for (i, j), c in colors.items():
            assert 1 <= c <= g.max_degree + 1
            assert c not in per.setdefault(i, set()) and c not in per.setdefault(j, set())
            per[i].add(c)
            per[j].add(c)


def test_fragment_depth_five_untangled():
    frag = synthesize_measurement_circuit(build_code(["XXXX", "ZZZZ"]))
    assert frag.depth == 5
    assert not build_tangling(frag.schedule).edges
    measured = [(op.qubit, op.cbit) for layer in frag.circuit.layers for op in layer if isinstance(op, Measure)]
    assert measured == [(4, 0), (5, 1)]


def test_fragment_depth_six_with_tangled_schedule():
    code = build_code(["XXXX", "ZZZZ"])
    letters = {(q, 0): "X" for q in range(4)} | {(q, 1): "Z" for q in range(4)}
    odd = {(0, 0): 1, (1, 0): 2, (2, 0): 3, (3, 0): 4,
           (0, 1): 2, (1, 1): 3, (2, 1): 4, (3, 1): 1}
    frag = synthesize_measurement_circuit(code, schedule=MeasurementSchedule(odd, letters, 4))
    assert frag.depth == 6
    assert frag.cz_colors  # at least one CZ layer
    with pytest.raises(ValueError, match="Tanner edges"):
        synthesize_measurement_circuit(
            build_code(["XXII", "IIZZ"]), schedule=MeasurementSchedule(odd, letters, 4)
        )


def _steane_schedule_with(letters=None, colors=None, num_colors=None):
    base = edge_color_bipartite(tanner_graph(builtin_code("steane")))
    return MeasurementSchedule(
        base.colors if colors is None else colors,
        base.letters if letters is None else letters,
        base.num_colors if num_colors is None else num_colors,
    )


def test_custom_schedule_letters_must_match_the_code():
    code = builtin_code("steane")
    letters = dict(edge_color_bipartite(tanner_graph(code)).letters)
    flipped = dict(letters)
    flipped[(0, 0)] = "Z"  # the code has X there
    missing = dict(letters)
    del missing[(0, 0)]
    extra = dict(letters)
    extra[(0, 5)] = "Z"  # qubit 0 is not in check 5
    schedule = _steane_schedule_with(letters=flipped)
    for build in (synthesize_measurement_circuit, prepare_state):
        with pytest.raises(ValueError) as exc:
            build(code, schedule=schedule)
        assert str(exc.value) == "schedule letter 'Z' on edge (0, 0) is not the code's 'X'"
    # Letters and colors on different edges fail at construction.
    with pytest.raises(ValueError, match=r"^edge \(0, 0\) has a color but no letter$"):
        _steane_schedule_with(letters=missing)
    with pytest.raises(ValueError, match=r"^edge \(0, 5\) has a letter but no color$"):
        _steane_schedule_with(letters=extra)


def test_unused_schedule_colors_leave_no_empty_layer():
    code = builtin_code("steane")
    base = edge_color_bipartite(tanner_graph(code))
    want = ci_json(prepare_state(code)[0])
    gap = {e: c + 1 if c > 2 else c for e, c in base.colors.items()}  # color 3 unused
    for schedule in (
        _steane_schedule_with(num_colors=base.num_colors + 1),  # top color unused
        _steane_schedule_with(colors=gap, num_colors=base.num_colors + 1),
    ):
        circuit, target = prepare_state(code, schedule=schedule)
        assert validate(circuit, 4).ok
        assert ci_json(circuit) == want  # same layers, same order
        assert verify_preparation(circuit, target, trials=2)["all_match"] is True


def test_custom_schedule_dict_order_does_not_change_the_circuit():
    code = builtin_code("toric(3)")
    base = edge_color_bipartite(tanner_graph(code))
    edges = list(base.colors)
    random.Random(3).shuffle(edges)
    shuffled = MeasurementSchedule({e: base.colors[e] for e in edges}, {e: base.letters[e] for e in edges}, base.num_colors)
    assert ci_json(prepare_state(code, schedule=shuffled)[0]) == ci_json(prepare_state(code)[0])


def test_fragment_depth_budget():
    for name in ("repetition(5)", "steane", "toric(2)", "toric(3)"):
        code = builtin_code(name)
        frag = synthesize_measurement_circuit(code)
        assert frag.depth <= 2 + code.s + code.s**2


def test_fragment_layer_shape():
    code = builtin_code("repetition(3)")
    frag = synthesize_measurement_circuit(code)
    layers = frag.circuit.layers
    assert all(isinstance(g, Gate) and g.op == "H" and g.merged for g in layers[0])
    assert all(isinstance(g, Gate) and g.op == "H" and g.merged for g in layers[-2])
    assert all(isinstance(op, Measure) for op in layers[-1])
    assert frag.circuit.m == 5  # 3 data + 2 ancillas


def _sequential(code, t0, forced):
    seq = t0.copy()
    for j, ch in enumerate(code.checks):
        plane_measure_pauli(seq, ch, forced=1 if forced[j] == 0 else -1, rng=np.random.default_rng(0))
    return seq


def _parallel_matches_sequential(code, frag, n_inputs, seed0=0):
    for s in range(n_inputs):
        t0 = random_stabilizer_state(code.n, seed=seed0 + s)
        init = tensor_tableau(t0, zero_state(code.t))
        for mask in range(1 << code.t):
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
            assert seq_ok == par_ok, (s, forced)
            if seq_ok:
                assert states_equal(par, seq), (s, forced)


def test_parallel_equals_sequential_xz4():
    code = build_code(["XXXX", "ZZZZ"])
    _parallel_matches_sequential(code, synthesize_measurement_circuit(code), 10)


def test_parallel_equals_sequential_tangled_schedule():
    code = build_code(["XXXX", "ZZZZ"])
    letters = {(q, 0): "X" for q in range(4)} | {(q, 1): "Z" for q in range(4)}
    odd = {(0, 0): 1, (1, 0): 2, (2, 0): 3, (3, 0): 4,
           (0, 1): 2, (1, 1): 3, (2, 1): 4, (3, 1): 1}
    frag = synthesize_measurement_circuit(code, schedule=MeasurementSchedule(odd, letters, 4))
    _parallel_matches_sequential(code, frag, 8)


def test_parallel_equals_sequential_random_pairs_and_schedules():
    rng = random.Random(5)
    found = 0
    seed = 0
    while found < 10:
        seed += 1
        t = random_stabilizer_state(4, seed=seed)
        g1, g2 = t.generators[0], t.generators[1]
        g1 = g1 if g1.display_sign == 1 else g1.negate()
        g2 = g2 if g2.display_sign == 1 else g2.negate()
        try:
            code = StabilizerCode(4, (g1, g2))
        except ValueError:
            continue
        found += 1
        base = edge_color_bipartite(tanner_graph(code))
        perms = [list(range(1, base.num_colors + 1)) for _ in range(2)]
        for p in perms:
            rng.shuffle(p)
        for p in [None] + perms:
            if p is None:
                sched = base
            else:
                sched = MeasurementSchedule(
                    {e: p[c - 1] for e, c in base.colors.items()}, base.letters, base.num_colors
                )
            frag = synthesize_measurement_circuit(code, schedule=sched)
            _parallel_matches_sequential(code, frag, 3, seed0=100 * seed)


def test_parallel_equals_sequential_steane():
    code = builtin_code("steane")
    frag = synthesize_measurement_circuit(code)
    for s in range(2):
        t0 = random_stabilizer_state(7, seed=50 + s)
        init = tensor_tableau(t0, zero_state(6))
        for mask in range(64):
            forced = [(mask >> i) & 1 for i in range(6)]
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
            assert seq_ok == par_ok
            if seq_ok:
                assert states_equal(par, seq)


def test_pauli_correction_examples():
    pc = pauli_correction([parse_pauli("XX")], [parse_pauli("ZZ")])
    assert pc.commutes(parse_pauli("XX"))
    assert not pc.commutes(parse_pauli("ZZ"))
    assert pc.display_sign == 1
    ident = pauli_correction([parse_pauli("XX"), parse_pauli("ZZ")], [])
    assert ident.weight() == 0


def test_pauli_correction_contract_sweep():
    rng = random.Random(3)
    for trial in range(100):
        n = rng.randint(2, 6)
        t = random_stabilizer_state(n, seed=trial)
        gens = [g if g.display_sign == 1 else g.negate() for g in t.generators]
        flips = [rng.random() < 0.5 for _ in gens]
        plus = [g for g, f in zip(gens, flips) if not f]
        minus = [g for g, f in zip(gens, flips) if f]
        pc = pauli_correction(plus, minus)
        assert pc.display_sign == 1 and pc.hermitian
        for g in plus:
            assert pc.commutes(g)
        for g in minus:
            assert not pc.commutes(g)


def test_pauli_correction_unique_up_to_stabilizer():
    # Two valid corrections differ by an operator with trivial syndrome:
    # anything in the null space commutes with every generator.
    t = random_stabilizer_state(5, seed=9)
    gens = [g if g.display_sign == 1 else g.negate() for g in t.generators]
    n = 5
    rows = [g.z | (g.x << n) for g in gens]
    sol = gf2_solve(rows, [0] * len(gens), cols=2 * n)
    assert sol is not None
    for v in sol.null_basis:
        x, z = v & ((1 << n) - 1), v >> n
        op = PauliOperator.from_exponent(n, x, z, bin(x & z).count("1") % 4)
        for g in gens:
            assert op.commutes(g)


def test_x_type_logicals_examples():
    rep = builtin_code("repetition(3)")
    (logical,) = x_type_logicals(rep)
    assert format_pauli(logical) == "+XXX"
    st = builtin_code("steane")
    (lg,) = x_type_logicals(st)
    assert lg.z == 0 and 0 < lg.weight() <= 7
    for c in st.checks:
        assert lg.commutes(c)
    tor = builtin_code("toric(2)")
    logicals = x_type_logicals(tor)
    assert len(logicals) == 2


def test_x_type_logicals_stacked_rank():
    for name in ("repetition(4)", "steane", "toric(2)"):
        code = builtin_code(name)
        logs = x_type_logicals(code)
        rows = [g.symplectic_row() for g in code.checks] + [l.symplectic_row() for l in logs]
        assert gf2_rank(rows) == code.n
        for l in logs:
            for c in code.checks:
                assert l.commutes(c)


def test_x_type_logicals_random_codes():
    for seed in range(15):
        t = random_stabilizer_state(5, seed=200 + seed)
        keep = 3
        gens = [g if g.display_sign == 1 else g.negate() for g in t.generators[:keep]]
        try:
            code = StabilizerCode(5, tuple(gens))
        except ValueError:
            continue
        logs = x_type_logicals(code)
        assert len(logs) == code.k == 2
        rows = [g.symplectic_row() for g in gens] + [l.symplectic_row() for l in logs]
        assert gf2_rank(rows) == 5


def test_prepare_repetition_gives_ghz3():
    circ, target = prepare_state(builtin_code("repetition(3)"))
    ghz3 = from_stabilizers([parse_pauli(s) for s in ("XXX", "ZZI", "IZZ")])
    assert states_equal(target, ghz3)
    report = verify_preparation(circ, target, trials=8)
    assert report["all_match"] and report["realizable"] == 4
    assert all(rec["satisfied"] for rec in report["bounds"])


def test_prepare_steane_exhaustive():
    st = builtin_code("steane")
    circ, target = prepare_state(st)
    for c in st.checks:
        assert is_stabilized_by(target, c) == 1
    report = verify_preparation(circ, target, trials=5)
    assert report["all_match"]
    assert report["branches"] == 64 and report["realizable"] == 8
    assert report["n_a"] == 6


def test_prepare_toric_exhaustive():
    circ, target = prepare_state(builtin_code("toric(2)"))
    report = verify_preparation(circ, target, trials=5)
    assert report["all_match"] and report["branches"] == 64


def test_prepare_k0_code_is_bell():
    circ, target = prepare_state(build_code(["XX", "ZZ"]))
    bell = from_stabilizers([parse_pauli("XX"), parse_pauli("ZZ")])
    assert states_equal(target, bell)
    assert verify_preparation(circ, target, trials=5)["all_match"]


def test_prepare_explicit_policy():
    rep = builtin_code("repetition(3)")
    circ, target = prepare_state(
        rep,
        s1=rep.checks,
        s2=[parse_pauli("XXX")],
        phi_layers=[[Gate("H", (q,)) for q in range(3)]],
    )
    assert verify_preparation(circ, target, trials=4)["all_match"]
    with pytest.raises(ValueError, match="stabilize"):
        prepare_state(
            rep,
            s1=rep.checks,
            s2=[parse_pauli("ZZZ")],  # does not stabilize |+++>
            phi_layers=[[Gate("H", (q,)) for q in range(3)]],
        )
    with pytest.raises(ValueError, match="needs s1"):
        prepare_state(rep, s1=rep.checks, s2=[parse_pauli("XXX")])


@pytest.mark.parametrize(
    "s2,message",
    [
        (["+ZZZ", "+iXXX"], "S2 element +ZZZ does not stabilize the initial state"),
        (["+iXXX", "+ZZZ"], "is_stabilized_by expects a hermitian Pauli"),
    ],
)
def test_s2_check_names_the_first_failing_element(s2, message):
    # The whole S2 list is one plane pass, read in order: a non-hermitian
    # element raises unless an earlier element already failed.
    rep = builtin_code("repetition(3)")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        prepare_state(rep, s1=rep.checks, s2=[parse_pauli(p) for p in s2], phi_layers=[[Gate("H", (q,)) for q in range(3)]])


def test_s2_check_is_one_pass(monkeypatch):
    calls, match_products = [], tb._match_products
    monkeypatch.setattr(tb, "_match_products", lambda *a: calls.append(a[-1]) or match_products(*a))
    rep = builtin_code("repetition(3)")
    prepare_state(rep, s1=rep.checks[:1], s2=[parse_pauli("XXX"), parse_pauli("IZZ")], phi_layers=[[Gate("H", (0,)), Gate("CNOT", (0, 1, 2))]])
    assert calls == [2]


def test_prepare_state_keeps_a_callers_split():
    # A full split is the caller's and is checked, never swapped for the auto split.
    rep = builtin_code("repetition(3)")
    with pytest.raises(ValueError, match="^need n=3 generators, got 2$"):
        prepare_state(rep, s1=[parse_pauli("ZZI")], s2=[parse_pauli("ZZZ")], phi_layers=[])
    for partial in ({"s1": rep.checks}, {"s2": [parse_pauli("XXX")]}, {"phi_layers": []}, {"s1": rep.checks, "phi_layers": []}):
        with pytest.raises(ValueError, match="^a caller's split needs s1, s2, and phi_layers$"):
            prepare_state(rep, **partial)


def test_sabotaged_correction_detected():
    circ, target = prepare_state(builtin_code("repetition(3)"))
    stripped = AdaptiveCircuit(circ.m, circ.cbits, circ.layers[:-1])  # drop corrections
    report = verify_preparation(stripped, target, trials=10)
    assert not report["all_match"]
    assert report["counterexample"] is not None


def test_verify_exhaustive_guard():
    # 13 cbits: above the retired 12-cbit guard, exhaustive in one symbolic pass.
    circ, target = prepare_state(builtin_code("repetition(14)"))
    assert circ.cbits == 13
    report = verify_preparation(circ, target, trials=2)
    assert report["all_match"] and report["branches"] == report["realizable"] == 2**13
    report = verify_preparation(circ, target, trials=4, also_exhaustive=False)
    assert report["all_match"] and report["branches"] is None


def test_verify_bounds_above_weight_cap_use_generator_weight():
    # toric(4): n = 32 is above the n <= 20 enumeration cap; the heaviest
    # generator (weight 4) bounds wt_s from above, and both checks clear it.
    circ, target = prepare_state(builtin_code("toric(4)"))
    report = verify_preparation(circ, target, trials=1, also_exhaustive=False)
    assert report["all_match"]
    for rec in report["bounds"]:
        assert (rec["rhs"], rec["wt_s_exact"], rec["status"], rec["satisfied"]) == (4, False, "proved", True)
    # One layer on GHZ_24 cannot reach weight 24: inconclusive, never satisfied.
    shallow = AdaptiveCircuit(24, 0, [[Gate("H", (0,))]])
    report = verify_preparation(shallow, ghz_state(24), trials=1, also_exhaustive=False)
    for rec in report["bounds"]:
        assert (rec["lhs"], rec["rhs"], rec["status"], rec["satisfied"]) == (2, 24, "inconclusive", False)
    # At or below the cap wt_s is exact and the records carry no status.
    circ, target = prepare_state(builtin_code("repetition(5)"))
    report = verify_preparation(circ, target, trials=1, also_exhaustive=False)
    assert all("status" not in rec and "wt_s_exact" not in rec for rec in report["bounds"])


def test_check_measurement_transform():
    ghz3 = from_stabilizers([parse_pauli(s) for s in ("XXX", "ZZI", "IZZ")])
    assert check_measurement_transform(ghz3, zero_state(2))
    bell = from_stabilizers([parse_pauli("XX"), parse_pauli("ZZ")])
    assert not check_measurement_transform(zero_state(3), bell)
    assert check_measurement_transform(bell, bell)
    # Sign-sensitive: a flipped generator moves which small state is reachable.
    flipped = from_stabilizers([parse_pauli(s) for s in ("XXX", "-ZZI", "IZZ")])
    assert not check_measurement_transform(flipped, zero_state(2))
    assert check_measurement_transform(
        flipped, from_stabilizers([parse_pauli("-ZI"), parse_pauli("IZ")])
    )
    with pytest.raises(ValueError):
        check_measurement_transform(zero_state(2), zero_state(3))
