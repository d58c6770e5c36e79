"""Compile stabilizer-code states into verified shallow adaptive circuits.

The pipeline: build a code from check strings or supports, edge-color its
Tanner graph so commuting checks are measured in parallel through ancillas,
insert CZ gates between ancilla pairs whose controlled-Pauli interleaving is
odd ("tangled" pairs, all found in one pass by ``build_tangling``), then fix
the random measurement signs with one round of parity-conditioned Pauli
corrections.  The synthesizer measures the checks of one code; a caller's
measured set S1 is wrapped as a code first.  The synthesized circuit for a
sparsity-s code has depth at most 2 + s + s^2.

Sparsity note: the depth bound uses a single ``s`` for both the maximum
check weight and the maximum per-qubit participation.  Codes where the two
differ (Steane: weights 4, participation 6) get s = max of both.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import combinations
from numbers import Integral
from operator import xor
from typing import Iterable, Sequence

import numpy as np

from .bounds import ResourceProfile, check_adaptive_weight, check_clifford_adaptive, weight_checks
from .circuit import (
    AdaptiveCircuit,
    Condition,
    Gate,
    Measure,
    _first_wrong,
    ancilla_count,
    conditioned_non_pauli,
    depth,
    simulate,
    simulate_symbolic,
)
from .pauli import GF2Elimination, PauliOperator, _bits, _transpose, format_pauli, gf2_rank, parse_pauli
from .tableau import (
    StabilizerTableau,
    _anticommuting_masks,
    _from_stabilizers,
    _json_field,
    _json_key,
    _raise_anticommuting,
    _split_name,
    _stabilized,
    apply_gate,
    states_equal,
    zero_state,
)

__all__ = [
    "StabilizerCode",
    "TannerGraph",
    "MeasurementSchedule",
    "TanglingGraph",
    "MeasurementFragment",
    "build_code",
    "builtin_code",
    "parse_code_text",
    "tanner_graph",
    "edge_color_bipartite",
    "build_tangling",
    "edge_color_general",
    "synthesize_measurement_circuit",
    "x_type_logicals",
    "prepare_state",
    "verify_preparation",
]


# ---------------------------------------------------------------------------
# codes


@dataclass
class StabilizerCode:
    """n qubits with an independent, mutually commuting set of checks.

    ``s`` is the sparsity: the larger of the maximum check weight and the
    maximum number of checks any one qubit participates in.  ``k = n - t``
    logical qubits remain for t checks.
    """

    n: int
    checks: tuple[PauliOperator, ...]
    name: str = ""

    def __post_init__(self) -> None:
        self.checks = tuple(self.checks)
        if not self.checks:
            raise ValueError("a code needs at least one check")
        for c in self.checks:
            if c.n != self.n:
                raise ValueError(f"check {format_pauli(c)} acts on {c.n} qubits, code has {self.n}")
            if not c.hermitian or c.display_sign != 1:
                raise ValueError(f"check {format_pauli(c)} must be hermitian with sign +1")
        rows = [c.symplectic_row() for c in self.checks]
        planes = _transpose(rows, 2 * self.n)
        xs, zs = planes[: self.n], planes[self.n :]
        _raise_anticommuting(self.checks, _anticommuting_masks(xs, zs, xs, zs, len(self.checks)), "checks")
        r = gf2_rank(rows)
        if r != len(self.checks):
            raise ValueError(f"checks are dependent: symplectic rank {r} < {len(self.checks)}")

    @property
    def t(self) -> int:
        return len(self.checks)

    @property
    def k(self) -> int:
        return self.n - len(self.checks)

    @cached_property
    def s(self) -> int:
        max_wt = max(c.weight() for c in self.checks)
        part = [0] * self.n
        for c in self.checks:
            for q in c.support():
                part[q] += 1
        return max(max_wt, max(part))


def build_code(check_strings: Sequence[str], name: str = "") -> StabilizerCode:
    """Parse check strings like ``ZZI`` into a validated code."""
    checks = [parse_pauli(s) for s in check_strings]
    if not checks:
        raise ValueError("no checks given")
    return StabilizerCode(checks[0].n, tuple(checks), name)


def _from_supports(n: int, x_supports, z_supports, name: str) -> StabilizerCode:
    """X-type checks on ``x_supports``, then Z-type checks on ``z_supports``."""
    xs = [PauliOperator(n, sum(1 << q for q in sup), 0) for sup in x_supports]
    zs = [PauliOperator(n, 0, sum(1 << q for q in sup)) for sup in z_supports]
    return StabilizerCode(n, (*xs, *zs), name)


def _repetition(n: int) -> StabilizerCode:
    if n < 2:
        raise ValueError("repetition code needs n >= 2")
    return _from_supports(n, (), [(i, i + 1) for i in range(n - 1)], f"repetition({n})")


_STEANE_SUPPORTS = ((0, 2, 4, 6), (1, 2, 5, 6), (3, 4, 5, 6))


def _steane() -> StabilizerCode:
    return _from_supports(7, _STEANE_SUPPORTS, _STEANE_SUPPORTS, "steane")


def _toric(side: int) -> StabilizerCode:
    """Toric code on a side x side torus; qubits on edges, one star and one
    plaquette dropped to keep the checks independent (k = 2)."""
    if side < 2:
        raise ValueError("toric code needs side >= 2")

    def h(r: int, c: int) -> int:  # edge going right from vertex (r, c)
        return r * side + c

    def v(r: int, c: int) -> int:  # edge going down from vertex (r, c)
        return side * side + r * side + c

    # The last vertex's star and plaquette are dropped.
    vertices = [(r, c) for r in range(side) for c in range(side)][:-1]
    stars = [(h(r, c), h(r, (c - 1) % side), v(r, c), v((r - 1) % side, c)) for r, c in vertices]
    plaquettes = [(h(r, c), h((r + 1) % side, c), v(r, c), v(r, (c + 1) % side)) for r, c in vertices]
    return _from_supports(2 * side * side, stars, plaquettes, f"toric({side})")


def builtin_code(name: str) -> StabilizerCode:
    """Named codes: ``repetition(n)``, ``steane``, ``toric(l)``; ``toric4``
    is ``toric(4)``."""
    key, arg = _split_name(name)
    if key == "repetition":
        return _repetition(arg if arg is not None else 3)
    if key == "steane":
        return _steane()
    if key == "toric":
        return _toric(arg if arg is not None else 2)
    raise ValueError(f"unknown builtin code: {name!r}")


def parse_code_text(text: str, name: str = "") -> StabilizerCode:
    """Code file format: Pauli-string lines with ``#`` comments, or a JSON
    object ``{"name": ..., "n": ..., "checks": [...]}``."""
    stripped = text.strip()
    if stripped.startswith("{"):
        d = json.loads(stripped)
        checks = _json_key(d, "checks", list, owner="code")
        code = build_code(checks, _json_field(d.get("name", name), "name", str, owner="code"))
        if "n" in d and _json_field(d["n"], "n", owner="code") != code.n:
            raise ValueError(f"declared n={d['n']} but checks act on {code.n} qubits")
        return code
    lines = []
    for line in stripped.splitlines():
        body = line.split("#", 1)[0].strip()
        if body:
            lines.append(body)
    return build_code(lines, name)


# ---------------------------------------------------------------------------
# Tanner graph and measurement scheduling


@dataclass
class TannerGraph:
    """Bipartite qubit/check incidence graph with per-edge Pauli letters."""

    n_qubits: int
    n_checks: int
    edges: tuple[tuple[int, int], ...]  # (qubit, check), lexicographic
    letters: dict[tuple[int, int], str] = field(default_factory=dict)

    @property
    def max_degree(self) -> int:
        dq = [0] * self.n_qubits
        dc = [0] * self.n_checks
        for q, j in self.edges:
            dq[q] += 1
            dc[j] += 1
        return max(dq + dc)


def tanner_graph(code: StabilizerCode) -> TannerGraph:
    """Edges in (qubit, check) order, read off per-qubit buckets filled check
    by check, so nothing is sorted; ``letters`` is keyed in check order."""
    at_qubit: list[list[int]] = [[] for _ in range(code.n)]
    letters: dict[tuple[int, int], str] = {}
    for j, check in enumerate(code.checks):
        for q in _bits(check.x | check.z):
            at_qubit[q].append(j)
            letters[(q, j)] = check.letter(q)
    edges = tuple((q, j) for q, checks in enumerate(at_qubit) for j in checks)
    return TannerGraph(code.n, code.t, edges, letters)


@dataclass
class MeasurementSchedule:
    """Proper edge coloring of a Tanner graph: color c = controlled-Pauli
    layer c; ``letters`` carries the Pauli applied along each edge, and the
    two cover the same edges.  Colors are integers in 1..``num_colors``.  A
    clash shows as fewer distinct (node, color) pairs than edges; only then
    does the ordered scan run."""

    colors: dict[tuple[int, int], int]
    letters: dict[tuple[int, int], str]
    num_colors: int

    def __post_init__(self) -> None:
        if self.colors.keys() != self.letters.keys():
            e = min(self.colors.keys() ^ self.letters.keys())
            has, lacks = ("color", "letter") if e in self.colors else ("letter", "color")
            raise ValueError(f"edge {e} has a {has} but no {lacks}")
        items = self.colors.items()
        if len({(q, c) for (q, _), c in items}) < len(items) or len({(j, c) for (_, j), c in items}) < len(items):
            edges = list(self.colors)
            at: dict[tuple, list[int]] = {}  # (side, node, color) -> indices of its edges
            for i, (q, j) in enumerate(edges):
                for node in (("qubit", q), ("check", j)):
                    at.setdefault((*node, self.colors[(q, j)]), []).append(i)
            i, k = min(ids[:2] for ids in at.values() if len(ids) > 1)  # the clash a pair scan meets first
            raise ValueError(f"edges {edges[i]} and {edges[k]} share a node and a color")
        if all(isinstance(c, Integral) and 1 <= c <= self.num_colors for c in set(self.colors.values())):
            return
        for e, c in items:
            if not isinstance(c, Integral):
                raise ValueError(f"edge {e} has non-integer color {c!r}")
            if not 1 <= c <= self.num_colors:
                raise ValueError(f"edge {e} has color {c} outside 1..{self.num_colors}")


def edge_color_bipartite(g: TannerGraph) -> MeasurementSchedule:
    """Proper edge coloring with exactly max-degree colors.

    Bipartite graphs have edge chromatic number equal to the maximum degree;
    each new edge either takes a color free at both ends or frees one up by
    swapping an alternating two-color path.  Deterministic: edges arrive in
    (qubit, check) order and the smallest free color always wins.  Qubit q
    is node q and check j node n_qubits + j; bit c of ``mask[node]`` marks
    color c at the node, so a free color is a lowest set bit.
    """
    delta, nq = g.max_degree, g.n_qubits
    full = (1 << delta + 1) - 2  # colors 1..delta
    mask = [0] * (nq + g.n_checks)
    at: list[dict[int, int]] = [{} for _ in mask]  # color -> neighbor node
    colors: dict[tuple[int, int], int] = {}
    for q, j in g.edges:
        v = nq + j
        free = full & ~(mask[q] | mask[v])
        if free:
            c = (free & -free).bit_length() - 1
        else:
            # Walk the alternating a/b path from the check node, for a free
            # at q and b free at j; it can never reach q (q has no a-edge),
            # so swapping a and b along it frees a at j and keeps the coloring
            # proper.  Only the two ends of the path trade a color.
            free_q, free_j = full & ~mask[q], full & ~mask[v]
            a, b = (free_q & -free_q).bit_length() - 1, (free_j & -free_j).bit_length() - 1
            path, node, col = [], v, a
            while col in at[node]:
                path.append((node, at[node][col], col))
                node, col = at[node][col], a + b - col
            for x, y, old in path:
                del at[x][old], at[y][old]
            for x, y, old in path:
                at[x][a + b - old], at[y][a + b - old] = y, x
                colors[(x, y - nq) if x < nq else (y, x - nq)] = a + b - old
            mask[v] ^= 1 << a | 1 << b
            mask[node] ^= 1 << a | 1 << b
            c = a
        colors[(q, j)] = c
        at[q][c], at[v][c] = v, q
        mask[q] |= 1 << c
        mask[v] |= 1 << c
    return MeasurementSchedule(colors, dict(g.letters), delta if g.edges else 0)


@dataclass
class TanglingGraph:
    """Ancilla pairs (one node per check) that need a correcting CZ."""

    n_nodes: int
    edges: tuple[tuple[int, int], ...]

    @property
    def max_degree(self) -> int:
        deg = [0] * self.n_nodes
        for i, j in self.edges:
            deg[i] += 1
            deg[j] += 1
        return max(deg, default=0)


def build_tangling(schedule: MeasurementSchedule) -> TanglingGraph:
    """Ancilla pairs whose controlled-Pauli interleaving is odd.

    Over the qubits where checks i < j apply anticommuting letters, count
    the sites where check i's controlled Pauli is scheduled before check
    j's.  Swapping one anticommuting pair costs a CZ between the two
    ancillas, so an odd count leaves a net CZ.  Global commutation makes the
    number of sites even, hence the parity order-independent.

    Only checks meeting on a qubit with anticommuting letters can tangle, so
    comparing each qubit's letters pairwise finds every site in O(E s) for E
    Tanner edges of a sparsity-s code, without scanning every pair of checks.
    Bit 0 of ``parity[pair]`` counts the pair's sites, bit 1 those where the
    lower check comes first, and bit 2 marks a site whose two edges share a
    color.  The lowest pair with an odd count raises ValueError; otherwise
    the lowest pair with bit 2 raises RuntimeError naming its first shared
    color site, in ``letters`` order, as a scan of that pair alone would.
    """
    colors = schedule.colors
    n_nodes = max((j for _, j in colors), default=-1) + 1
    by_qubit: dict[int, list[tuple[int, str, int]]] = {}  # qubit -> (check, letter, color)
    for (q, j), letter in schedule.letters.items():
        by_qubit.setdefault(q, []).append((j, letter, colors[(q, j)]))
    parity: dict[tuple[int, int], int] = {}
    for bucket in by_qubit.values():
        for (a, la, ca), (b, lb, cb) in combinations(bucket, 2):
            if la != lb:
                if a > b:
                    a, b, ca, cb = b, a, cb, ca
                parity[(a, b)] = parity.get((a, b), 0) ^ (3 if ca < cb else 1) | (ca == cb) << 2
    bad = [pair for pair, p in parity.items() if p & 5]
    if bad:
        a, b = min(bad)
        if parity[(a, b)] & 1:
            raise ValueError(f"checks {a} and {b} anticommute; schedule is for commuting checks")
        letters = schedule.letters
        q, c = next(
            (q, colors[(q, a)])
            for (q, j), letter in letters.items()
            if j == a and letters.get((q, b), letter) != letter and colors[(q, a)] == colors[(q, b)]
        )
        raise RuntimeError(f"improper schedule: edges ({q},{a}) and ({q},{b}) share color {c}")
    return TanglingGraph(n_nodes, tuple(sorted(pair for pair, p in parity.items() if p == 2)))


def edge_color_general(g: TanglingGraph) -> dict[tuple[int, int], int]:
    """Proper edge coloring of a simple graph with <= max-degree + 1 colors
    (fan rotation plus alternating-path inversion).

    Each vertex keeps a bitmask of its colors (``used``) and maps color ->
    neighbor (``at``) and back (``adj``).  Recoloring uncolors all edges of
    a path or fan before coloring any, so ``at[v]`` always inverts
    ``adj[v]``, and the fan grows by the lowest ``at[u][c]`` over colors c at
    u free at its tip, as a scan of u's sorted neighbors would.  Edges are
    colored in sorted order, the key order of the returned dict."""
    if not g.edges:
        return {}
    adj: list[dict[int, int]] = [{} for _ in range(g.n_nodes)]  # neighbor -> color
    used = [0] * g.n_nodes  # bit c: some edge at the vertex has color c
    at: list[dict[int, int]] = [{} for _ in range(g.n_nodes)]  # color -> neighbor

    def recolor(changes: list[tuple[int, int, int]]) -> None:
        for u, v, _ in changes:
            old = adj[u].get(v)
            if old is not None:
                del at[u][old], at[v][old]
                used[u] ^= 1 << old
                used[v] ^= 1 << old
        for u, v, c in changes:
            adj[u][v] = adj[v][u] = c
            at[u][c], at[v][c] = v, u
            used[u] |= 1 << c
            used[v] |= 1 << c

    edges = sorted(g.edges)
    for u, v in edges:
        # Maximal fan of u starting at the uncolored edge (u, v).
        adj_u, at_u, used_u = adj[u], at[u], used[u]
        fan = [v]
        while True:
            nxt = None
            rest = used_u & ~used[fan[-1]]
            while rest:
                low = rest & -rest
                rest ^= low
                w = at_u[low.bit_length() - 1]
                if (nxt is None or w < nxt) and w not in fan:
                    nxt = w
            if nxt is None:
                break
            fan.append(nxt)
        rest = ~used[fan[-1]] & ~1  # colors start at 1
        d = (rest & -rest).bit_length() - 1
        if not used_u >> d & 1:
            w_idx = len(fan) - 1
        else:
            # Invert the maximal c/d alternating path from u, freeing d at u,
            # for c the lowest color free at u.  Missing c, u is one end of
            # the path, so the walk runs to the other end.
            rest = ~used_u & ~1
            c = (rest & -rest).bit_length() - 1
            path = []
            cur, col = u, d
            while (nbr := at[cur].get(col)) is not None:
                col = c + d - col
                path.append((cur, nbr, col))
                cur = nbr
            recolor(path)
            # The fan still holds up to its first vertex missing d: only u's
            # d-edge changed, and the fan vertex before it keeps d or c free.
            w_idx = next(i for i, w in enumerate(fan) if not used[w] >> d & 1)
        # Rotate the fan prefix onto w: (u, fan[i]) takes the color of
        # (u, fan[i + 1]), and (u, w) takes d.
        recolor([(u, fan[i], adj_u[fan[i + 1]]) for i in range(w_idx)] + [(u, fan[w_idx], d)])
    return {(u, v) if u < v else (v, u): adj[u][v] for u, v in edges}


# ---------------------------------------------------------------------------
# circuit synthesis


@dataclass
class MeasurementFragment:
    """Parallel syndrome-extraction circuit plus its bookkeeping."""

    circuit: AdaptiveCircuit
    schedule: MeasurementSchedule
    cz_colors: dict[tuple[int, int], int]

    @property
    def depth(self) -> int:
        return depth(self.circuit)


def _color_layers(items: Iterable[tuple[tuple[int, int], int]]) -> list[list[tuple[int, int]]]:
    """Edges of ``items`` ((edge, color) pairs) bucketed by color, buckets in
    color order, edges in the order given; an unused color leaves no bucket."""
    buckets: defaultdict[int, list[tuple[int, int]]] = defaultdict(list)
    for edge, c in items:
        buckets[c].append(edge)
    return [buckets[c] for c in sorted(buckets)]


def synthesize_measurement_circuit(
    code: StabilizerCode, *, schedule: MeasurementSchedule | None = None
) -> MeasurementFragment:
    """Measure all checks in parallel through one ancilla each.

    Ancilla j is qubit n + j and writes classical bit j.

    Layer plan: ancilla Hadamards (merged, depth-free) / one controlled-Pauli
    layer per schedule color / CZ layers between tangled ancillas / merged
    Hadamards / one layer measuring every ancilla.  Total counted depth is
    at most 2 + s + s^2.  A custom ``schedule`` may force a different layer
    order (and hence different tangling) than the built-in coloring; it must
    match the code's Tanner edges and letters.  Gates in a layer follow edge
    order, the key order of the built-in schedule and of the CZ coloring.
    """
    g = tanner_graph(code)
    if schedule is None:
        schedule = edge_color_bipartite(g)
        cp_items = schedule.colors.items()
    else:
        if schedule.colors.keys() != set(g.edges):
            raise ValueError("schedule does not cover exactly the code's Tanner edges")
        have, want = schedule.letters, g.letters  # both keyed by the Tanner edges
        if have != want:
            bad = min(e for e in want if have[e] != want[e])
            raise ValueError(f"schedule letter {have[bad]!r} on edge {bad} is not the code's {want[bad]!r}")
        cp_items = sorted(schedule.colors.items())
    anc = [code.n + j for j in range(code.t)]
    layers: list[list] = [[Gate("H", (a,), merged=True) for a in anc]]
    layers += [[Gate("CP", (anc[j], q), schedule.letters[(q, j)]) for q, j in edges] for edges in _color_layers(cp_items)]
    cz_colors = edge_color_general(build_tangling(schedule))
    layers += [[Gate("CZ", (anc[i], anc[j])) for i, j in edges] for edges in _color_layers(cz_colors.items())]
    layers.append([Gate("H", (a,), merged=True) for a in anc])
    layers.append([Measure(anc[j], j) for j in range(code.t)])
    circuit = AdaptiveCircuit(code.n + code.t, code.t, layers)
    return MeasurementFragment(circuit, schedule, cz_colors)


def x_type_logicals(code: StabilizerCode) -> list[PauliOperator]:
    """k independent X-type logical representatives.

    An X-type operator with support vector d commutes with every check
    exactly when d is orthogonal to all check z-parts, so candidates form
    the null space of the z-part matrix.  The pure-X part of the check group
    sits inside that null space with codimension exactly k, and extending a
    basis across the gap yields the logicals: a candidate is one when adding
    it raises the rank of the span.
    """
    n = code.n
    elim = GF2Elimination(n, (c.z for c in code.checks))
    # Check combinations whose z-parts cancel give the pure-X group elements.
    span = GF2Elimination(n)
    for lam in elim.dependencies:
        span.add(reduce(xor, (code.checks[i].x for i in _bits(lam)), 0))
    logicals = []
    for d in elim.null_basis():
        if span.add(d):
            logicals.append(PauliOperator(n, d, 0))
        if len(logicals) == code.k:
            break
    if len(logicals) != code.k:
        raise RuntimeError(
            f"could not extend to {code.k} X-type logicals (found {len(logicals)}); rank deficit"
        )
    return logicals


def _correction_layers(columns: Sequence[int], t: int, n: int) -> list[list[Gate]]:
    """Compile outcome-dependent corrections into parity-conditioned gates.

    The correction Pauli solves a linear system whose right-hand side is the
    syndrome vector, so it is GF(2)-linear in the outcome bits.  The
    elimination ``tableau._from_stabilizers`` runs answers every syndrome at
    once: bit j of ``columns[c]`` is column c of the solution for syndrome
    bit j alone (free columns zero), so each column's bits below t are the
    parity set of its correction.  Each qubit then carries at most one X/Y
    gate and one Z gate, each conditioned on a parity of syndrome bits; a
    second layer appears only when some qubit needs X- and Z-corrections
    with different parity sets.
    """
    syndrome = (1 << t) - 1
    parity = [tuple(_bits(c & syndrome)) for c in columns]
    first: list[Gate] = []
    second: list[Gate] = []
    for q in range(n):
        jx, jz = parity[q], parity[n + q]
        if jx and jx == jz:
            first.append(Gate("Y", (q,), cond=Condition(jx, 1)))
            continue
        if jx:
            first.append(Gate("X", (q,), cond=Condition(jx, 1)))
        if jz:
            (second if jx else first).append(Gate("Z", (q,), cond=Condition(jz, 1)))
    return [layer for layer in (first, second) if layer]


def prepare_state(
    code: StabilizerCode,
    *,
    s1: Sequence[PauliOperator] | None = None,
    s2: Sequence[PauliOperator] | None = None,
    phi_layers: Sequence[Sequence[Gate]] | None = None,
    schedule: MeasurementSchedule | None = None,
) -> tuple[AdaptiveCircuit, StabilizerTableau]:
    """Compile a code into (adaptive circuit, target tableau).

    With none of ``s1``, ``s2`` and ``phi_layers`` the split is automatic:
    every check is measured on the all-plus state and X-type logicals
    complete the generator set, so the target is the code state stabilized
    by checks and logical-X representatives.  With all three the split is
    the caller's: S1 is measured, S2 must already stabilize the product
    state prepared by ``phi_layers``.  Any other mix raises ValueError.
    """
    n = code.n
    auto = s1 is s2 is phi_layers is None
    if auto:
        s1, s2 = list(code.checks), x_type_logicals(code)
        phi_layers = [[Gate("H", (q,)) for q in range(n)]]
    elif s1 is None or s2 is None or phi_layers is None:
        raise ValueError("a caller's split needs s1, s2, and phi_layers")
    else:
        s1, s2 = list(s1), list(s2)
        for label, ops in (("S1", s1), ("S2", s2)):
            for g in ops:
                if g.n != n:
                    raise ValueError(f"{label} element {format_pauli(g)} acts on {g.n} qubits, code has {n}")

    s = code.s
    for g in s1:
        if g.weight() > s:
            raise ValueError(f"S1 element {format_pauli(g)} heavier than sparsity {s}")
    phi = zero_state(n)
    for layer in phi_layers:
        for gate in layer:
            if not isinstance(gate, Gate) or gate.cond is not None:
                raise ValueError("phi_layers must be unconditioned gates on the data register")
            if any(q >= n for q in gate.qubits):
                raise ValueError("phi_layers must act on data qubits only")
            apply_gate(phi, gate.op, gate.qubits, pauli=gate.pauli)
    if wrong := _stabilized(phi, s2)[1]:  # one plane pass; a non-hermitian element raises
        g = s2[(wrong & -wrong).bit_length() - 1]
        raise ValueError(f"S2 element {format_pauli(g)} does not stabilize the initial state")
    gens = s1 + s2
    if len(gens) != n:
        raise ValueError(f"need n={n} generators, got {len(gens)}")

    target, columns = _from_stabilizers(gens)  # rejects dependent or anticommuting generators
    measured = code if auto else StabilizerCode(n, tuple(s1), "fragment")  # validates a caller's checks
    frag = synthesize_measurement_circuit(measured, schedule=schedule)
    t = len(s1)
    layers = [list(layer) for layer in phi_layers]
    layers.extend(frag.circuit.layers)
    layers.extend(_correction_layers(columns, t, n))
    return AdaptiveCircuit(n + t, t, layers), target


def verify_preparation(
    circuit: AdaptiveCircuit,
    target: StabilizerTableau,
    trials: int = 20,
    also_exhaustive: bool = True,
) -> dict:
    """Check the circuit against the target on random seeds and, with
    ``also_exhaustive``, on every outcome branch; reports depth, ancilla
    usage, and the applicable trade-off bound checks.

    The exhaustive check is one symbolic run (``simulate_symbolic``) that
    covers all 2^r realizable branches of the r random measurements at any
    cbit count: ``realizable`` counts them (times 2 per classical bit no
    measurement writes) out of ``branches`` = 2^cbits forced patterns.  A
    failing branch is reported as its forced pattern, which
    ``simulate(circuit, forced=...)`` replays.  A conditioned gate other than
    a Pauli leaves both counts None and sets ``unsupported``.

    Trial s checks the branch ``simulate(circuit, seed=s)`` takes, read off
    the symbolic run (draw v is variable v) unless a conditioned non-Pauli
    gate leaves no run, and then simulated; a failing trial reports its
    record, unwritten bits as 0, and skips the exhaustive check.  Every
    counterexample is a forced pattern that ``simulate`` replays.  Outcomes
    are drawn only when the run finds a wrong branch; with none, every trial
    matches without a draw, so a large ``trials`` costs nothing.  A negative
    ``trials`` raises ValueError.

    ``all_match`` is True or False when something was checked, and None when
    nothing was: no random trial ran and the symbolic pass was skipped (not
    asked for, or unsupported).
    """
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    n_a = ancilla_count(circuit, target.n)
    report: dict = {
        "n": target.n,
        "m": circuit.m,
        "n_a": n_a,
        "depth": depth(circuit),
        "random_trials": trials,
        "branches": None,
        "realizable": None,
        "all_match": True,
        "counterexample": None,
        "unsupported": None,
    }
    bad = conditioned_non_pauli(circuit)
    run = simulate_symbolic(circuit) if bad is None and (trials > 0 or also_exhaustive) else None
    wrong = None
    if run is not None:
        fixed, planes = run.sign_planes(target)
        wrong = _first_wrong(fixed, planes)
    for seed in range(trials if run is None or wrong is not None else 0):  # no wrong branch: every trial matches
        if run is None:
            tab, record = simulate(circuit, seed=seed)
            match = states_equal(tab, target)
        else:
            rng = np.random.default_rng(seed)
            values = sum(int(rng.integers(0, 2)) << v for v in range(len(planes)))
            record = run.forced(values)
            match = not reduce(xor, (planes[v] for v in _bits(values)), fixed)
        if not match:
            report["all_match"] = False
            report["counterexample"] = "".join(str(b or 0) for b in record)  # unwritten bits read 0
            break
    if report["all_match"] and also_exhaustive and bad is not None:
        report["unsupported"] = {
            "layer": bad[0],
            "gate": bad[1].op,
            "reason": "sign forms cover conditioned Pauli gates only",
        }
    elif report["all_match"] and also_exhaustive and run is not None:
        report["branches"] = 1 << circuit.cbits
        report["realizable"] = 1 << (len(run.forms) + run.record.count(None))
        if wrong is not None:
            report["all_match"] = False
            report["counterexample"] = "".join(str(b) for b in run.forced(wrong))
    if trials == 0 and report["branches"] is None:
        report["all_match"] = None
    profile = ResourceProfile.from_circuit(circuit, target.n)
    _, report["bounds"] = weight_checks(profile, target, (check_adaptive_weight, check_clifford_adaptive))
    return report

