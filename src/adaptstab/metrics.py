"""State-complexity indicators: generator weights, correlations, anti-shallowness.

Weight machinery works on tableaux: one packed table of the whole
stabilizer group, one ``uint64`` ``z | x << 32`` per element and no phases,
feeds a matroid greedy and an independent rank-sweep oracle.  Both read
the table one weight class at a time, each by one comparison over a weight
byte per element, with no sort.  The greedy marks spanned elements by
writing n + 1 into their weight bytes, so besides the table it holds only
that byte per element, the span's masks and the current class.
Correlation machinery works on dense
states and ships two estimators for the operator-norm maximization:

* ``pauli-enum`` — exact maximization over Pauli strings on the chosen
  supports.  Deterministic; exact for the state families shipped here.
* ``alternating-sign`` — sign-operator ascent on the connected-correlation
  tensor with random restarts.  Monotone per iteration, and never reported
  below the Pauli value because the Pauli maximizer seeds one restart.

Both are lower bounds on the true supremum over norm-1 observables; reports
carry the method label.  All anti-shallowness logarithms are base 2.

Every correlation metric reads its subset pairs off one private pass,
``_pair_pass``, in batches: one per first subset a1 over all its partners
a2 in enumeration order (the w = 1 range hands it all qubit pairs as one),
so memory is bounded without a block-size constant.  A batch costs one
2w-qubit RDM per pair (each w-subset's marginal once per call); Pauli
tables (exact gathers, bit-identical to the contraction with the Pauli
matrices) and, for ``alternating-sign``, the ascent run once per distinct
connected tensor not seen in the previous batch.  A permutation-symmetric
state, found exactly once per public call (its amplitude tensor is bitwise
unchanged by every adjacent qubit swap), has one tensor for every pair: the
pass builds pair 0 only, and both ranges are n or 1.  Otherwise the w = 1
range is the largest clique of the graph of pairs above delta, and only
w >= 2 scans regions, capped at n <= 12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import combinations, product
from typing import Sequence

import numpy as np

from .densesim import StateVector, fidelity, from_tableau, pauli_matrix
from .errors import ResourceGuardError
from .pauli import PauliOperator, _bits, gf2_rank
from .tableau import StabilizerTableau

__all__ = [
    "WeightVector",
    "CorrelationReport",
    "min_weight_generators",
    "stabilizer_weight",
    "weight_vector_oracle",
    "pauli_correlation_range",
    "correlation_strength_w",
    "correlation_range_w",
    "global_correlation",
    "anti_shallowness_lower",
    "anti_shallowness_upper",
    "anti_shallowness_continuity",
    "lemma2_check",
]


@dataclass(frozen=True)
class WeightVector:
    """Non-increasing generator weights, ordered by the lexicographic rule."""

    entries: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(sorted(self.entries, reverse=True)))
        n = len(self.entries)
        if any(not 1 <= e <= n for e in self.entries):
            raise ValueError("weights must lie in [1, n]")

    def __getitem__(self, i: int) -> int:
        return self.entries[i]

    def __len__(self) -> int:
        return len(self.entries)

    def __lt__(self, other: "WeightVector") -> bool:
        return self.entries < other.entries

    def __le__(self, other: "WeightVector") -> bool:
        return self.entries <= other.entries


@dataclass
class CorrelationReport:
    region: tuple[int, ...]
    w: int
    method: str
    value: float
    pair: dict

    def to_json(self) -> dict:
        return {
            "region": list(self.region),
            "w": self.w,
            "method": self.method,
            "value": self.value,
            "pair": self.pair,
        }


# -- stabilizer weight ---------------------------------------------------------


def _group_cap(n: int) -> None:
    if n > 20:
        raise ResourceGuardError(f"group enumeration capped at n <= 20, got n = {n}", name="group_table", limit=20, value=n)


def _group_table(t: StabilizerTableau) -> np.ndarray:
    """Every stabilizer group element's bits ``z | x << 32`` as one
    ``uint64``, indexed by generator mask; entry 0 is the identity.  A word's
    value order is the (x, z) order.  Doubles over the generators: the block
    of masks whose highest bit is i is generator i times the block below it.
    Phases are not kept.  Dependent generators raise ValueError."""
    n = t.n
    _group_cap(n)
    if gf2_rank([g.symplectic_row() for g in t.generators]) < n:
        raise ValueError("generators are dependent")
    table = np.zeros(1 << n, np.uint64)
    for i, g in enumerate(t.generators):
        np.bitwise_xor(table[: 1 << i], np.uint64(g.z | g.x << 32), out=table[1 << i : 2 << i])
    return table


def _weights(table: np.ndarray) -> np.ndarray:
    """Weight of each element of a group table, as ``uint8``: the popcount of
    the OR of a word's two 32-bit halves (x | z), whichever half is first in
    memory.  At most n, so the greedy marks a spanned element by writing
    n + 1 into its byte."""
    halves = table.view(np.uint32)
    return np.bitwise_count(halves[0::2] | halves[1::2])


def min_weight_generators(
    t: StabilizerTableau,
) -> tuple[list[PauliOperator], WeightVector]:
    """Generators realizing the minimal non-increasing weight vector, in pick
    order (non-decreasing weight); the picks of ``_min_weight_picks``."""
    picks, vector = _min_weight_picks(t)
    picked = []
    for m in picks:
        p = PauliOperator(t.n, 0, 0)
        for i in _bits(m):
            p = t.generators[i] * p
        picked.append(p)
    return picked, vector


def _min_weight_picks(t: StabilizerTableau) -> tuple[list[int], WeightVector]:
    """Generator masks of the minimal-weight generators, in pick order, and
    the minimal weight vector read off their classes.

    Matroid greedy over the whole group in (weight, x, z) order, keeping
    whatever is independent of what came before.  The independent generators
    make mask -> element linear and one-to-one, so independence is read in
    mask space: ``spanned`` lists the masks spanned by the picks, and a pick
    m doubles it with the translate ``spanned ^ m``, whose weight bytes are
    set to n + 1 so no class reads them again, as the identity's is.  The next
    class is the least weight left, read as its masks in ascending order (no
    sort of the table); a class's smallest word (its smallest (x, z)) not in
    the span is the next pick, until none is left.  The masks are not
    multiplied out here: callers that read only the weights skip that.
    """
    n = t.n
    table = _group_table(t)
    weights = _weights(table)
    weights[0] = n + 1  # the identity is in every span
    spanned = np.zeros(1 << n >> 1, np.int32)  # doubled by each pick but the last
    size = 1
    picks: list[int] = []
    picked_weights: list[int] = []
    while len(picks) < n:
        wt = weights.min()  # the lightest class with an element left
        masks = np.flatnonzero(weights == wt)
        keys = table[masks]
        while masks.size:
            m = int(masks[np.argmin(keys)])
            picks.append(m)
            picked_weights.append(int(wt))
            if len(picks) == n:
                break
            weights[np.bitwise_xor(spanned[:size], m, out=spanned[size : 2 * size])] = n + 1
            size *= 2
            if len(picks) == n - 1:
                del spanned  # not read again: free it before the last pick's class
            live = weights[masks] == wt
            masks, keys = masks[live], keys[live]
    return picks, WeightVector(tuple(picked_weights))


def stabilizer_weight(t: StabilizerTableau) -> int:
    return _min_weight_picks(t)[1][0]


def weight_vector_oracle(t: StabilizerTableau, k: int) -> int:
    """k-th largest entry of the minimal vector, via a rank sweep.

    Independent of the greedy: the k-th entry (1-indexed) is the least W such
    that elements of weight <= W span a subspace of dimension >= n - k + 1.
    The rank is kept by an echelon pass over whole weight classes, not by the
    greedy's pick loop.
    """
    return _oracle_entries(t, k)[0]


def _oracle_entries(t: StabilizerTableau, k: int) -> list[int]:
    """Entries k..n of the minimal vector from one rank sweep, which stops
    once the rank reaches n - k + 1 (k = 1 gives the whole vector).

    Weight classes are read in turn, each by one comparison over the table
    (no sort).  A class is reduced by the pivot rows held so far, one numpy
    pass each in the order they were added; then the first nonzero residual
    row becomes a pivot and reduces the rest, until no nonzero row is left.
    Each pivot row pivots on its lowest set bit, which no later pivot row
    holds, so one pass per pivot clears every pivot bit.
    """
    n = t.n
    if n > 14:
        raise ResourceGuardError(f"rank-sweep oracle capped at n <= 14, got n = {n}", name="oracle", limit=14, value=n)
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    table = _group_table(t)
    weights = _weights(table)
    pivots: list[tuple[np.uint64, np.uint64]] = []  # (row, its lowest set bit's index)
    levels: list[int] = []  # levels[r - 1]: the least weight whose elements span r dimensions
    one = np.uint64(1)
    for wt in range(1, n + 1):
        rows = table[weights == wt]
        for row, bit in pivots:
            rows ^= (rows >> bit & one) * row
        while (rows := rows[rows != 0]).size:
            row, rows = rows[0], rows[1:]
            bit = np.uint64((int(row) & -int(row)).bit_length() - 1)
            pivots.append((row, bit))
            levels.append(wt)
            if len(levels) == n - k + 1:
                return levels[::-1]
            rows ^= (rows >> bit & one) * row
    raise AssertionError("unreachable: n independent generators span rank n")


# -- correlation estimators ------------------------------------------------------


def _symmetric(s: StateVector) -> bool:
    """Whether the amplitude tensor is bitwise invariant under every adjacent
    qubit swap, hence under every qubit permutation.  Compares the raw
    ``uint64`` words: complex ``==`` would equate -0.0 and +0.0."""
    bits = np.ascontiguousarray(s.amps).view(np.uint64).reshape([2] * s.n + [2])
    return all(np.array_equal(bits, bits.swapaxes(q, q + 1)) for q in range(s.n - 1))


def _rdm(s: StateVector, qubits: Sequence[int]) -> np.ndarray:
    rest = [q for q in range(s.n) if q not in qubits]
    m = s.amps.reshape([2] * s.n).transpose([*qubits, *rest]).reshape(1 << len(qubits), -1)
    return m @ m.conj().T


def _connected(
    s: StateVector, pairs: Sequence[tuple[tuple[int, ...], tuple[int, ...]]], marginals: dict
) -> np.ndarray:
    """Connected-correlation tensors rho_{A1A2} - rho_{A1} x rho_{A2} of
    equal-size subset pairs, as one ``(P, d, d, d, d)`` stack.  ``marginals``
    maps each subset to its RDM."""
    w = len(pairs[0][0])
    d = 1 << w
    tensor = s.amps.reshape([2] * s.n)
    delta = np.empty((len(pairs), d * d, d * d), complex)
    for out, (a1, a2) in zip(delta, pairs):
        rest = [q for q in range(s.n) if q not in a1 + a2]
        m = tensor.transpose([*a1, *a2, *rest]).reshape(d * d, -1)
        np.matmul(m, m.conj().T, out=out)
    delta = delta.reshape(-1, d, d, d, d)
    r1 = np.stack([marginals[a1] for a1, _ in pairs])
    r2 = np.stack([marginals[a2] for _, a2 in pairs])
    delta -= r1[:, :, None, :, None] * r2[:, None, :, None, :]
    return delta


@cache
def _pauli_stack(w: int) -> tuple[tuple[str, ...], np.ndarray]:
    """Names and matrices of every w-site Pauli string; cached, read-only."""
    names = tuple("".join(c) for c in product("IXYZ", repeat=w))
    stack = np.stack([pauli_matrix(s) for s in names])
    stack.flags.writeable = False
    return names, stack


@cache
def _pauli_entries(w: int) -> tuple[np.ndarray, np.ndarray]:
    """Column ``col[a, i]`` and phase ``ph[a, i]`` of the one nonzero entry in
    row i of the a-th w-site Pauli matrix; cached, read-only."""
    stack = _pauli_stack(w)[1]
    col = np.argmax(stack != 0, axis=2)
    ph = np.take_along_axis(stack, col[:, :, None], 2)[:, :, 0]
    col.flags.writeable = ph.flags.writeable = False
    return col, ph


def _pauli_tables(delta: np.ndarray, w: int) -> np.ndarray:
    """``T[p, a, b] = Re tr((P_a x P_b) delta_p)`` for every pair p of the
    stack and all w-site Pauli strings a, b.

    A gather, not a contraction: only the one nonzero entry per row of each
    Pauli matrix contributes, so the sum runs over row indices (i, j) in
    lexicographic order.  The terms and their order are those of
    ``einsum("aik,bjl,klij->ab", stack, stack, delta_p)``, so the tables are
    bit-identical to it.
    """
    col, ph = _pauli_entries(w)
    table = np.zeros((len(delta), len(col), len(col)), complex)
    for i, j in product(range(1 << w), repeat=2):
        table += ph[:, i, None] * ph[None, :, j] * delta[:, col[:, i, None], col[None, :, j], i, j]
    return table.real


def _sign_spectrum(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_sign_operator(m)`` and the eigenvalues of m's Hermitian part."""
    ev, u = np.linalg.eigh((m + m.conj().swapaxes(-1, -2)) / 2)
    return (u * np.where(ev >= 0, 1.0, -1.0)[..., None, :]) @ u.conj().swapaxes(-1, -2), ev


def _sign_operator(m: np.ndarray) -> np.ndarray:
    """Sign of the Hermitian part of one matrix or of each matrix in a stack."""
    return _sign_spectrum(m)[0]


def _alternating_values(
    delta: np.ndarray, best_b: np.ndarray, w: int, restarts: int, seed: int
) -> np.ndarray:
    """Alternating sign-operator ascent for every pair of the stack, from the
    pair's Pauli maximizer (``best_b``, the index of its second string) and
    ``restarts`` random starts.  All (pair, start) rows run as one stack;
    each stops on its own once it gains less than 1e-12, or after 200
    rounds.  Returns the best value of each pair.  Each update is one
    batched matrix-vector product with the pair's tensor, transposed once per
    batch; as o2 = sign(herm N2), a round's value Re tr((o1 x o2) delta) =
    tr(o2 herm N2) is the sum of |eigenvalues| the o2 sign step computed."""
    rng = np.random.default_rng(seed)
    d = 1 << w
    h = rng.normal(size=(restarts, 2, d, d))
    h = h[:, 0] + 1j * h[:, 1]
    starts = _sign_operator(h + h.conj().swapaxes(1, 2))
    pairs = len(delta)
    o2 = np.concatenate(
        [_pauli_stack(w)[1][best_b, None], np.broadcast_to(starts, (pairs, restarts, d, d))], axis=1
    ).reshape(-1, d, d)
    to1 = delta.transpose(0, 1, 3, 4, 2).reshape(pairs, d * d, d * d)
    to2 = delta.transpose(0, 2, 4, 3, 1).reshape(pairs, d * d, d * d)
    val = np.zeros(len(o2))
    live = np.arange(len(o2))
    for _ in range(200):
        src = live // (restarts + 1)  # each row's pair
        o1 = _sign_operator((to1[src] @ o2.reshape(-1, d * d, 1)).reshape(-1, d, d))
        o2, ev = _sign_spectrum((to2[src] @ o1.reshape(-1, d * d, 1)).reshape(-1, d, d))
        new = np.abs(ev).sum(axis=1)
        done = new - val[live] < 1e-12
        val[live] = np.where(done, np.maximum(val[live], new), new)
        live, o2 = live[~done], o2[~done]
        if not live.size:
            break
    return val.reshape(pairs, restarts + 1).max(axis=1)


def _batches(region: tuple[int, ...], w: int):
    """Disjoint size-w subset pairs of ``region`` in enumeration order, one
    list per first subset a1, each a1 paired with every later-or-equal a2."""
    for a1 in combinations(region, w):
        rest = [q for q in region if q not in a1]
        pairs = [(a1, a2) for a2 in combinations(rest, w) if a2 >= a1]
        if pairs:
            yield pairs


def _pair_pass(s, region, w, symmetric, method="pauli-enum", restarts=8, seed=0, batches=None):
    """Yield each batch of disjoint size-w subset pairs of ``region``
    (``_batches`` unless the caller hands others) with each pair's
    ``(value, a, b)``: its max |Cor| by ``method`` and its Pauli maximizer's
    string indices.  A ``symmetric`` state's one batch is pair 0 =
    (region[:w], region[w:2w]).  Results are kept per distinct tensor, keyed
    by its bytes, for the current batch and the one before it.  Reuse is
    exact: the ascent draws its random starts once per call from ``seed``
    and each stack row evolves independently of the others."""
    if symmetric:
        first = (region[:w], region[w : 2 * w])
        batches, subsets = [[first]], first
    else:
        batches, subsets = batches or _batches(region, w), combinations(region, w)
    marginals = {a: _rdm(s, a) for a in subsets}
    seen: dict[bytes, tuple[float, int, int]] = {}
    for pairs in batches:
        delta = _connected(s, pairs, marginals)
        keys = [t.tobytes() for t in delta]
        memo = {k: seen[k] for k in keys if k in seen}
        fresh = {k: p for p, k in enumerate(keys) if k not in memo}
        if fresh:
            sub = delta[list(fresh.values())]
            table = np.abs(_pauli_tables(sub, w)).reshape(len(sub), -1)
            flat = table.argmax(axis=1)
            ai, bi = np.divmod(flat, 4**w)
            if method == "pauli-enum":
                values = table[np.arange(len(sub)), flat]
            else:
                values = _alternating_values(sub, bi, w, restarts, seed)
            memo.update(zip(fresh, zip(values.tolist(), ai.tolist(), bi.tolist())))
        seen = memo
        yield pairs, [memo[k] for k in keys]


def _check_w(w: int, method: str = "pauli-enum") -> None:
    if w < 1:
        raise ValueError("need w >= 1")
    if method == "pauli-enum" and w > 3:
        raise ResourceGuardError(f"pauli-enum supports w <= 3, got w = {w}", name="pauli_enum_w", limit=3, value=w)


def correlation_strength_w(
    s: StateVector,
    region: Sequence[int],
    w: int,
    method: str = "pauli-enum",
    restarts: int = 8,
    seed: int = 0,
) -> CorrelationReport:
    """min over disjoint size-w subset pairs of the per-pair max |Cor|: the
    first strict minimum in enumeration order over the pairs of
    ``_pair_pass``."""
    region = tuple(sorted(set(region)))
    bad = [q for q in region if not 0 <= q < s.n]
    if bad:
        raise ValueError(f"region qubit {bad[0]} outside 0..{s.n - 1}")
    if len(region) < 2 * w:  # never for w < 1, so _check_w's errors keep their order
        raise ValueError("region cannot hold two disjoint size-w subsets")
    _check_w(w, method)
    if method not in ("pauli-enum", "alternating-sign"):
        raise ValueError(f"unknown method {method!r}")
    names = _pauli_stack(w)[0]
    best: CorrelationReport | None = None
    for pairs, results in _pair_pass(s, region, w, _symmetric(s), method, restarts, seed):
        values = np.array([v for v, _, _ in results])
        p = int(np.argmin(values))
        if best is None or values[p] < best.value:
            if method == "pauli-enum":
                _, a, b = results[p]
                o1, o2 = names[a], names[b]
            else:
                o1 = o2 = "sign-operator"
            a1, a2 = pairs[p]
            pair = {"a1": list(a1), "a2": list(a2), "o1": o1, "o2": o2}
            best = CorrelationReport(region, w, method, float(values[p]), pair)
    assert best is not None
    return best


def _max_clique(adj: list[int], n: int) -> int:
    """Exact Bron-Kerbosch with pivoting on bitset adjacency.

    The recursion runs on an explicit stack of ``[r_size, p, x, cand]``
    frames, so its depth is not bounded by Python's recursion limit.  A
    frame's ``cand`` is None until its pivot is chosen; branches are taken
    lowest vertex first."""
    best = 0
    stack: list[list] = [[0, (1 << n) - 1, 0, None]]
    while stack:
        frame = stack[-1]
        r_size, p, x, cand = frame
        if cand is None:
            if p == 0 and x == 0:
                best = max(best, r_size)
                stack.pop()
                continue
            # Pivot: the lowest vertex of p | x with the most neighbours in p.
            pivot, most = 0, -1
            for u in _bits(p | x):
                count = (p & adj[u]).bit_count()
                if count > most:
                    pivot, most = u, count
            cand = p & ~adj[pivot]
        if not cand:
            stack.pop()
            continue
        v = (cand & -cand).bit_length() - 1
        bit = 1 << v
        frame[:] = [r_size, p & ~bit, x | bit, cand & ~bit]
        stack.append([r_size + 1, p & adj[v], x & adj[v], None])
    return best


def _check_threshold(value: float) -> None:
    if not value >= 0:  # NaN too; inf is a threshold no pair exceeds
        raise ValueError(f"correlation threshold must be >= 0, got {value}")


def pauli_correlation_range(s: StateVector, tol: float = 1e-9) -> int:
    """Largest region where every qubit pair shows a Pauli correlation > tol >= 0."""
    return correlation_range_w(s, 1, tol)


def correlation_range_w(s: StateVector, w: int, delta: float) -> int:
    """Largest |A| with Cor^A_w > delta >= 0 (>= 1 by convention).  A pair's
    value does not depend on A, so ``_pair_pass`` reads each once; A
    qualifies when none of its pairs is <= delta.  At w = 1 that is a clique
    of the qubit-pair graph, under the dense state's own cap; only w >= 2
    scans subsets, capped at n <= 12."""
    _check_threshold(delta)
    n = s.n
    if w != 1 and n > 12:
        raise ResourceGuardError(f"subset scan capped at n <= 12, got n = {n}", name="subset_scan", limit=12, value=n)
    if n < 2 * w:  # no region holds two disjoint size-w subsets
        return 1
    _check_w(w)
    symmetric = _symmetric(s)
    region = tuple(range(n))
    # All qubit pairs in one batch: at w = 1 a batch per first qubit costs
    # more in per-batch work than it saves in memory.
    batches = [list(combinations(combinations(region, 1), 2))] if w == 1 else None
    values = [
        (a1 + a2, v)
        for pairs, results in _pair_pass(s, region, w, symmetric, batches=batches)
        for (a1, a2), (v, _, _) in zip(pairs, results)
    ]
    if symmetric:  # every pair reads as pair 0
        return n if values[0][1] > delta else 1
    if w == 1:
        adj = [0] * n
        for (i, j), v in values:
            if v > delta:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
        return max(1, _max_clique(adj, n))
    weak = [sum(1 << q for q in qubits) for qubits, v in values if not v > delta]
    for size in range(n, 2 * w - 1, -1):
        for qubits in combinations(region, size):
            inside = sum(1 << q for q in qubits)
            if all(m & ~inside for m in weak):
                return size
    return 1


def global_correlation(s: StateVector) -> float:
    """Cor over the full register at w=1 (deterministic pauli-enum value)."""
    return correlation_strength_w(s, range(s.n), 1).value


# -- anti-shallowness ------------------------------------------------------------


def anti_shallowness_lower(s: StateVector) -> float:
    """-log2(1 - Cor^2/36) >= 0; 0 below two qubits, which hold no pair."""
    return 0.0 if s.n < 2 else max(0.0, -math.log2(1 - global_correlation(s) ** 2 / 36))


def _best_product_fidelity(s: StateVector, restarts: int, seed: int) -> float:
    """Alternating single-site ascent on |<product|s>|^2 (local optimum)."""
    rng = np.random.default_rng(seed)
    n = s.n
    tensor = s.amps.reshape([2] * n)
    best = 0.0
    for _ in range(restarts):
        sites = []
        for _ in range(n):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            sites.append(v / np.linalg.norm(v))
        prev = 0.0
        for _ in range(500):
            for q in range(n):
                operands: list = [tensor, list(range(n))]
                for r in range(n):
                    if r != q:
                        operands += [sites[r].conj(), [r]]
                w = np.einsum(*operands, [q])
                norm = float(np.linalg.norm(w))
                if norm > 1e-15:
                    sites[q] = w / norm
            operands = [tensor, list(range(n))]
            for r in range(n):
                operands += [sites[r].conj(), [r]]
            val = abs(complex(np.einsum(*operands, [])))
            if val - prev < 1e-13:
                prev = max(prev, val)
                break
            prev = val
        best = max(best, prev**2)
    return best


def anti_shallowness_upper(
    s: StateVector,
    candidates: Sequence[StateVector] = (),
    product_search: bool = False,
    restarts: int = 8,
    seed: int = 0,
) -> float:
    """min over candidate states of -log2 fidelity (>= 0); optional product search."""
    values = []
    for c in candidates:
        f = fidelity(s, c)
        values.append(math.inf if f == 0 else -math.log2(f))
    if product_search:
        f = _best_product_fidelity(s, restarts, seed)
        values.append(math.inf if f == 0 else -math.log2(f))
    if not values:
        raise ValueError("no candidates and product search disabled")
    return max(0.0, min(values))


def anti_shallowness_continuity(log_fidelity: float, eps: float) -> float:
    """Shallowness bound surviving an eps-infidelity perturbation (clamped at 0)."""
    if not 0 <= eps <= 1:
        raise ValueError("eps must lie in [0, 1]")
    arg = (1 - eps) * 2.0**log_fidelity + eps + 2 * math.sqrt(eps * (1 - eps))
    return max(0.0, -math.log2(arg))


# -- lemma checks ------------------------------------------------------------------


def lemma2_check(t: StabilizerTableau) -> bool:
    """wt_s >= CR_P / sqrt(n) on the tableau's state; the group-table and
    dense-state caps of the two calls bound n."""
    wt_s = stabilizer_weight(t)
    cr = pauli_correlation_range(from_tableau(t))
    return wt_s >= cr / math.sqrt(t.n) - 1e-12
