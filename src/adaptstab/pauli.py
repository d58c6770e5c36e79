"""Signed Pauli operators and GF(2) linear algebra.

Conventions used throughout the package:

* An n-qubit Pauli is stored as ``phase * prod_j X_j^{x_j} Z_j^{z_j}`` with
  the X factor to the left of the Z factor on every site.  ``x`` and ``z``
  are Python integers used as bit sets; bit ``j`` (that is ``1 << j``)
  belongs to qubit ``j``.
* The phase is a power of ``i`` and multiplies the X-before-Z product.  In
  this convention the display string ``"+Y"`` is stored with phase ``+i``
  because ``Y = i X Z``.  ``format_pauli`` always prints the display sign
  (``+``, ``-``, ``+i``, ``-i``) followed by one letter per qubit.
* GF(2) matrices are lists of row integers; column ``j`` is bit ``j``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "PauliOperator",
    "identity",
    "single_site",
    "from_bits",
    "tensor",
    "parse_pauli",
    "format_pauli",
    "gf2_rank",
    "gf2_solve",
    "GF2Elimination",
    "GF2Solution",
]

_PHASES = (1, 1j, -1, -1j)
_SIGN_TEXT = {0: "+", 1: "+i", 2: "-", 3: "-i"}
_TEXT_SIGN = {"+": 0, "": 0, "+i": 1, "i": 1, "-": 2, "-i": 3}
_DIGIT_LETTERS = str.maketrans("0123", "IXZY")


def _popcount(v: int) -> int:
    return v.bit_count()


def _bits(v: int) -> Iterator[int]:
    """Indices of the set bits of ``v``, lowest first."""
    while v:
        low = v & -v
        yield low.bit_length() - 1
        v ^= low


def _transpose(vectors: Sequence[int], width: int) -> list[int]:
    """Bit j of ``vectors[i]`` becomes bit i of entry j of the result.

    The unpacked bits are copied into the transpose 256 rows at a time, which
    keeps each block's reads and writes in cache at large sizes."""
    if not vectors or not width:
        return [0] * width
    nbytes = (width + 7) // 8
    buf = b"".join(v.to_bytes(nbytes, "little") for v in vectors)
    bits = np.unpackbits(
        np.frombuffer(buf, np.uint8).reshape(len(vectors), nbytes), axis=1, count=width, bitorder="little"
    )
    out = np.empty((width, len(vectors)), np.uint8)
    for i in range(0, len(vectors), 256):
        out[:, i : i + 256] = bits[i : i + 256].T
    packed = np.packbits(out, axis=1, bitorder="little")
    k, data = packed.shape[1], packed.tobytes()
    return [int.from_bytes(data[j * k : (j + 1) * k], "little") for j in range(width)]


class PauliOperator:
    """A signed Pauli operator on ``n`` qubits.

    ``phase`` is the coefficient of the X-before-Z bit-set form and is one
    of ``1, -1, 1j, -1j``.  Use :func:`format_pauli` / ``str(P)`` for the
    human-readable letter form with its display sign.
    """

    __slots__ = ("n", "x", "z", "e")

    def __init__(self, n: int, x: int, z: int, phase: complex = 1):
        if n < 1:
            raise ValueError(f"need at least one qubit, got n={n}")
        mask = (1 << n) - 1
        if x & ~mask or z & ~mask:
            raise ValueError("bit set extends beyond n qubits")
        try:
            e = _PHASES.index(phase)
        except ValueError:
            raise ValueError(f"phase must be a power of i, got {phase!r}") from None
        self.n = n
        self.x = x
        self.z = z
        self.e = e

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_exponent(n: int, x: int, z: int, e: int) -> "PauliOperator":
        p = PauliOperator(n, x, z)
        p.e = e % 4
        return p

    # -- basic structure ----------------------------------------------

    @property
    def phase(self) -> complex:
        return _PHASES[self.e]

    @property
    def y_count(self) -> int:
        """Number of sites carrying both an X and a Z factor."""
        return _popcount(self.x & self.z)

    @property
    def display_sign(self) -> complex:
        """Sign printed in front of the letter string (``Y`` absorbs one i)."""
        return _PHASES[(self.e - self.y_count) % 4]

    @property
    def hermitian(self) -> bool:
        return (self.e - self.y_count) % 2 == 0

    def weight(self) -> int:
        return _popcount(self.x | self.z)

    def support(self) -> tuple[int, ...]:
        return tuple(_bits(self.x | self.z))

    def letter(self, q: int) -> str:
        xb, zb = (self.x >> q) & 1, (self.z >> q) & 1
        return "IXZY"[xb + 2 * zb]

    def letters(self) -> str:
        # Each bit string read as hex puts qubit q's x_q + 2 z_q in hex digit q.
        digits = int(format(self.x, "b"), 16) + 2 * int(format(self.z, "b"), 16)
        return format(digits, f"0{self.n}x").translate(_DIGIT_LETTERS)[::-1]

    def is_identity_bits(self) -> bool:
        return self.x == 0 and self.z == 0

    # -- algebra --------------------------------------------------------

    def multiply(self, other: "PauliOperator") -> "PauliOperator":
        """Exact product ``self * other``.

        Moving ``other``'s X block through ``self``'s Z block contributes
        ``(-1)^{|z_self & x_other|}``; everything else is bitwise XOR.
        """
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")
        e = (self.e + other.e + 2 * _popcount(self.z & other.x)) % 4
        return PauliOperator.from_exponent(
            self.n, self.x ^ other.x, self.z ^ other.z, e
        )

    __mul__ = multiply

    def commutes(self, other: "PauliOperator") -> bool:
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")
        return (_popcount(self.x & other.z) + _popcount(self.z & other.x)) % 2 == 0

    def dagger(self) -> "PauliOperator":
        return PauliOperator.from_exponent(
            self.n, self.x, self.z, -self.e + 2 * self.y_count
        )

    def negate(self) -> "PauliOperator":
        return PauliOperator.from_exponent(self.n, self.x, self.z, self.e + 2)

    def embed(self, m: int, offset: int = 0) -> "PauliOperator":
        """The same operator viewed on an ``m``-qubit register at ``offset``."""
        if offset < 0 or offset + self.n > m:
            raise ValueError("embedding does not fit the target register")
        return PauliOperator.from_exponent(
            m, self.x << offset, self.z << offset, self.e
        )

    def symplectic_row(self) -> int:
        """Bits ``(x | z << n)`` as one integer row for rank computations."""
        return self.x | (self.z << self.n)

    # -- value semantics -----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PauliOperator):
            return NotImplemented
        return (self.n, self.x, self.z, self.e) == (other.n, other.x, other.z, other.e)

    def __hash__(self) -> int:
        return hash((self.n, self.x, self.z, self.e))

    def __repr__(self) -> str:
        return f"PauliOperator({format_pauli(self)!r})"

    def __str__(self) -> str:
        return format_pauli(self)


def identity(n: int) -> PauliOperator:
    return PauliOperator(n, 0, 0)


def single_site(n: int, q: int, letter: str) -> PauliOperator:
    """``letter`` on qubit ``q``, identity elsewhere, display sign +1."""
    if not 0 <= q < n:
        raise ValueError(f"qubit {q} out of range for n={n}")
    x, z, e = {"I": (0, 0, 0), "X": (1, 0, 0), "Z": (0, 1, 0), "Y": (1, 1, 1)}[letter]
    return PauliOperator.from_exponent(n, x << q, z << q, e)


def from_bits(n: int, x: int, z: int, sign: int = 1) -> PauliOperator:
    """Hermitian Pauli with the given bit sets and display sign ``sign``."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    e = (_popcount(x & z) + (0 if sign == 1 else 2)) % 4
    return PauliOperator.from_exponent(n, x, z, e)


def tensor(p: PauliOperator, q: PauliOperator) -> PauliOperator:
    """``p`` on the low qubits, ``q`` appended above them."""
    return PauliOperator.from_exponent(
        p.n + q.n, p.x | (q.x << p.n), p.z | (q.z << p.n), p.e + q.e
    )


def parse_pauli(text: str) -> PauliOperator:
    """Parse ``[+|-][i]LETTERS`` with letters from ``IXYZ``."""
    body = text.strip()
    sign = ""
    for prefix in ("+i", "-i", "i", "+", "-"):
        if body.startswith(prefix):
            sign, body = prefix, body[len(prefix):]
            break
    if not body:
        raise ValueError(f"empty Pauli string in {text!r}")
    x = z = y = 0
    for j, ch in enumerate(body):
        if ch == "I":
            continue
        elif ch == "X":
            x |= 1 << j
        elif ch == "Z":
            z |= 1 << j
        elif ch == "Y":
            x |= 1 << j
            z |= 1 << j
            y += 1
        else:
            raise ValueError(f"illegal Pauli letter {ch!r} in {text!r}")
    e = (_TEXT_SIGN[sign] + y) % 4
    return PauliOperator.from_exponent(len(body), x, z, e)


def format_pauli(p: PauliOperator) -> str:
    return _SIGN_TEXT[(p.e - p.y_count) % 4] + p.letters()


# -- GF(2) linear algebra ------------------------------------------------


class GF2Elimination:
    """Fully reduced row echelon form of a GF(2) matrix that grows by rows.

    A new row is reduced by the pivot rows; if anything is left it pivots on
    its lowest set bit, which is then cleared from every other pivot row.
    Each pivot row carries a tag: the mask of input rows (bit ``i`` for the
    ``i``-th row added) whose XOR it is.  The reduced rows never depend on a
    right-hand side, so ``M x = b`` is read from the tags for any ``b``
    without eliminating again.  ``holders`` maps each free column to the
    mask of pivot rows that have it set, so clearing a new pivot touches only
    those rows.  A reduced row's lowest set bit is its pivot column.
    """

    def __init__(self, cols: int, rows: Iterable[int] = ()):
        self.cols = cols
        self.pivots: dict[int, int] = {}  # column -> index into reduced
        self.pivot_mask = 0
        self.reduced: list[int] = []
        self.tags: list[int] = []
        self.holders: dict[int, int] = {}  # free column -> mask of reduced rows with it
        self.dependencies: list[int] = []  # tags of input combinations that vanish
        self.added = 0
        for row in rows:
            self.add(row)

    def add(self, row: int) -> int:
        """Add ``row``.  Returns the null vector, before this row, of the new
        pivot column: that column plus the pivot columns whose rows carried
        it (the rows cleared below).  Returns 0 when the row is dependent."""
        tag = 1 << self.added
        self.added += 1
        # Pivot rows are fully reduced, so clearing one pivot column leaves
        # the row's other pivot columns alone.
        hits = row & self.pivot_mask
        while hits:
            idx = self.pivots[(hits & -hits).bit_length() - 1]
            row ^= self.reduced[idx]
            tag ^= self.tags[idx]
            hits &= hits - 1
        if row == 0:
            self.dependencies.append(tag)
            return 0
        low = null = row & -row
        col, new = low.bit_length() - 1, len(self.reduced)
        hits = self.holders.pop(col, 0)
        for idx in _bits(hits):
            r = self.reduced[idx]
            self.reduced[idx] = r ^ row
            self.tags[idx] ^= tag
            null |= r & -r
        # The rows in hits flip on every other column of row; the new row holds them all.
        for c in _bits(row ^ low):
            self.holders[c] = self.holders.get(c, 0) ^ hits ^ 1 << new
        self.pivots[col] = new
        self.pivot_mask |= low
        self.reduced.append(row)
        self.tags.append(tag)
        return null

    def solve(self, rhs: int) -> int | None:
        """Solution of ``M x = b`` with every free column zero, or None when
        inconsistent.  Bit ``i`` of ``rhs`` is the entry of ``b`` for the
        ``i``-th row added."""
        if any((dep & rhs).bit_count() & 1 for dep in self.dependencies):
            return None
        x = 0
        for col, idx in self.pivots.items():
            if (self.tags[idx] & rhs).bit_count() & 1:
                x |= 1 << col
        return x

    def solve_chain(self, count: int, row_of: Callable[[int], int]) -> list[int]:
        """Solutions x_0 .. x_{count-1}, free columns zero, where x_i solves
        ``M x = e_i`` once the rows ``row_of(x_0)`` .. ``row_of(x_{i-1})``
        have joined M.  The rows must stay independent.

        Every x_j is read from the tags by one transpose.  When row r joins
        with null vector w (see ``add``), each later x_j with r.x_j = 1
        becomes x_j ^ w: that still meets the earlier equations and is zero
        on every column still free, and now meets r, so it is the new
        free-zero solution.  The solutions are also kept by column, so the
        x_j that meet r are found from r's columns alone.
        """
        if self.dependencies:
            raise ValueError("rows are dependent")
        rhs = (1 << count) - 1
        # by_column[c] has bit j when x_j has column c
        by_column = [self.tags[self.pivots[c]] & rhs if c in self.pivots else 0 for c in range(self.cols)]
        sols = _transpose(by_column, count)
        for i in range(count):
            row = row_of(sols[i])
            null = self.add(row)
            if not null:
                raise ValueError(f"row {i} of the chain is dependent")
            meets = 0
            for c in _bits(row):
                meets ^= by_column[c]
            meets &= -2 << i  # the later solutions
            for j in _bits(meets):
                sols[j] ^= null
            for c in _bits(null):
                by_column[c] ^= meets
        return sols

    def null_basis(self) -> list[int]:
        """One null-space vector per free column, in column order."""
        basis = []
        for col in range(self.cols):
            if col in self.pivots:
                continue
            vec = 1 << col
            for idx in _bits(self.holders.get(col, 0)):
                vec |= self.reduced[idx] & -self.reduced[idx]
            basis.append(vec)
        return basis


@dataclass
class GF2Solution:
    """One particular solution plus a null-space basis (free columns zeroed)."""

    particular: int
    null_basis: list[int]

    def solutions(self) -> Iterable[int]:
        """All solutions (use only when the null space is small)."""
        for mask in range(1 << len(self.null_basis)):
            x = self.particular
            for i, v in enumerate(self.null_basis):
                if (mask >> i) & 1:
                    x ^= v
            yield x


def gf2_rank(m: Sequence[int], cols: int | None = None) -> int:
    """Rank of the rows ``m`` (``cols`` does not change it)."""
    return len(GF2Elimination(cols or 0, m).reduced)


def gf2_solve(m: Sequence[int], b: Sequence[int], cols: int) -> GF2Solution | None:
    """Solve ``M x = b`` over GF(2).

    Returns ``None`` when inconsistent; otherwise the particular solution is
    the one with every free variable set to zero, so repeated calls are
    deterministic.
    """
    if len(b) != len(m):
        raise ValueError(f"rhs length {len(b)} != row count {len(m)}")
    elim = GF2Elimination(cols, m)
    particular = elim.solve(sum((int(v) & 1) << i for i, v in enumerate(b)))
    if particular is None:
        return None
    return GF2Solution(particular, elim.null_basis())
