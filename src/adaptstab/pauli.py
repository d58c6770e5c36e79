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

from itertools import repeat
from typing import Iterable, Iterator, Sequence

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
    "GF2Elimination",
]

_PHASES = (1, 1j, -1, -1j)
_SIGN_TEXT = {0: "+", 1: "+i", 2: "-", 3: "-i"}
_TEXT_SIGN = {"+": 0, "": 0, "+i": 1, "i": 1, "-": 2, "-i": 3}
# The one letter table: a qubit's bits (x, z) print as _LETTERS[x + 2z], and
# parse_pauli reads them back by translating each letter to a binary digit.
_LETTERS = "IXZY"
_PAULI_BITS = {letter: (k & 1, k >> 1) for k, letter in enumerate(_LETTERS) if k}  # (x, z) of a Pauli gate
_PAULI_LETTERS = tuple(_PAULI_BITS)  # compared, not hashed: a gate's pauli may be any JSON value
_DIGIT_LETTERS = str.maketrans("0123", _LETTERS)
_X_DIGITS = str.maketrans(_LETTERS, "0101")  # each letter's x, then z, as a binary digit
_Z_DIGITS = str.maketrans(_LETTERS, "0011")
_NOT_LETTERS = str.maketrans("", "", _LETTERS)  # leaves only the illegal letters


def _bits(v: int) -> Iterator[int]:
    """Indices of the set bits of ``v``, lowest first."""
    while v:
        low = v & -v
        yield low.bit_length() - 1
        v ^= low


def _transpose(vectors: Sequence[int], width: int) -> list[int]:
    """Bit j of ``vectors[i]`` becomes bit i of entry j of the result.

    Vectors are unpacked, transposed and packed again 256 at a time, so only
    one block is ever held one byte per bit: that keeps each block in cache
    and the memory near the packed size at large sizes.  Each output row is
    read off the packed ``(width, k)`` result as one bytes object through an
    ``S{k}`` view, whose dropped trailing NULs are high-order zeros of a
    little-endian int; 256 rows at a time, so a block's bytes are still in
    cache when ``int.from_bytes`` reads them."""
    if not vectors or not width:
        return [0] * width
    nbytes, k = (width + 7) // 8, (len(vectors) + 7) // 8
    rows = np.frombuffer(b"".join([v.to_bytes(nbytes, "little") for v in vectors]), np.uint8).reshape(-1, nbytes)
    packed = np.empty((width, k), np.uint8)
    for i in range(0, len(vectors), 256):
        bits = np.unpackbits(rows[i : i + 256], axis=1, count=width, bitorder="little")
        packed[:, i // 8 : i // 8 + (len(bits) + 7) // 8] = np.packbits(bits.T.copy(), axis=1, bitorder="little")
    block, out = packed.view(f"S{k}").ravel(), []
    for j in range(0, width, 256):
        out += map(int.from_bytes, block[j : j + 256].tolist(), repeat("little"))
    return out


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
        return (self.x & self.z).bit_count()

    @property
    def display_sign(self) -> complex:
        """Sign printed in front of the letter string (``Y`` absorbs one i)."""
        return _PHASES[(self.e - self.y_count) % 4]

    @property
    def hermitian(self) -> bool:
        return (self.e - self.y_count) % 2 == 0

    def weight(self) -> int:
        return (self.x | self.z).bit_count()

    def support(self) -> tuple[int, ...]:
        return tuple(_bits(self.x | self.z))

    def letter(self, q: int) -> str:
        return _LETTERS[(self.x >> q & 1) + 2 * (self.z >> q & 1)]

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
        e = (self.e + other.e + 2 * (self.z & other.x).bit_count()) % 4
        return PauliOperator.from_exponent(
            self.n, self.x ^ other.x, self.z ^ other.z, e
        )

    __mul__ = multiply

    def commutes(self, other: "PauliOperator") -> bool:
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")
        return ((self.x & other.z).bit_count() + (self.z & other.x).bit_count()) % 2 == 0

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
    x, z = (0, 0) if letter == "I" else _PAULI_BITS[letter]
    return PauliOperator.from_exponent(n, x << q, z << q, x & z)


def from_bits(n: int, x: int, z: int, sign: int = 1) -> PauliOperator:
    """Hermitian Pauli with the given bit sets and display sign ``sign``."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    e = ((x & z).bit_count() + (0 if sign == 1 else 2)) % 4
    return PauliOperator.from_exponent(n, x, z, e)


def tensor(p: PauliOperator, q: PauliOperator) -> PauliOperator:
    """``p`` on the low qubits, ``q`` appended above them."""
    return PauliOperator.from_exponent(
        p.n + q.n, p.x | (q.x << p.n), p.z | (q.z << p.n), p.e + q.e
    )


def parse_pauli(text: str) -> PauliOperator:
    """Parse ``[+|-][i]LETTERS`` with letters from ``IXYZ``."""
    if not isinstance(text, str):
        raise ValueError(f"Pauli must be a string, got {text!r}")
    body = text.strip()
    sign = ""
    for prefix in ("+i", "-i", "i", "+", "-"):
        if body.startswith(prefix):
            sign, body = prefix, body[len(prefix):]
            break
    if not body:
        raise ValueError(f"empty Pauli string in {text!r}")
    illegal = body.translate(_NOT_LETTERS)
    if illegal:
        raise ValueError(f"illegal Pauli letter {illegal[0]!r} in {text!r}")
    digits = body[::-1]  # qubit 0 is the last binary digit
    x, z = int(digits.translate(_X_DIGITS), 2), int(digits.translate(_Z_DIGITS), 2)
    return PauliOperator.from_exponent(len(body), x, z, _TEXT_SIGN[sign] + (x & z).bit_count())


def format_pauli(p: PauliOperator) -> str:
    return _SIGN_TEXT[(p.e - p.y_count) % 4] + p.letters()


# -- GF(2) linear algebra ------------------------------------------------


class GF2Elimination:
    """Row echelon form of a GF(2) matrix that grows by rows.

    A new row is reduced by the row of its lowest set pivot column until no
    pivot column is left; the rest pivots on its lowest set bit, and no row
    already held changes.  Each row carries a tag: the mask of input rows
    (bit ``i`` for the ``i``-th added) whose XOR it is, so ``M x = b`` is
    read for any ``b`` by one back substitution, highest pivot first, and
    bit-parallel over right-hand sides (``columns``).
    """

    def __init__(self, cols: int, rows: Iterable[int] = ()):
        self.cols = cols
        self.pivots: dict[int, int] = {}  # column -> index into rows
        self.pivot_mask = 0
        self.rows: list[int] = []  # in the order they pivoted; lowest set bit is the pivot
        self.tags: list[int] = []
        self.dependencies: list[int] = []  # tags of input combinations that vanish
        self.added = 0
        for row in rows:
            self.add(row)

    def add(self, row: int) -> int:
        """Add ``row``.  Returns the tag of what is left of it once reduced,
        or 0 when nothing is (the row is dependent)."""
        tag = 1 << self.added
        self.added += 1
        pivots, rows, tags = self.pivots, self.rows, self.tags
        while hits := row & self.pivot_mask:
            idx = pivots[(hits & -hits).bit_length() - 1]
            row ^= rows[idx]
            tag ^= tags[idx]
        if row == 0:
            self.dependencies.append(tag)
            return 0
        low = row & -row
        pivots[low.bit_length() - 1] = len(rows)
        self.pivot_mask |= low
        rows.append(row)
        tags.append(tag)
        return tag

    def _back_substitute(self, entries: list[int], over: int) -> list[int]:
        """Fix the pivot columns of ``entries`` (bit-parallel over solutions),
        highest first: each takes in the entries of the other columns in
        ``over`` its row holds, so the row meets each solution as its
        pivot column's starting entry says."""
        for col in sorted(self.pivots, reverse=True):
            idx = self.pivots[col]
            for c in _bits(self.rows[idx] & over ^ 1 << col):
                entries[col] ^= entries[c]
        return entries

    def columns(self, mask: int) -> list[int]:
        """Bit j of entry c is column c of the solution of ``M x = e_j``, free
        columns zero, for each input row j in ``mask`` (e_j consistent)."""
        entries = [0] * self.cols
        for col, idx in self.pivots.items():
            entries[col] = self.tags[idx] & mask
        return self._back_substitute(entries, self.pivot_mask)

    def null_basis(self) -> list[int]:
        """One null-space vector per free column, in column order: 1 on its
        column, 0 on the other free columns."""
        free = [c for c in range(self.cols) if not self.pivot_mask >> c & 1]
        entries = [0] * self.cols
        for k, c in enumerate(free):
            entries[c] = 1 << k
        return _transpose(self._back_substitute(entries, -1), len(free))


def gf2_rank(m: Sequence[int]) -> int:
    """Rank of the rows ``m``."""
    return len(GF2Elimination(0, m).pivots)

