"""Earlier text parsers, kept as oracles for the code that replaced them.

``reference_parse_pauli`` is ``pauli.parse_pauli`` as it was before it read
the x and z bit strings by translating the letters: one letter at a time,
with its own letter -> bits branches.

The three splitters below are the size-name readers that
``tableau._split_name`` replaced: ``prep.builtin_code`` and the tolerance
table's family reader (``dicke(2)``; the table now reads state specs) read
only ``name(N)``, and the command line read
only ``nameN`` (``reference_cli_split``, the regex its ``_normalize_name``
and ``_builtin_tableau`` shared).
"""

from __future__ import annotations

import re

from adaptstab.pauli import PauliOperator


def reference_parse_pauli(text: str) -> PauliOperator:
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
    e = ({"+": 0, "": 0, "+i": 1, "i": 1, "-": 2, "-i": 3}[sign] + y) % 4
    return PauliOperator.from_exponent(len(body), x, z, e)


def reference_code_split(name: str) -> tuple[str, int | None]:
    """``prep.builtin_code``'s reading of ``name`` before its lookup."""
    key = name.strip().lower()
    arg = None
    if "(" in key and key.endswith(")"):
        base, raw = key[:-1].split("(", 1)
        key, arg = base.strip(), int(raw)
    return key, arg


def reference_family_split(family: str, k: int | None) -> tuple[str, int | None]:
    """The tolerance table's old reading of ``family`` before its checks."""
    name = family.strip().lower()
    if "(" in name and name.endswith(")"):
        base, arg = name[:-1].split("(", 1)
        name = base.strip()
        k = int(arg)
    return name, k


def reference_cli_split(name: str) -> tuple[str, int] | None:
    """The command line's ``nameN`` reading, or None where it did not match."""
    m = re.fullmatch(r"([a-z]+)(\d+)", name.strip().lower())
    return (m.group(1), int(m.group(2))) if m else None
