"""The one letter table and the one size-name splitter, against the parsers
they replaced (``helpers_parsers``).

``parse_pauli`` must give the same operator, or the same ValueError
message, as the per-letter parser on any text: signs, whitespace, letters
and illegal characters mixed.  ``tableau._split_name`` must read ``name(N)``
and bare names as ``prep.builtin_code`` and the tolerance table's old family
reader did, and ``nameN`` as the command line did, so both spellings name
the same code or tableau everywhere.  Where the old readers raised int()'s
bare ValueError on a size that is not an integer, the new message names the
text it read.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptstab.pauli import format_pauli, parse_pauli
from adaptstab.prep import builtin_code
from adaptstab.tableau import _split_name
from helpers_parsers import reference_cli_split, reference_code_split, reference_family_split, reference_parse_pauli

_PREFIXES = ("", "+", "-", "i", "+i", "-i")
_SPACE = st.text(" \t\n\u3000", max_size=2)
# Letters drawn more often than the illegal characters, so most strings get
# some way into the body before an illegal one stops them.
_BODY = st.text(st.one_of(st.sampled_from("IXYZ"), st.sampled_from("IXYZ"), st.characters()), max_size=12)
_PAULI_TEXT = st.tuples(_SPACE, st.sampled_from(_PREFIXES), _BODY, _SPACE).map("".join)
_SIZE = st.one_of(st.just(""), st.text("0123456789", min_size=1, max_size=3), st.text("0123456789 x-+", max_size=4).map("({})".format))
_NAMES = st.tuples(_SPACE, st.text("dghiktzwDGHZ", max_size=6), _SIZE, _SPACE).map("".join)


def outcome(parse, text):
    """What ``parse(text)`` returns, or the message of the ValueError it raises."""
    try:
        return parse(text)
    except ValueError as exc:
        return ("ValueError", str(exc))


@settings(max_examples=600, deadline=None)
@given(_PAULI_TEXT)
def test_parse_pauli_matches_per_letter_parser(text):
    assert outcome(parse_pauli, text) == outcome(reference_parse_pauli, text)


@pytest.mark.parametrize("n", [1, 4, 128, 1152, 8192])
def test_parse_pauli_matches_per_letter_parser_on_long_strings(n):
    rng = np.random.default_rng(n)
    for prefix in _PREFIXES:
        body = "".join(rng.choice(list("IXYZ"), n))
        p = parse_pauli(prefix + body)
        assert p == reference_parse_pauli(prefix + body)
        assert parse_pauli(format_pauli(p)) == p
        bad = prefix + body[: n // 2] + "x" + body[n // 2 :]
        assert outcome(parse_pauli, bad) == outcome(reference_parse_pauli, bad)


@settings(max_examples=600, deadline=None)
@given(_NAMES)
def test_split_name_reads_both_spellings_as_the_old_splitters(name):
    old = outcome(reference_code_split, name)
    assert outcome(lambda text: reference_family_split(text, None), name) == old
    cli = reference_cli_split(name)
    if cli is None and old[0] == "ValueError" and isinstance(old[1], str):
        # The old readers passed int()'s message on; the size is named with its text.
        size = name.strip().lower()[:-1].split("(", 1)[1].strip()
        assert outcome(_split_name, name) == ("ValueError", f"size in {name!r} is not an integer: {size!r}")
    elif cli is None:
        assert outcome(_split_name, name) == old
    else:  # nameN: the parenthesis readers took it for a bare name
        assert old == (name.strip().lower(), None)
        assert _split_name(name) == cli


def test_both_spellings_name_the_same_thing():
    assert builtin_code("toric4") == builtin_code("toric(4)")
    assert builtin_code(" Repetition5") == builtin_code("repetition(5)")


def test_non_integer_size_names_the_text():
    with pytest.raises(ValueError) as info:
        builtin_code("toric( x)")
    assert str(info.value) == "size in 'toric( x)' is not an integer: 'x'"
