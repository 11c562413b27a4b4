"""Words over the alphabet {1..d} and their dense indexing.

A word is a plain tuple of integer letters.  Words of length k over d
letters biject with 0..d**k-1 via positional (base-d) arithmetic, which is
the layout used for dense level tensors.  As text (JSON keys, CLI
arguments) a word is its string of digits when d <= 9 and its letters
joined by "." when d >= 10, so that every word has exactly one text form.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

Word = tuple  # tuple[int, ...]


def check_word(word: Sequence[int], d: int) -> tuple:
    w = tuple(word)
    for letter in w:
        if not 1 <= letter <= d:
            raise ValueError(f"letter {letter} outside alphabet 1..{d}")
    return w


def word_index(word: Sequence[int], d: int) -> int:
    """Dense index of a word: sum of (letter-1) digits base d, big-endian."""
    idx = 0
    for letter in check_word(word, d):
        idx = idx * d + (letter - 1)
    return idx


def index_word(index: int, d: int, k: int) -> tuple:
    """Inverse of word_index for length-k words."""
    if not 0 <= index < d**k:
        raise ValueError(f"index {index} outside 0..{d ** k - 1}")
    letters = []
    for _ in range(k):
        index, digit = divmod(index, d)
        letters.append(digit + 1)
    return tuple(reversed(letters))


def all_words(d: int, k: int) -> Iterator[tuple]:
    """All length-k words in index (= lexicographic) order."""
    return itertools.product(range(1, d + 1), repeat=k)


def word_to_string(word: Sequence[int], d: int) -> str:
    """Text form of a word: its digits for d <= 9, letters joined by '.' for d >= 10."""
    return ("" if d <= 9 else ".").join(str(letter) for letter in word)


def word_from_string(text: str, d: int) -> tuple:
    """Inverse of word_to_string for the same alphabet size d."""
    if text == "":
        return ()
    letters = text if d <= 9 else text.split(".")
    for part in letters:
        if not (part.isascii() and part.isdigit() and part[0] != "0" and int(part) <= d):
            raise ValueError(f"letter {part!r} of word {text!r} is outside 1..{d}")
    return tuple(int(part) for part in letters)
