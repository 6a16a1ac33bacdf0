"""Binary words and adjacent-pair transition profiles.

Words are immutable and bit-packed: the first symbol is the most significant
bit of the packed value, so on equal lengths integer order coincides with
lexicographic order.  Code indexes words 0-based; the 1-based positions used
by error patterns, alignments, and reports are converted exactly once, at
those interfaces.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Union

BitsLike = Union[str, Iterable[int], "Word"]


class Word:
    """Immutable binary sequence over {0, 1}."""

    __slots__ = ("_n", "_v")

    def __init__(self, bits: BitsLike = "") -> None:
        if isinstance(bits, Word):
            self._n, self._v = bits._n, bits._v
        elif isinstance(bits, str):
            bad = bits.lstrip("01")  # int() alone would take "0_1", "+01", " 01", "0b1", ...
            if bad:
                raise ValueError(f"invalid symbol {bad[0]!r} in word {bits!r}")
            self._n, self._v = len(bits), int(bits or "0", 2)
        else:
            n = v = 0
            for b in bits:
                if b not in (0, 1):
                    raise ValueError(f"invalid bit {b!r}")
                v = (v << 1) | b
                n += 1
            self._n, self._v = n, v

    @classmethod
    def from_int(cls, value: int, length: int) -> "Word":
        """Word of the given length whose packed value is ``value``."""
        if length < 0:
            raise ValueError("length must be non-negative")
        if value < 0 or value >> length:
            raise ValueError(f"value {value} does not fit in {length} bits")
        w = cls.__new__(cls)
        w._n = length
        w._v = value
        return w

    @property
    def value(self) -> int:
        return self._v

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(self._n)
            if step != 1:
                raise ValueError("words support only contiguous slices")
            if stop <= start:
                return Word.from_int(0, 0)
            width = stop - start
            return Word.from_int((self._v >> (self._n - stop)) & ((1 << width) - 1), width)
        if index < 0:
            index += self._n
        if not 0 <= index < self._n:
            raise IndexError("word index out of range")
        return (self._v >> (self._n - 1 - index)) & 1

    def __iter__(self) -> Iterator[int]:
        v, n = self._v, self._n
        for i in range(n - 1, -1, -1):
            yield (v >> i) & 1

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self._n == other._n and self._v == other._v

    def __hash__(self) -> int:
        return hash((self._n, self._v))

    def __str__(self) -> str:
        return format(self._v, f"0{self._n}b") if self._n else ""

    def __repr__(self) -> str:
        return f"Word('{self}')"


def pad(x: Word) -> Word:
    """Surround a word with a leading and a trailing 0."""
    return Word.from_int(x.value << 1, len(x) + 2)


def adjacency_count(x: Word) -> int:
    """Number of adjacent positions holding unequal symbols (01 or 10 pairs)."""
    n = len(x)
    if n <= 1:
        return 0
    v = x.value
    return ((v ^ (v >> 1)) & ((1 << (n - 1)) - 1)).bit_count()


def adjacency_profile(x: Word) -> tuple[int, ...]:
    """Adjacency count of every prefix of ``x``; rejects the empty word."""
    if len(x) == 0:
        raise ValueError("profile of the empty word is undefined")
    out = []
    count = 0
    prev = None
    for b in x:
        if prev is not None and b != prev:
            count += 1
        prev = b
        out.append(count)
    return tuple(out)


def parse_word(text: str, lineno: int | None = None) -> Word:
    """Parse one serialized word (a line of '0'/'1' characters)."""
    stripped = text.strip()
    try:
        return Word(stripped)
    except ValueError as exc:
        where = f" on line {lineno}" if lineno is not None else ""
        raise ValueError(f"{exc}{where}") from None
