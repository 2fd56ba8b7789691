"""Words, cylinders, and finite-memory potentials on the full shift.

Symbols are 1..d (matching the usual cylinder notation); a word of length m
is a tuple of symbols.  A memory-m potential assigns a value to each length-m
word, i.e. it depends on the first m coordinates of a point.  Words index
into flat arrays via ``word_index`` (lexicographic, first symbol most
significant); ``drop_last``, ``drop_first``, ``prefix_index`` and ``prepend``
map word indices, single or numpy arrays, by integer arithmetic.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
from dataclasses import dataclass

import numpy as np

from .errors import SizeGuardError


def all_words(d: int, m: int) -> list[tuple[int, ...]]:
    """All words of length m over symbols 1..d, lexicographic order."""
    return list(itertools.product(range(1, d + 1), repeat=m))


def word_index(word: tuple[int, ...], d: int) -> int:
    """Flat index of a word: sum (s_i - 1) d^(m-i)."""
    idx = 0
    for s in word:
        if not 1 <= s <= d:
            raise ValueError(f"symbol {s} outside 1..{d}")
        idx = idx * d + (s - 1)
    return idx


def index_word(idx: int, d: int, m: int) -> tuple[int, ...]:
    """Inverse of word_index."""
    if not 0 <= idx < d**m:
        raise ValueError(f"index {idx} outside range for d={d}, m={m}")
    out = []
    for _ in range(m):
        out.append(idx % d + 1)
        idx //= d
    return tuple(reversed(out))


def drop_last(idx, d: int):
    """Index of a word with its last symbol removed."""
    return idx // d


def drop_first(idx, d: int, r: int):
    """Index of an r-word with its first symbol removed."""
    return idx % d ** (r - 1)


def prefix_index(idx, d: int, r: int, m: int):
    """Index of the length-m prefix of an r-word, m <= r."""
    if m > r:
        raise ValueError(f"prefix length {m} exceeds word length {r}")
    return idx // d ** (r - m)


def prepend(a, idx, d: int, r: int):
    """Index of the (r+1)-word a.x for the r-word x at ``idx``, a in 1..d."""
    return (a - 1) * d**r + idx


def word_distance(x: tuple[int, ...], y: tuple[int, ...], theta: float = 0.5) -> float:
    """theta^(first index where the words differ); 0 if equal up to min length."""
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0,1)")
    n = min(len(x), len(y))
    for i in range(n):
        if x[i] != y[i]:
            return theta**i
    return 0.0 if len(x) == len(y) else theta**n


@dataclass(frozen=True)
class Potential:
    """Finite-memory potential on the full shift over d symbols.

    values[word_index(w, d)] is the value on the cylinder [w], |w| = memory.
    """

    d: int
    memory: int
    values: np.ndarray

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("need at least two symbols")
        if self.memory < 1:
            raise ValueError("memory must be >= 1")
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.d**self.memory,):
            raise ValueError(
                f"expected {self.d ** self.memory} values for d={self.d}, "
                f"memory={self.memory}; got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("potential values must be finite")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    # -- evaluation ---------------------------------------------------------

    @functools.cached_property
    def _value_list(self) -> list[float]:
        # built on first use: workloads that never sum windows skip the copy
        return self.values.tolist()

    def value(self, word: tuple[int, ...]) -> float:
        """Value on any word with len(word) >= memory (uses the prefix)."""
        if len(word) < self.memory:
            raise ValueError(f"word shorter than memory {self.memory}: {word}")
        return float(self.values[word_index(word[: self.memory], self.d)])

    def birkhoff_sum(self, word: tuple[int, ...]) -> float:
        """Sum of the potential along the orbit prefix of a length-n word.

        Requires len(word) >= memory + n - 1 shifts to stay inside the word;
        here the convention is the n = len(word) - memory + 1 term sum, i.e.
        every window of length ``memory`` contributes once.
        """
        m, d = self.memory, self.d
        if len(word) < m:
            raise ValueError("word shorter than memory")
        # roll the window index one symbol at a time: drop the oldest symbol
        # (mod d^(m-1)) and append the next; adds run in window order
        vals, wrap = self._value_list, d ** (m - 1)
        word = list(map(operator.index, word))  # numpy integer symbols to int
        idx = word_index(word[: m - 1], d)
        total = 0.0
        for s in word[m - 1 :]:
            if not 1 <= s <= d:
                raise ValueError(f"symbol {s} outside 1..{d}")
            idx = idx % wrap * d + (s - 1)
            total += vals[idx]
        return total

    def birkhoff_table(self, n: int) -> np.ndarray:
        """Birkhoff sums over all words of length n + memory - 1 (n windows)."""
        m = self.memory
        if n < 1:
            raise ValueError("need at least one window")
        length = n + m - 1
        if self.d**length > 4_000_000:
            raise SizeGuardError(f"birkhoff_table would enumerate {self.d ** length} words")
        # window t is the last m symbols of the (m + t)-prefix; adds run in
        # window order from 0.0, as in birkhoff_sum
        idx = np.arange(self.d**length)
        out = np.zeros(self.d**length)
        for t in range(n):
            out += self.values[prefix_index(idx, self.d, length, m + t) % self.d**m]
        return out

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {"d": self.d, "memory": self.memory, "values": [float(v) for v in self.values]}
        )

    @classmethod
    def from_json(cls, text: str) -> "Potential":
        """Parse {"d","memory","values"} or the named form {"values_named"}.

        The named form maps words written as digit strings ("11", "12", ...)
        to values; d and memory are inferred.  Digits restrict it to d <= 9.
        """
        obj = json.loads(text)
        if "values_named" in obj:
            named = obj["values_named"]
            if not named:
                raise ValueError("values_named is empty")
            keys = sorted(named)
            m = len(keys[0])
            if any(len(k) != m for k in keys):
                raise ValueError("all named words must share one length")
            d = max(int(ch) for k in keys for ch in k)
            if d > 9:
                raise ValueError("named form supports at most 9 symbols")
            if len(keys) != d**m:
                raise ValueError(f"expected {d ** m} named words, got {len(keys)}")
            vals = np.empty(d**m)
            for k, v in named.items():
                word = tuple(int(ch) for ch in k)
                vals[word_index(word, d)] = float(v)
            return cls(d=d, memory=m, values=vals)
        return cls(d=int(obj["d"]), memory=int(obj["memory"]), values=np.asarray(obj["values"], float))

    @classmethod
    def constant(cls, d: int, value: float, memory: int = 1) -> "Potential":
        return cls(d=d, memory=memory, values=np.full(d**memory, float(value)))

    def context_length(self) -> int:
        """Length k of the conditioning context: max(memory - 1, 1)."""
        return max(self.memory - 1, 1)


def preimage_words(word: tuple[int, ...], d: int) -> list[tuple[int, ...]]:
    """The d one-step shift preimages a.word of a word."""
    return [(a, *word) for a in range(1, d + 1)]
