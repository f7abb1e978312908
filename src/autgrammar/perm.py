"""Permutations in one-line image form, and integer words.

A Permutation stores the image tuple (image[i-1] = alpha(i)); a Word is a
plain sequence over an integer alphabet.  The two are distinct types even
when a word happens to spell out a permutation; conversion is explicit and
validated.
"""

from __future__ import annotations

from functools import total_ordering

from . import _Value


class PermError(Exception):
    pass


@total_ordering
class _Record(_Value):
    """A `_Value` of one tuple field, read through `_key`: its `_values()`
    is `(field,)`, as for a frozen dataclass, and it orders as the field
    (`total_ordering` derives `<=`, `>` and `>=` from `__lt__`)."""

    __slots__ = ()

    def _values(self):
        return (self._key(),)

    # `_Value.__eq__` minus the one-tuples, for hot set lookups; it unsets __hash__
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    __hash__ = _Value.__hash__

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self._key() < other._key()
        return NotImplemented


class Permutation(_Record):
    __slots__ = ("image",)

    def __init__(self, image: tuple[int, ...]):
        image = tuple(image)
        n = len(image)
        if sorted(image) != list(range(1, n + 1)):
            raise PermError(f"not a bijection of 1..{n}: {image}")
        object.__setattr__(self, "image", image)

    def _key(self):
        return self.image

    @property
    def size(self) -> int:
        return len(self.image)

    def __call__(self, i: int) -> int:
        return self.image[i - 1]

    def __repr__(self):
        return f"Permutation({self.image})"


def identity(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


def compose(b: Permutation, g: Permutation) -> Permutation:
    """b after g: the result sends i to b(g(i))."""
    if b.size != g.size:
        raise PermError(f"size mismatch: {b.size} vs {g.size}")
    return Permutation(tuple(b.image[g.image[i] - 1] for i in range(g.size)))


def inverse(a: Permutation) -> Permutation:
    img = [0] * a.size
    for i, v in enumerate(a.image):
        img[v - 1] = i + 1
    return Permutation(tuple(img))


class Word(_Record):
    __slots__ = ("symbols",)

    def __init__(self, symbols: tuple[int, ...]):
        object.__setattr__(self, "symbols", tuple(symbols))

    def _key(self):
        return self.symbols

    def __len__(self):
        return len(self.symbols)

    def __repr__(self):
        return f"Word({self.symbols})"


def to_string_word(a: Permutation) -> Word:
    """The one-line string of a: alpha(1) alpha(2) ... alpha(n)."""
    return Word(a.image)


def permute_word(w: Word, a: Permutation) -> Word:
    """Reposition w by a: result_i = w_{a(i)}."""
    if len(w) != a.size:
        raise PermError(f"length mismatch: word {len(w)} vs permutation {a.size}")
    return Word(tuple(w.symbols[a.image[i] - 1] for i in range(a.size)))


def restrict(a: Permutation, n: int) -> Permutation:
    """Restriction of a to 1..n; requires a to map that set onto itself."""
    img = a.image[:n]
    if sorted(img) != list(range(1, n + 1)):
        raise PermError(f"{a.image} does not stabilize 1..{n}")
    return Permutation(img)


def parse_permutation(text: str) -> Permutation:
    try:
        img = tuple(int(tok) for tok in text.split())
    except ValueError:
        raise PermError(f"non-integer token in permutation {text!r}") from None
    return Permutation(img)


def format_permutation(a: Permutation) -> str:
    return " ".join(map(str, a.image))


def parse_word(text: str) -> Word:
    try:
        return Word(tuple(int(tok) for tok in text.split()))
    except ValueError:
        raise PermError(f"non-integer token in word {text!r}") from None


def format_word(w: Word) -> str:
    return " ".join(map(str, w.symbols))
