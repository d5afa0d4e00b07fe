"""Generator symbols, signed letters, words, and free/cyclic reduction.

A word is an immutable sequence of letters; a letter is a generator name
together with a sign.  Nothing here reduces silently: callers ask for
``free_reduce`` / ``cyclic_reduce`` explicitly, and constructors that
promise reduced output (e.g. Presentation) call them eagerly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

INVERSE_MARKER = "^-1"


class WordError(ValueError):
    pass


# Names that have passed check_symbol.  The check depends on the name
# alone, so a name is validated once per process; names that fail are
# never added and raise on every attempt.
_ACCEPTED_SYMBOLS: set[str] = set()


def check_symbol(name: str) -> str:
    """Validate a generator name.  Names must be non-empty, free of
    whitespace and must not contain the inverse marker."""
    if name in _ACCEPTED_SYMBOLS:
        return name
    if not name:
        raise WordError("generator name must be non-empty")
    if "^" in name:
        raise WordError(f"generator name {name!r} contains '^' (reserved for {INVERSE_MARKER})")
    if any(c.isspace() for c in name):
        raise WordError(f"generator name {name!r} contains whitespace")
    _ACCEPTED_SYMBOLS.add(name)
    return name


Letter = tuple[str, int]  # (generator name, +1 or -1)


@dataclass(frozen=True)
class Word:
    """A finite sequence of signed generator letters.

    Not necessarily freely reduced; reducedness is a predicate, not an
    invariant.  Words are immutable and hashable.
    """

    letters: tuple[Letter, ...] = ()

    def __post_init__(self):
        accepted = _ACCEPTED_SYMBOLS
        for name, sign in self.letters:
            if name not in accepted:
                check_symbol(name)
            if sign not in (1, -1):
                raise WordError(f"letter sign must be +1 or -1, got {sign}")

    # -- constructors -------------------------------------------------

    @classmethod
    def empty(cls) -> "Word":
        return cls(())

    @classmethod
    def gen(cls, name: str, exponent: int = 1) -> "Word":
        """The word name^exponent (no reduction needed)."""
        check_symbol(name)
        if exponent >= 0:
            return cls(((name, 1),) * exponent)
        return cls(((name, -1),) * (-exponent))

    @classmethod
    def from_text(cls, text: str) -> "Word":
        """Parse whitespace-separated tokens ``name`` or ``name^-1``."""
        letters = []
        for tok in text.split():
            if tok.endswith(INVERSE_MARKER):
                letters.append((check_symbol(tok[: -len(INVERSE_MARKER)]), -1))
            else:
                letters.append((check_symbol(tok), 1))
        return cls(tuple(letters))

    # -- basic protocol -----------------------------------------------

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        """Concatenation.  Does *not* freely reduce."""
        return Word(self.letters + other.letters)

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return self.inverse() ** (-n)
        return Word(self.letters * n)

    def inverse(self) -> "Word":
        return Word(tuple((g, -s) for g, s in reversed(self.letters)))

    def to_text(self) -> str:
        return " ".join(g if s == 1 else g + INVERSE_MARKER for g, s in self.letters)

    def __str__(self) -> str:
        return self.to_text() if self.letters else "(empty)"

    def symbols(self) -> set[str]:
        return {g for g, _ in self.letters}


def free_reduce(w: Word) -> Word:
    """The unique freely reduced form of ``w`` (stack cancellation)."""
    stack: list[Letter] = []
    for letter in w.letters:
        if stack and stack[-1][0] == letter[0] and stack[-1][1] == -letter[1]:
            stack.pop()
        else:
            stack.append(letter)
    return Word(tuple(stack))


def is_freely_reduced(w: Word) -> bool:
    return w == free_reduce(w)


def cyclic_reduce(w: Word) -> tuple[Word, Word]:
    """Return (core, conjugator) with ``w`` freely equal to
    conjugator * core * conjugator^-1 and core cyclically reduced."""
    reduced = free_reduce(w)
    letters = list(reduced.letters)
    prefix: list[Letter] = []
    while len(letters) >= 2:
        first, last = letters[0], letters[-1]
        if first[0] == last[0] and first[1] == -last[1]:
            prefix.append(first)
            letters = letters[1:-1]
        else:
            break
    return Word(tuple(letters)), Word(tuple(prefix))


def is_cyclically_reduced(w: Word) -> bool:
    core, conj = cyclic_reduce(w)
    return not conj and core == w


def substitute(w: Word, mapping: Mapping[str, Word]) -> Word:
    """Replace each mapped symbol by its image word (inverted for
    negative letters) and freely reduce.

    Images must not mention symbols that are themselves being
    substituted; chained substitution requires separate calls.
    """
    substituted = set(mapping)
    for g, image in mapping.items():
        bad = image.symbols() & substituted
        if bad:
            raise WordError(
                f"image of {g!r} mentions substituted symbol(s) {sorted(bad)}"
            )
    out: list[Letter] = []
    for g, s in w.letters:
        if g in mapping:
            image = mapping[g] if s == 1 else mapping[g].inverse()
            out.extend(image.letters)
        else:
            out.append((g, s))
    return free_reduce(Word(tuple(out)))


def concat(words: Iterable[Word]) -> Word:
    letters: list[Letter] = []
    for w in words:
        letters.extend(w.letters)
    return Word(tuple(letters))


def fresh_symbol(stem: str, taken: set[str]) -> str:
    """``stem`` itself when it is not taken, else the first ``stem_k``
    (k = 1, 2, ...) that is not.  The suffix keeps the name legal in the
    presentation file format, so emitted presentations parse back."""
    if stem not in taken:
        return stem
    k = 1
    while f"{stem}_{k}" in taken:
        k += 1
    return f"{stem}_{k}"


# -- integer encoding ----------------------------------------------------
#
# Several search-heavy modules work over int tuples: generator i maps to
# i+1, its inverse to -(i+1).  This keeps inner loops off string tuples.

IntWord = tuple[int, ...]


def word_to_ints(w: Word, index: Mapping[str, int]) -> IntWord:
    return tuple((index[g] + 1) * s for g, s in w.letters)


def ints_to_word(iw: Iterable[int], names: list[str] | tuple[str, ...]) -> Word:
    return Word(tuple((names[abs(x) - 1], 1 if x > 0 else -1) for x in iw))


def reduce_ints(iw: Iterable[int]) -> IntWord:
    stack: list[int] = []
    for x in iw:
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


def invert_ints(iw: IntWord) -> IntWord:
    return tuple(-x for x in reversed(iw))


def multiply_ints(a: IntWord, b: IntWord) -> IntWord:
    """The freely reduced product ``a b`` of two freely reduced words:
    cancellation can only happen at the seam."""
    n = len(a)
    i = 0
    while i < n and i < len(b) and a[n - 1 - i] == -b[i]:
        i += 1
    return a[: n - i] + b[i:]


def least_rotation(w: tuple, w_inverse: tuple) -> tuple:
    """The least rotation, in tuple order, of ``w`` or of its inverse:
    a canonical representative of the cyclic word up to inversion.

    The caller passes the word and its inverse in its own encoding, so
    the letter order (and hence the representative) is the caller's.
    """
    if not w:
        return w
    return min(v[k:] + v[:k] for v in (w, w_inverse) for k in range(len(v)))
