"""Generator symbols, signed letters, words, and free/cyclic reduction.

A word is an immutable sequence of letters; a letter is a generator name
together with a sign.  Nothing here reduces silently: callers ask for
``free_reduce`` / ``cyclic_reduce`` explicitly, and constructors that
promise reduced output (e.g. Presentation) call them eagerly.

Letters are checked where they enter (``Word(...)``, ``gen``,
``from_text``); words derived from checked words are built unchecked.
``check_symbol`` is the one rule for a generator name, the presentation
file format's ``[A-Za-z0-9_.]+``, so every checked name serializes and
parses back.  ``cyclic_key`` is the one canonical form of a cyclic int
word up to inversion.

``Word``, ``freeprod.NormalForm`` and ``torsion.TorsionCertificate``,
built by the ten thousand, are slotted, and their ``__init__`` stores
each field through its slot descriptor, cheaper than the frozen
``object.__setattr__``.  The other dataclasses are built too rarely to
repay that code or ``slots=True``, which rebuilds a class at import.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping

INVERSE_MARKER = "^-1"


class WordError(ValueError):
    pass


# The one generator-name rule, the presentation file format's.
_SYMBOL_RE = re.compile(r"[A-Za-z0-9_.]+")

# Names that have passed check_symbol.  The check depends on the name
# alone, so a cached name is not checked again; names that fail are
# never added and raise on every attempt.  The set is emptied when it
# reaches _ACCEPTED_SYMBOLS_CAP names, which bounds its memory.
_ACCEPTED_SYMBOLS: set[str] = set()
_ACCEPTED_SYMBOLS_CAP = 4096


def check_symbol(name: str) -> str:
    """Validate a generator name: one or more ASCII letters, digits,
    ``_`` or ``.``, the names the presentation file format reads."""
    if isinstance(name, str) and name in _ACCEPTED_SYMBOLS:  # the cache needs a hash
        return name
    if not isinstance(name, str) or not _SYMBOL_RE.fullmatch(name):
        raise WordError(f"generator name {name!r} is not in [A-Za-z0-9_.]+")
    if len(_ACCEPTED_SYMBOLS) >= _ACCEPTED_SYMBOLS_CAP:
        _ACCEPTED_SYMBOLS.clear()
    _ACCEPTED_SYMBOLS.add(name)
    return name


Letter = tuple[str, int]  # (generator name, +1 or -1)


@dataclass(frozen=True, slots=True, init=False)
class Word:
    """A finite sequence of signed generator letters.

    Not necessarily freely reduced; reducedness is a predicate, not an
    invariant.  Words are immutable and hashable.
    """

    letters: tuple[Letter, ...] = ()

    def __init__(self, letters: Iterable[Letter] = ()):
        _set_letters(self, tuple(letters))
        self.__post_init__()  # the check; perfbench's tracer counts Words here

    def __post_init__(self):
        accepted = _ACCEPTED_SYMBOLS
        try:
            for letter in self.letters:
                name, sign = letter
                if name not in accepted:
                    check_symbol(name)
                if sign not in (1, -1):
                    raise WordError(f"letter sign must be +1 or -1, got {sign}")
        except WordError:
            raise
        except (TypeError, ValueError):  # not a pair, or an unhashable name
            raise WordError(f"letter {letter!r} is not a (name, sign) pair") from None

    # -- constructors -------------------------------------------------

    @classmethod
    def empty(cls) -> "Word":
        return _word(())

    @classmethod
    def gen(cls, name: str, exponent: int = 1) -> "Word":
        """The word name^exponent (no reduction needed)."""
        check_symbol(name)
        return _word(((name, 1 if exponent >= 0 else -1),) * abs(exponent))

    @classmethod
    def from_text(cls, text: str) -> "Word":
        """Parse whitespace-separated tokens ``name`` or ``name^-1``."""
        letters = []
        for tok in text.split():
            if tok.endswith(INVERSE_MARKER):
                letters.append((check_symbol(tok[: -len(INVERSE_MARKER)]), -1))
            else:
                letters.append((check_symbol(tok), 1))
        return _word(tuple(letters))

    # -- basic protocol -----------------------------------------------

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        """Concatenation.  Does *not* freely reduce."""
        return _word(self.letters + other.letters)

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return self.inverse() ** (-n)
        return _word(self.letters * n)

    def inverse(self) -> "Word":
        return _word(tuple((g, -s) for g, s in reversed(self.letters)))

    def to_text(self) -> str:
        return " ".join([g if s == 1 else g + INVERSE_MARKER for g, s in self.letters])

    def __str__(self) -> str:
        return self.to_text() if self.letters else "(empty)"

    def symbols(self) -> set[str]:
        return {g for g, _ in self.letters}


_set_letters = Word.letters.__set__


def _word(letters: tuple[Letter, ...]) -> Word:
    """A Word over already checked letters, built without ``Word``'s check."""
    w = object.__new__(Word)
    _set_letters(w, letters)
    return w


def free_reduce(w: Word) -> Word:
    """The unique freely reduced form of ``w`` (stack cancellation)."""
    stack: list[Letter] = []
    for letter in w.letters:
        if stack and stack[-1][0] == letter[0] and stack[-1][1] == -letter[1]:
            stack.pop()
        else:
            stack.append(letter)
    return _word(tuple(stack))


def cyclic_reduce(w: Word) -> tuple[Word, Word]:
    """Return (core, conjugator) with ``w`` freely equal to
    conjugator * core * conjugator^-1 and core cyclically reduced."""
    letters = free_reduce(w).letters
    n, k = len(letters), 0
    while n - 2 * k >= 2 and letters[k] == (letters[n - 1 - k][0], -letters[n - 1 - k][1]):
        k += 1
    return _word(letters[k : n - k]), _word(letters[:k])


def substitute(w: Word, mapping: Mapping[str, Word]) -> Word:
    """Replace each mapped symbol by its image word (inverted for
    negative letters) and freely reduce.

    Images must not mention symbols that are themselves being
    substituted; chained substitution requires separate calls.
    """
    substituted = set(mapping)
    for g, image in mapping.items():
        if bad := image.symbols() & substituted:
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
    return free_reduce(_word(tuple(out)))


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
    """Unchecked: every caller passes a presentation's generators or the
    symbols of checked words as ``names``."""
    return _word(tuple((names[abs(x) - 1], 1 if x > 0 else -1) for x in iw))


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


def cyclic_split_ints(iw: IntWord) -> tuple[IntWord, IntWord, IntWord]:
    """Split a freely reduced word as ``head core tail`` with ``tail`` the
    inverse of ``head`` and ``core`` cyclically reduced.  Then the n-th
    power of ``iw`` reduces to ``head + core * n + tail`` for every n >= 1."""
    n = len(iw)
    k = 0
    while n - 2 * k >= 2 and iw[k] == -iw[n - 1 - k]:
        k += 1
    return iw[:k], iw[k : n - k], iw[n - k :]


def least_rotation(w: tuple, w_inverse: tuple) -> tuple:
    """The least rotation, in tuple order, of ``w`` or of its inverse:
    a canonical representative of the cyclic word up to inversion.

    The caller passes the word and its inverse in its own encoding, so
    the letter order (and hence the representative) is the caller's.
    """
    if not w:
        return w
    return min(v[k:] + v[:k] for v in (w, w_inverse) for k in range(len(v)))


def cyclic_key(iw: IntWord) -> IntWord:
    """The least rotation of the cyclic core of the freely reduced ``iw``,
    up to inversion: one key per conjugacy class of ``iw`` and its
    inverse."""
    _, core, _ = cyclic_split_ints(iw)
    return least_rotation(core, invert_ints(core))


def packed_digits(k: int) -> dict[int, int]:
    """The digit of each letter ``±1 .. ±k`` when a freely reduced int
    word packs into one int in base 2k+1: x > 0 is digit x, -x digit
    k+x, and the last letter is the lowest digit.  No digit is 0, so the
    int alone names the word, and the empty word is 0."""
    return {x: x if x > 0 else k - x for i in range(1, k + 1) for x in (i, -i)}


def spell_packed(packed: Iterable[int], base: int, letters: Mapping[int, object]) -> dict:
    """Spell each packed word as the tuple of ``letters[digit]``, first
    letter first.  A word is spelled from its prefix one letter shorter,
    which is spelled first when it is not yet known; the result maps
    every word and prefix spelled, and 0 to ()."""
    spelled: dict = {0: ()}
    for w in packed:
        heads = []
        while w not in spelled:
            heads.append(w)
            w //= base
        for h in reversed(heads):
            spelled[h] = spelled[w] + (letters[h % base],)
            w = h
    return spelled
