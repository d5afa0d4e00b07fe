"""Decidable computations in free products of cyclic groups.

Elements are handled through alternating syllable normal forms, which
solve the word problem outright.  On top of that sit a torsion
classifier, a conjugate-separation decision and a bounded ping-pong
freeness certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .words import Word, _word, check_symbol

INFINITE = None  # order marker for infinite cyclic factors


class FactorError(ValueError):
    pass


@dataclass(frozen=True)
class CyclicFactorSpec:
    """An ordered free product of cyclic groups: (generator, order)
    pairs with order >= 2 or INFINITE (None)."""

    factors: tuple[tuple[str, Optional[int]], ...]

    def __post_init__(self):
        lookup: dict[str, tuple[int, Optional[int]]] = {}
        for i, (name, order) in enumerate(self.factors):
            check_symbol(name)
            if name in lookup:
                raise FactorError(f"duplicate factor generator {name!r}")
            lookup[name] = (i, order)
            if order is not None and order < 2:
                raise FactorError(f"finite factor order must be >= 2, got {order}")
        # name -> (factor index, order); not a field, so == and hash
        # still compare ``factors`` only
        object.__setattr__(self, "_lookup", lookup)

    @classmethod
    def from_text(cls, text: str) -> "CyclicFactorSpec":
        """Parse e.g. ``x:2 y:3 t:inf`` (with or without a leading
        ``factors:`` keyword)."""
        body = text.strip()
        if body.startswith("factors:"):
            body = body[len("factors:") :]
        factors = []
        for tok in body.split():
            name, _, order = tok.partition(":")
            try:  # int() also rejects the empty order of a bare name
                factors.append((name, INFINITE if order == "inf" else int(order)))
            except ValueError:
                raise FactorError(f"bad factor token {tok!r}") from None
        return cls(tuple(factors))

    def to_text(self) -> str:
        return "factors: " + " ".join(
            f"{name}:{'inf' if order is None else order}" for name, order in self.factors
        )

    def order_of(self, factor_index: int) -> Optional[int]:
        return self.factors[factor_index][1]

    def generator(self, factor_index: int) -> str:
        return self.factors[factor_index][0]


@dataclass(frozen=True)
class NormalForm:
    """Alternating syllable form: adjacent syllables lie in distinct
    factors; finite-factor exponents are normalized into 1..order-1."""

    syllables: tuple[tuple[int, int], ...] = ()

    def __len__(self) -> int:
        return len(self.syllables)

    def __bool__(self) -> bool:
        return bool(self.syllables)

    def to_word(self, spec: CyclicFactorSpec) -> Word:
        return _spell(spec, self.syllables)


def _spell(spec: CyclicFactorSpec, syllables) -> Word:
    """The (factor, exponent) syllables written out letter by letter."""
    letters = ((spec.generator(i), 1 if e > 0 else -1) for i, e in syllables for _ in range(abs(e)))
    return _word(tuple(letters))


def _push(stack: list[tuple[int, int]], factor: int, exponent: int, spec: CyclicFactorSpec):
    """Multiply an alternating syllable stack by one syllable.  The
    syllable merges with the top one at most, and if that vanishes the
    stack still alternates, so pushing an alternating sequence keeps a
    normal form."""
    if stack and stack[-1][0] == factor:
        exponent += stack.pop()[1]
    if (order := spec.order_of(factor)) is not None:
        exponent %= order  # 0..order-1; 0 means the syllable vanishes
    if exponent:
        stack.append((factor, exponent))


def normal_form(spec: CyclicFactorSpec, w: Word) -> NormalForm:
    """The unique normal form of the element represented by ``w``.
    Words are equal in the group iff their normal forms are equal."""
    lookup = spec._lookup
    # the syllables alternate factors, so a letter merges with the top
    # one at most; a vanished top re-exposes the syllable below it.  The
    # top syllable lives in (top, exponent), off the stack; top -1 means
    # the form is empty
    stack: list[tuple[int, int]] = []
    top, exponent = -1, 0
    for name, sign in w.letters:
        try:
            factor, order = lookup[name]
        except KeyError:
            raise FactorError(f"undeclared generator {name!r}") from None
        if factor == top:
            exponent += sign
            if order is not None:
                exponent %= order
            if not exponent:
                top, exponent = stack.pop() if stack else (-1, 0)
        else:
            if top >= 0:
                stack.append((top, exponent))
            top, exponent = factor, sign if order is None else sign % order
    if top >= 0:
        stack.append((top, exponent))
    return NormalForm(tuple(stack))


def nf_multiply(spec: CyclicFactorSpec, a: NormalForm, b: NormalForm) -> NormalForm:
    stack = list(a.syllables)
    for factor, exponent in b.syllables:
        _push(stack, factor, exponent, spec)
    return NormalForm(tuple(stack))


def nf_invert(spec: CyclicFactorSpec, a: NormalForm) -> NormalForm:
    stack: list[tuple[int, int]] = []
    for factor, exponent in reversed(a.syllables):
        _push(stack, factor, -exponent, spec)
    return NormalForm(tuple(stack))


def nf_power(spec: CyclicFactorSpec, a: NormalForm, n: int) -> NormalForm:
    if n < 0:
        return nf_power(spec, nf_invert(spec, a), -n)
    out = NormalForm()
    for _ in range(n):
        out = nf_multiply(spec, out, a)
    return out


@dataclass(frozen=True)
class TorsionWitness:
    conjugator: Word
    factor_element: Word


def is_torsion(spec: CyclicFactorSpec, w: Word) -> tuple[bool, Optional[TorsionWitness]]:
    """True iff the cyclically reduced normal form is empty or a single
    syllable in a finite-order factor (torsion is conjugate into a
    factor).  The witness records the conjugator and factor element."""
    nf = normal_form(spec, w)
    syl = list(nf.syllables)
    conj: list[tuple[int, int]] = []
    while len(syl) >= 2 and syl[0][0] == syl[-1][0]:
        first = syl.pop(0)
        conj.append(first)
        _push(syl, *first, spec)
    conj_word = _spell(spec, conj)
    if not syl:
        return True, TorsionWitness(conj_word, Word.empty())
    if len(syl) == 1 and spec.order_of(syl[0][0]) is not None:
        i, e = syl[0]
        return True, TorsionWitness(conj_word, Word.gen(spec.generator(i), e))
    return False, None


# -- conjugate separation ---------------------------------------------------


@dataclass(frozen=True)
class SeparationWitness:
    x: Word
    i: int
    j: int


@dataclass(frozen=True)
class NoWitnessUpToBound:
    max_syllables: int
    max_exponent: int


def conjugate_separation_search(
    spec: CyclicFactorSpec,
    a: Word,
    b: Word,
    max_syllables: int,
    max_exponent: int,
):
    """The least x (<= max_syllables syllables, x outside <ab>) and
    nonzero i, j (|i|,|j| <= max_exponent) with x (ab)^i x^-1 = (ab)^j,
    or a bound report.  No search is needed (Lyndon & Schupp, ch. IV.1):
    - (ab)^i is cyclically reduced with 2|i| syllables, as ab is.
    - Conjugate cyclically reduced forms are cyclic permutations: j = +-i.
    - j = i: x centralizes (ab)^i, so x is in <ab> (ab is no proper power).
    - j = -i: (b^-1 a^-1)^i reads (ba)^i, so a and b are involutions, and
      x is in a<ab>, whose only one-syllable elements are a and b.
    - x runs by syllable count, then factor and exponent, identity first,
      and i over 1, -1, 2, ...: the least witness is (a or b, whichever
      lies in the lower factor, 1, -1)."""
    if max_syllables < 0 or max_exponent < 0:
        raise ValueError("max_syllables and max_exponent must be >= 0")
    nf_a = normal_form(spec, a)
    nf_b = normal_form(spec, b)
    if not nf_a or not nf_b:
        raise FactorError("a and b must be nontrivial")
    if len(nf_a) != 1 or len(nf_b) != 1 or nf_a.syllables[0][0] == nf_b.syllables[0][0]:
        raise FactorError("a and b must lie in distinct factors")
    pair = nf_a.syllables + nf_b.syllables
    if max_syllables and max_exponent and all(2 * e == spec.order_of(i) for i, e in pair):
        i, e = min(pair)
        return SeparationWitness(Word.gen(spec.generator(i), e), 1, -1)
    return NoWitnessUpToBound(max_syllables, max_exponent)


# -- bounded freeness certificate ------------------------------------------


def ping_pong_free_check(spec: CyclicFactorSpec, u: Word, v: Word, max_length: int) -> bool:
    """Bounded freeness certificate: True iff every nonempty freely
    reduced word in {u, v}^+- of length <= max_length is nontrivial.
    Necessary evidence of freeness, not a proof."""
    if max_length < 0:
        raise ValueError("max_length must be >= 0")
    nf_u = normal_form(spec, u)
    nf_v = normal_form(spec, v)
    if not nf_u or not nf_v:
        return False
    basis = {
        1: nf_u,
        -1: nf_invert(spec, nf_u),
        2: nf_v,
        -2: nf_invert(spec, nf_v),
    }
    # DFS over freely reduced sequences in the abstract letters 1,2; a
    # node keeps its last letter (0 at the root) and its length
    stack: list[tuple[int, int, NormalForm]] = [(0, 0, NormalForm())]
    while stack:
        last, length, value = stack.pop()
        if length and not value:
            return False
        if length == max_length:
            continue
        for letter in (1, -1, 2, -2):
            if letter != -last:
                stack.append((letter, length + 1, nf_multiply(spec, value, basis[letter])))
    return True
