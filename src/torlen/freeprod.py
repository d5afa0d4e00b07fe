"""Decidable computations in free products of cyclic groups.

Elements are handled through alternating syllable normal forms, which
solve the word problem outright.  On top of that sit a torsion
classifier, a bounded conjugate-separation search and a bounded
ping-pong freeness certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .words import Word, check_symbol, concat, free_reduce

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
            if not order:
                raise FactorError(f"bad factor token {tok!r}")
            factors.append((name, INFINITE if order == "inf" else int(order)))
        return cls(tuple(factors))

    def to_text(self) -> str:
        return "factors: " + " ".join(
            f"{name}:{'inf' if order is None else order}" for name, order in self.factors
        )

    def index_of(self, name: str) -> int:
        try:
            return self._lookup[name][0]
        except KeyError:
            raise FactorError(f"undeclared generator {name!r}") from None

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
        return concat(Word.gen(spec.generator(i), e) for i, e in self.syllables)


def _normalize_exponent(exponent: int, order: Optional[int]) -> int:
    if order is None:
        return exponent
    return exponent % order  # 0..order-1; 0 means the syllable vanishes


def _push(stack: list[tuple[int, int]], factor: int, exponent: int, spec: CyclicFactorSpec):
    """Multiply an alternating syllable stack by one syllable.  The
    syllable merges with the top one at most, and if that vanishes the
    stack still alternates, so pushing an alternating sequence keeps a
    normal form."""
    if stack and stack[-1][0] == factor:
        factor_prev, exp_prev = stack.pop()
        exponent = exp_prev + exponent
    exponent = _normalize_exponent(exponent, spec.order_of(factor))
    if exponent != 0:
        stack.append((factor, exponent))


def normal_form(spec: CyclicFactorSpec, w: Word) -> NormalForm:
    """The unique normal form of the element represented by ``w``.
    Words are equal in the group iff their normal forms are equal."""
    lookup = spec._lookup
    stack: list[tuple[int, int]] = []
    for name, sign in w.letters:
        try:
            factor, order = lookup[name]
        except KeyError:
            raise FactorError(f"undeclared generator {name!r}") from None
        # the stack alternates factors, so a letter merges with the top
        # syllable at most; a vanished syllable leaves it alternating
        if stack and stack[-1][0] == factor:
            exponent = stack.pop()[1] + sign
        else:
            exponent = sign
        if order is not None:
            exponent %= order
        if exponent:
            stack.append((factor, exponent))
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
        factor, exponent = syl.pop()
        merged = _normalize_exponent(exponent + first[1], spec.order_of(factor))
        if merged:
            syl.append((factor, merged))
    conj_word = concat(Word.gen(spec.generator(i), e) for i, e in conj)
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


def _signed_range(bound: int) -> Iterator[int]:
    for k in range(1, bound + 1):
        yield k
        yield -k


def _exponent_candidates(spec: CyclicFactorSpec, factor: int, max_exponent: int) -> list[int]:
    order = spec.order_of(factor)
    if order is None:
        return [e for e in _signed_range(max_exponent)]
    return list(range(1, order))


def _enumerate_normal_forms(spec: CyclicFactorSpec, max_syllables: int, max_exponent: int):
    """Normal forms in length-lexicographic order (syllable count, then
    factor index / exponent position), identity first."""
    yield NormalForm()
    n_factors = len(spec.factors)
    for length in range(1, max_syllables + 1):
        def extend(prefix: tuple[tuple[int, int], ...]):
            if len(prefix) == length:
                yield NormalForm(prefix)
                return
            for factor in range(n_factors):
                if prefix and prefix[-1][0] == factor:
                    continue
                for exponent in _exponent_candidates(spec, factor, max_exponent):
                    yield from extend(prefix + ((factor, exponent),))

        yield from extend(())


def conjugate_separation_search(
    spec: CyclicFactorSpec,
    a: Word,
    b: Word,
    max_syllables: int,
    max_exponent: int,
):
    """Exhaustive search for x (<= max_syllables syllables, x outside
    <ab>) and nonzero i, j (|i|,|j| <= max_exponent) with
    x (ab)^i x^-1 = (ab)^j.  Returns the minimal witness in
    length-lexicographic order, or a bound report."""
    nf_a = normal_form(spec, a)
    nf_b = normal_form(spec, b)
    if not nf_a or not nf_b:
        raise FactorError("a and b must be nontrivial")
    if len(nf_a) != 1 or len(nf_b) != 1 or nf_a.syllables[0][0] == nf_b.syllables[0][0]:
        raise FactorError("a and b must lie in distinct factors")
    ab = nf_multiply(spec, nf_a, nf_b)
    # membership in <ab>: compare against (ab)^m, |m| bounded by the
    # total syllable budget
    member_bound = max_syllables + 2
    members = {nf_power(spec, ab, m).syllables for m in range(-member_bound, member_bound + 1)}
    powers = {k: nf_power(spec, ab, k) for k in _signed_range(max_exponent)}
    for x in _enumerate_normal_forms(spec, max_syllables, max_exponent):
        if x.syllables in members:
            continue
        x_inv = nf_invert(spec, x)
        for i in _signed_range(max_exponent):
            lhs = nf_multiply(spec, nf_multiply(spec, x, powers[i]), x_inv)
            for j in _signed_range(max_exponent):
                if lhs == powers[j]:
                    return SeparationWitness(x.to_word(spec), i, j)
    return NoWitnessUpToBound(max_syllables, max_exponent)


# -- bounded freeness certificate ------------------------------------------


def ping_pong_free_check(spec: CyclicFactorSpec, u: Word, v: Word, max_length: int) -> bool:
    """Bounded freeness certificate: True iff every nonempty freely
    reduced word in {u, v}^+- of length <= max_length is nontrivial.
    Necessary evidence of freeness, not a proof."""
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
    # DFS over freely reduced sequences in the abstract letters 1,2
    stack: list[tuple[tuple[int, ...], NormalForm]] = [((), NormalForm())]
    while stack:
        seq, value = stack.pop()
        if seq and not value:
            return False
        if len(seq) == max_length:
            continue
        for letter in (1, -1, 2, -2):
            if seq and seq[-1] == -letter:
                continue
            stack.append((seq + (letter,), nf_multiply(spec, value, basis[letter])))
    return True
