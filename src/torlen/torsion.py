"""The torsion-quotient engine.

``torsion_quotient_step`` kills every generator carrying a visible
power relator.  The killed generators are genuinely torsion, so the
quotient always sits between the input group and its true first
torsion quotient; the step is certified *exact* (sound) only for
presentations inside a conservative certified class: free products of
empty/free/cyclic factors and the tree-amalgam shapes of the
construction families, where the free-product and amalgam torsion
results guarantee that visible torsion generates the whole first
torsion subgroup.

The class is a forest rule.  Every nonempty relator core is a power
g^e or a link u v w^-e (u, v, w distinct, e >= 2) making w the parent
of u and v.  No generator has two powers, two links or two parents; a
parent has no power, every other linked generator has a power with
|e| >= 2, and every linked generator lies below a parent that has no
parent itself, so the links form binary trees, not cycles.

``torsion_certificate_search`` is the complementary semi-decision
machinery: it reads off a bounded ball of explicit products of
conjugates of relators the words that have a power in it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .consequences import closure_ball, conjugate_ints, verify_factors
from .presentation import Presentation, kill_generators
from .words import (
    IntWord,
    Word,
    _word,
    cyclic_key,
    cyclic_reduce,
    cyclic_split_ints,
    multiply_ints,
    reduce_ints,
    word_to_ints,
)

# -- certified class recognizer --------------------------------------------


def _classify_relator(core: Word):
    """Classify a cyclically reduced relator.

    Returns ("power", g, e) for g^e with |e| >= 1, or ("link", u, v, w)
    for a cyclic word reading u v w^-e or its inverse, with distinct
    generators and e >= 2, else None.
    """
    letters = core.letters
    if not letters:
        return None
    if letters.count(letters[0]) == len(letters):
        return ("power", letters[0][0], len(letters) * letters[0][1])
    n = len(letters)
    for s in (1, -1):
        # two cyclically adjacent letters of sign s and every other one
        # w^-s; for s = -1 the inverse reads u v w^-e, so u and v swap
        pair = [k for k, (_, t) in enumerate(letters) if t == s]
        rest = {l for l in letters if l[1] != s}
        if n >= 4 and len(pair) == 2 and len(rest) == 1 and pair[1] - pair[0] in (1, n - 1):
            i, j = pair if pair[1] - pair[0] == 1 else pair[::-1]
            ((w, _),) = rest
            u, v = (letters[i][0], letters[j][0])[::s]
            if len({u, v, w}) == 3:
                return ("link", u, v, w)
    return None


def _scan_relators(p: Presentation) -> tuple[bool, frozenset[str]]:
    """Classify each relator once: whether ``p`` follows the forest rule
    of the module docstring, and the generators with a power relator."""
    powers: dict[str, int] = {}
    children: dict[str, tuple[str, str]] = {}
    parent: dict[str, str] = {}
    sound = True
    for r in p.relators:
        core, _ = cyclic_reduce(r)
        info = _classify_relator(core)
        if info is None:
            sound = sound and not core
        elif info[0] == "power":
            sound = sound and info[1] not in powers
            powers[info[1]] = info[2]
        else:
            _, u, v, w = info
            sound = sound and not (w in children or u in parent or v in parent)
            children[w] = (u, v)
            parent[u] = parent[v] = w
    visible = frozenset(powers)
    if not sound or any(w in powers for w in children):
        return False, visible
    if any(abs(powers.get(g, 0)) < 2 for g in parent if g not in children):
        return False, visible  # a trivial or free child would collapse the amalgam
    # each generator has at most one parent, so the walk from the roots
    # meets each at most once, and only a cycle is out of its reach
    walk = [w for w in children if w not in parent]
    for g in walk:
        walk.extend(children.get(g, ()))
    return len(walk) == len(children.keys() | parent.keys()), visible


def in_certified_class(p: Presentation) -> bool:
    """True iff the relators follow the forest rule of the module
    docstring: a free product of free and cyclic factors and of tree
    amalgams with power relators on the leaves and u v w^-e links above."""
    return _scan_relators(p)[0]


# -- quotient step and torsion length --------------------------------------


@dataclass(frozen=True)
class QuotientStep:
    presentation: Presentation
    killed: frozenset[str]
    sound: bool


def torsion_quotient_step(p: Presentation) -> QuotientStep:
    """Kill all visible torsion generators.

    ``sound`` is True iff the presentation lies in the certified class,
    in which case the killed normal closure is exactly the first
    torsion subgroup; otherwise the quotient is only intermediate
    (killed generators are genuinely torsion either way).
    """
    sound, victims = _scan_relators(p)
    return QuotientStep(kill_generators(p, victims) if victims else p, victims, sound)


@dataclass(frozen=True)
class TorsionLengthReport:
    value: int
    exact: bool  # False means "at least value"
    sound: bool
    trace: tuple[tuple[Presentation, frozenset[str], Presentation], ...]

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "exact": self.exact,
            "sound": self.sound,
            "steps": [sorted(killed) for _, killed, _ in self.trace],
        }


def torsion_length(p: Presentation, max_iter: int = 32) -> TorsionLengthReport:
    """Iterate torsion quotient steps to a fixed point.

    The value is exact iff every step was sound and the fixed point is
    certified torsion-free (inside the class, no visible torsion means
    torsion-free: a free product of free factors).
    """
    if max_iter < 0:
        raise ValueError("max_iter must be >= 0")
    current = p
    trace = []
    all_sound = True
    for _ in range(max_iter):
        step = torsion_quotient_step(current)
        if not step.killed:
            # no visible torsion is left, so a sound step means torsion-free
            exact = all_sound and step.sound
            return TorsionLengthReport(len(trace), exact, exact, tuple(trace))
        trace.append((current, step.killed, step.presentation))
        all_sound = all_sound and step.sound
        current = step.presentation
    return TorsionLengthReport(len(trace), False, all_sound, tuple(trace))


# -- bounded torsion certificates ------------------------------------------


@dataclass(frozen=True)
class TorsionCertificate:
    """Evidence that word^exponent dies after ``level`` torsion
    quotients: an explicit product of conjugates of the working relator
    set (base relators plus lower-level certified words), together with
    the certificates backing each adjoined relator."""

    word: Word
    exponent: int
    level: int
    factors: tuple[tuple[Word, Word, int], ...]  # (conjugator, relator, sign)
    adjoined: tuple[Word, ...] = ()
    supporting: tuple["TorsionCertificate", ...] = ()

    # The result of ``verify``, kept once known: a certificate is
    # immutable, and the certificates of one level share their supporting
    # certificates.  A class attribute, not a field, so ``==``, ``hash``
    # and ``repr`` ignore it.
    _verified = None

    def verify(self) -> bool:
        """Recheck the exponent, which must be at least 1, and the
        conjugate product by free reduction, here and in every supporting
        certificate.  No relator is checked against a presentation, so a
        forged certificate for ``z`` whose one factor is ``z`` itself
        passes.  ``check_certificates`` is the check against the
        presentation."""
        if self._verified is None:
            words = [self.word] + [w for c, r, _ in self.factors for w in (c, r)]
            index = {g: i for i, g in enumerate({g for w in words for g, _ in w.letters})}
            relators = tuple(word_to_ints(r, index) for _, r, _ in self.factors)
            factors = [(word_to_ints(c, index), i, s) for i, (c, _, s) in enumerate(self.factors)]
            limit = sum(2 * len(c) + len(r) for c, r, _ in self.factors)
            word = word_to_ints(self.word, index)
            target = _reduced_power(word, self.exponent, limit) if self.exponent >= 1 else None
            ok = target is not None and verify_factors(target, factors, relators)
            ok = ok and all(c.verify() for c in self.supporting)
            object.__setattr__(self, "_verified", ok)
        return self._verified


def _reduced_power(word: IntWord, n: int, limit: int) -> IntWord | None:
    """The free reduction of word^n for n >= 1, or None when it is longer
    than ``limit``; built only when it fits, so a forged exponent costs
    nothing."""
    head, core, tail = cyclic_split_ints(reduce_ints(word))
    return head + core * n + tail if 2 * len(head) + n * len(core) <= limit else None


def check_certificates(p: Presentation, certificates: Iterable[TorsionCertificate]) -> list[bool]:
    """Recheck each certificate from its own data and ``p`` alone: its
    exponent is at least 1, each factor's relator is a freely reduced
    relator of ``p`` or an adjoined core, the product reduces to
    word^exponent, and each adjoined core is the ``cyclic_key`` of its
    supporting certificate's word, one level down and holding too.  A
    letter outside ``p`` fails.  Words, conjugates, certificates and a
    level's shared (adjoined, supporting) pair are handled once per
    call, by identity; nothing outlives the call."""
    certificates = list(certificates)  # keeps every keyed object alive
    index = {g: i for i, g in enumerate(p.generators)}
    base = {reduce_ints(word_to_ints(r, index)) for r in p.relators}
    letters = {(g, s): (i + 1) * s for g, i in index.items() for s in (1, -1)}
    spelled: dict[int, IntWord | None] = {}
    held: dict[int, bool] = {}
    pairs: dict[tuple[int, int, int], frozenset[IntWord] | None] = {}
    conjugates: dict[tuple[int, int, int], tuple[IntWord | None, IntWord | None]] = {}

    def ints(w: Word) -> IntWord | None:
        if id(w) not in spelled:
            try:
                spelled[id(w)] = tuple(map(letters.__getitem__, w.letters))
            except KeyError:  # a letter outside p
                spelled[id(w)] = None
        return spelled[id(w)]

    def holds(cert: TorsionCertificate) -> bool:
        if id(cert) not in held:
            key = (id(cert.adjoined), id(cert.supporting), cert.level)
            if key not in pairs:
                cores = [ints(w) for w in cert.adjoined]
                ok = len(cores) == len(cert.supporting) and all(
                    s.level == cert.level - 1 and holds(s) and core == cyclic_key(ints(s.word))
                    for core, s in zip(cores, cert.supporting)
                )
                pairs[key] = frozenset(cores).union(base) if ok else None
            allowed, word = pairs[key], ints(cert.word)
            ok = allowed is not None and cert.exponent >= 1 and word is not None
            product: IntWord = ()
            for c, r, sign in reversed(cert.factors) if ok else ():
                triple = (id(c), id(r), sign)
                if triple not in conjugates:
                    conj, rel = ints(c), ints(r)
                    known = conj is not None and rel is not None
                    conjugates[triple] = rel, conjugate_ints(conj, rel, sign) if known else None
                relator, conjugate = conjugates[triple]
                # membership is per certificate: it depends on the adjoined cores
                if conjugate is None or relator not in allowed:
                    ok = False
                    break
                product = multiply_ints(conjugate, product)
            held[id(cert)] = ok and product == _reduced_power(word, cert.exponent, len(product))
        return held[id(cert)]

    return [holds(c) for c in certificates]


@dataclass(frozen=True)
class CertificateSearchReport:
    level: int
    word_bound: int
    exponent_bound: int
    consequence_budget: int
    exhaustive: bool
    certificates: tuple[TorsionCertificate, ...]


def torsion_certificate_search(
    p: Presentation,
    level: int = 1,
    word_bound: int = 6,
    exponent_bound: int = 6,
    consequence_budget: int = 8,
    max_states: int = 200_000,
) -> CertificateSearchReport:
    """Find bounded torsion certificates at the given level.

    Level 1 certifies words w with w^n an explicit product of
    conjugates of the relators; level i+1 reruns the search with the
    cyclic cores of level-i certified words adjoined as relators.  Each
    level reads its certificates off one ball of such products and lists
    them by length, then letter by letter, each generator before its
    inverse.  Absence of a certificate is evidence only at the budgets.
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    for name, bound in (
        ("word_bound", word_bound),
        ("exponent_bound", exponent_bound),
        ("consequence_budget", consequence_budget),
    ):
        if bound < 0:
            raise ValueError(f"{name} must be >= 0")
    if max_states < 1:
        raise ValueError("max_states must be >= 1")
    index = {g: i for i, g in enumerate(p.generators)}
    names = list(p.generators)
    relators = [word_to_ints(r, index) for r in p.relators]
    # one letter table spells every int word: letter x at table[x]
    table = [None] + [(g, 1) for g in names] + [(g, -1) for g in reversed(names)]

    def spell(iw: IntWord) -> Word:
        return _word(tuple(map(table.__getitem__, iw)))

    adjoin_length_bound = max(1, word_bound // 2)

    by_core: dict[IntWord, TorsionCertificate] = {}
    exhaustive = True
    for current_level in range(1, level + 1):
        # level 1 has no lower-level words to adjoin
        existing = {cyclic_key(r) for r in relators}
        adjoined = []
        for core, cert in sorted(by_core.items(), key=lambda kv: (len(kv[0]), kv[0])):
            if core not in existing:
                existing.add(core)
                adjoined.append((core, cert))
        relators = relators + [core for core, _ in adjoined]
        adjoined_words = tuple(spell(core) for core, _ in adjoined)
        supporting = tuple(cert for _, cert in adjoined)

        ball = closure_ball(
            relators,
            len(p.generators),
            max_len=word_bound,
            max_depth=consequence_budget,
            max_states=max_states,
        )
        exhaustive = exhaustive and ball.exhausted
        rel_words = [spell(r) for r in ball.relators]
        # A member head core tail with core = root^n is w^n for the
        # reduced word w = head root tail.  Shorter members come first,
        # so each w keeps its least n; with n = 1 every nonempty member
        # is its own power.  w is keyed by its core only if the next
        # level may adjoin it.
        least: dict[IntWord, tuple[int, IntWord]] = {}
        for power in sorted(ball.parents, key=len):
            head, core, tail = cyclic_split_ints(power)
            for n in range(1, min(exponent_bound, len(core)) + 1):
                if not len(core) % n and (root := core[: len(core) // n]) * n == core:
                    least.setdefault(head + root + tail, (n, power))
        # Each member's factors are derived once, in the ball's order, from
        # its parent's, so a parent comes before its children: an
        # insertion spells one factor and puts it in front of its parent's
        # triples, a conjugation spells every conjugator.  Conjugators are
        # spelled once per level.
        conjugators: dict[IntWord, Word] = {}
        raw: dict[IntWord, tuple] = {(): ()}
        spelled: dict[IntWord, tuple] = {(): ()}
        for state, (parent, move) in ball.parents.items():
            if move[0] == "root":
                continue
            factors = raw[state] = ball.child_factors(parent, move, raw[parent])
            new = factors[:1] if move[0] == "ins" else factors
            for c, _, _ in new:
                if c not in conjugators:
                    conjugators[c] = spell(c)
            triples = tuple((conjugators[c], rel_words[ridx], sign) for c, ridx, sign in new)
            spelled[state] = triples + spelled[parent] if move[0] == "ins" else triples
        found: list[TorsionCertificate] = []
        new_by_core: dict[IntWord, TorsionCertificate] = {}
        rank = {x: 2 * abs(x) - (x > 0) for x in range(-len(names), len(names) + 1)}
        for w in sorted(least, key=lambda w: (len(w), *map(rank.__getitem__, w))):
            n, power = least[w]
            cert = TorsionCertificate(
                spell(w), n, current_level, spelled[power], adjoined_words, supporting
            )
            found.append(cert)
            if current_level < level and len(cyclic_split_ints(w)[1]) <= adjoin_length_bound:
                new_by_core.setdefault(cyclic_key(w), cert)
        certificates = tuple(found)
        by_core = new_by_core
    return CertificateSearchReport(
        level, word_bound, exponent_bound, consequence_budget, exhaustive, certificates
    )
