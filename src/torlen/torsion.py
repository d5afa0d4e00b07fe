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

``torsion_certificate_search`` is the complementary semi-decision
machinery: it reads off a bounded ball of explicit products of
conjugates of relators the words that have a power in it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .consequences import closure_ball, verify_factors
from .presentation import Presentation, kill_generators
from .stallings import UnionFind
from .words import (
    IntWord,
    Word,
    cyclic_key,
    cyclic_reduce,
    cyclic_split_ints,
    ints_to_word,
    word_to_ints,
)

# -- certified class recognizer --------------------------------------------


def _classify_relator(core: Word):
    """Classify a cyclically reduced relator.

    Returns ("power", g, e) for g^e with |e| >= 1, or
    ("link", u, v, w, e) for a relator some rotation/inversion of which
    reads u v w^-e with distinct generators and e >= 2, else None.
    """
    letters = core.letters
    if not letters:
        return None
    names = {g for g, _ in letters}
    signs = {s for _, s in letters}
    if len(names) == 1 and len(signs) == 1:
        g = letters[0][0]
        e = len(letters) * letters[0][1]
        return ("power", g, e)
    if len(names) != 3:
        return None
    for variant in (letters, core.inverse().letters):
        for k in range(len(variant)):
            rot = variant[k:] + variant[:k]
            # want u^+1 v^+1 w^-e
            if rot[0][1] == 1 and rot[1][1] == 1 and all(s == -1 for _, s in rot[2:]):
                u, v = rot[0][0], rot[1][0]
                tail = {g for g, _ in rot[2:]}
                if len(tail) == 1 and u != v and len(rot) >= 4:
                    (w,) = tail
                    if w not in (u, v):
                        return ("link", u, v, w, len(rot) - 2)
    return None


def _components(p: Presentation, cores: list[Word]):
    """Free-product components: generators linked by a shared nonempty
    relator core, keyed by a root generator index, with the indices of
    the cores in each."""
    index = {g: i for i, g in enumerate(p.generators)}
    uf = UnionFind(len(p.generators))
    for core in cores:
        first = index[core.letters[0][0]]
        for g, _ in core.letters[1:]:
            uf.union(first, index[g])
    gen_groups: dict[int, list[str]] = {}
    for i, g in enumerate(p.generators):
        gen_groups.setdefault(uf.find(i), []).append(g)
    groups: dict[int, list[int]] = {}
    for i, core in enumerate(cores):
        groups.setdefault(uf.find(index[core.letters[0][0]]), []).append(i)
    return gen_groups, groups


def _component_in_class(gens: list[str], relinfo: list) -> bool:
    if not relinfo:
        return len(gens) == 1  # a free cyclic factor
    powers: dict[str, int] = {}
    defined: dict[str, tuple[str, str]] = {}
    child_count: dict[str, int] = {}
    for info in relinfo:
        if info is None:
            return False
        if info[0] == "power":
            _, g, e = info
            if g in powers:
                return False
            powers[g] = e
        else:
            _, u, v, w, e = info
            if w in defined:
                return False
            defined[w] = (u, v)
            for child in (u, v):
                child_count[child] = child_count.get(child, 0) + 1
                if child_count[child] > 1:
                    return False
    if set(powers) & set(defined):
        return False
    if not defined:
        # a lone finite cyclic factor
        return len(gens) == 1 and gens[0] in powers
    # every generator is a leaf (power relator) or an internal node
    for g in gens:
        if g not in powers and g not in defined:
            return False
    if any(abs(e) < 2 for e in powers.values()):
        return False  # a trivial child would collapse the amalgam
    # tree shape: #nodes = 2 * #links + 1, single root, acyclic
    if len(gens) != 2 * len(defined) + 1:
        return False
    roots = [g for g in gens if child_count.get(g, 0) == 0]
    if len(roots) != 1 or roots[0] not in defined:
        return False
    # acyclicity by walking down from the root
    seen = set()
    stack = [roots[0]]
    while stack:
        g = stack.pop()
        if g in seen:
            return False
        seen.add(g)
        if g in defined:
            stack.extend(defined[g])
    return seen == set(gens)


def in_certified_class(p: Presentation) -> bool:
    """True iff every free-product component of the presentation is an
    empty/free/cyclic factor or a tree-amalgam shape (power relators on
    leaves, u v w^-e linking relators above)."""
    cores = []
    for r in p.relators:
        core, _ = cyclic_reduce(r)
        cores.append(core)
    cores = [c for c in cores if c]
    gen_groups, rel_groups = _components(p, cores)
    for root, gens in gen_groups.items():
        relinfo = [_classify_relator(cores[i]) for i in rel_groups.get(root, [])]
        if not _component_in_class(gens, relinfo):
            return False
    return True


# -- quotient step and torsion length --------------------------------------


@dataclass(frozen=True)
class QuotientStep:
    presentation: Presentation
    killed: frozenset[str]
    sound: bool


def visible_torsion_generators(p: Presentation) -> frozenset[str]:
    """Generators g with a power relator g^k (k >= 1) after cyclic
    reduction."""
    out = set()
    for r in p.relators:
        core, _ = cyclic_reduce(r)
        info = _classify_relator(core)
        if info and info[0] == "power":
            out.add(info[1])
    return frozenset(out)


def torsion_quotient_step(p: Presentation) -> QuotientStep:
    """Kill all visible torsion generators.

    ``sound`` is True iff the presentation lies in the certified class,
    in which case the killed normal closure is exactly the first
    torsion subgroup; otherwise the quotient is only intermediate
    (killed generators are genuinely torsion either way).
    """
    sound = in_certified_class(p)
    victims = visible_torsion_generators(p)
    if not victims:
        return QuotientStep(p, frozenset(), sound)
    return QuotientStep(kill_generators(p, victims), victims, sound)


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
    return TorsionLengthReport(len(trace), False, False, tuple(trace))


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
        """Recheck the conjugate product by free reduction, here and in
        every supporting certificate.  Only the product: no relator is
        checked against a presentation, so a forged certificate for ``z``
        whose one factor is ``z`` itself passes (ROADMAP item 1 plans a
        presentation-aware checker)."""
        if self._verified is None:
            words = [self.word] + [w for c, r, _ in self.factors for w in (c, r)]
            index = {g: i for i, g in enumerate({g for w in words for g, _ in w.letters})}
            relators = tuple(word_to_ints(r, index) for _, r, _ in self.factors)
            factors = [(word_to_ints(c, index), i, s) for i, (c, _, s) in enumerate(self.factors)]
            target = word_to_ints(self.word**self.exponent, index)
            ok = verify_factors(target, factors, relators)
            ok = ok and all(c.verify() for c in self.supporting)
            object.__setattr__(self, "_verified", ok)
        return self._verified


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
    adjoin_length_bound = max(1, word_bound // 2)

    by_core: dict[IntWord, TorsionCertificate] = {}
    exhaustive = True
    for current_level in range(1, level + 1):
        if current_level > 1:
            existing = {cyclic_key(r) for r in relators}
            adjoined = []
            for core, cert in sorted(by_core.items(), key=lambda kv: (len(kv[0]), kv[0])):
                if core not in existing:
                    existing.add(core)
                    adjoined.append((core, cert))
            relators = relators + [core for core, _ in adjoined]
            adjoined_words = tuple(ints_to_word(core, names) for core, _ in adjoined)
            supporting = tuple(cert for _, cert in adjoined)
        else:
            adjoined_words = ()
            supporting = ()

        ball = closure_ball(
            relators,
            len(p.generators),
            max_len=word_bound,
            max_depth=consequence_budget,
            max_states=max_states,
        )
        exhaustive = exhaustive and ball.exhausted
        rel_words = [ints_to_word(r, names) for r in ball.relators]
        # A member head core tail with core = root^n is w^n for the
        # reduced word w = head root tail.  Shorter members come first,
        # so each w keeps its least n.  Conjugators are spelled once per
        # level; w is keyed by its core only if the next level may adjoin it.
        spelled: dict[IntWord, Word] = {}
        least: dict[IntWord, tuple[int, IntWord]] = {}
        for power in sorted(ball.parents, key=len):
            head, core, tail = cyclic_split_ints(power)
            for n in range(1, min(exponent_bound, len(core)) + 1):
                root = core[: len(core) // n]
                if root * n == core:
                    least.setdefault(head + root + tail, (n, power))
        found: list[TorsionCertificate] = []
        new_by_core: dict[IntWord, TorsionCertificate] = {}
        for w in sorted(least, key=lambda w: (len(w), [2 * abs(x) - (x > 0) for x in w])):
            n, power = least[w]
            raw_factors = ball.factors(power)
            assert verify_factors(power, raw_factors, ball.relators)
            for c, _, _ in raw_factors:
                if c not in spelled:
                    spelled[c] = ints_to_word(c, names)
            factors = tuple((spelled[c], rel_words[ridx], sign) for c, ridx, sign in raw_factors)
            cert = TorsionCertificate(
                ints_to_word(w, names),
                n,
                current_level,
                factors,
                adjoined_words,
                supporting,
            )
            found.append(cert)
            if current_level < level and len(cyclic_split_ints(w)[1]) <= adjoin_length_bound:
                new_by_core.setdefault(cyclic_key(w), cert)
        certificates = tuple(found)
        by_core = new_by_core
    return CertificateSearchReport(
        level, word_bound, exponent_bound, consequence_budget, exhaustive, certificates
    )
