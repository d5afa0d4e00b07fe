"""Group presentations and Tietze-style transformations.

A Presentation is an ordered generator list plus a list of relator
words.  Relators are freely reduced on construction; duplicates are
kept (canonicalize is the only deduplicating operation).

``Presentation(...)`` and ``parse_presentation`` check their input;
moves whose output is valid by construction build it unchecked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .abelian import AbelianInvariants, _sparse_snf, invariants_from_diagonal
from .words import (
    Word,
    _SYMBOL_RE,
    _word,
    check_symbol,
    cyclic_reduce,
    free_reduce,
    fresh_symbol,
    least_rotation,
    substitute,
)


class PresentationError(ValueError):
    pass


class PresentationSyntaxError(PresentationError):
    def __init__(self, message: str, line: int, column: int = 0):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class Presentation:
    generators: tuple[str, ...]
    relators: tuple[Word, ...]

    def __post_init__(self):
        seen = set()
        for g in self.generators:
            check_symbol(g)
            if g in seen:
                raise PresentationError(f"duplicate generator {g!r}")
            seen.add(g)
        for r in self.relators:
            if extra := r.symbols() - seen:
                raise PresentationError(f"relator mentions undeclared generator(s) {sorted(extra)}")
        object.__setattr__(self, "relators", tuple(free_reduce(r) for r in self.relators))


def _presentation(generators: tuple[str, ...], relators: tuple[Word, ...]) -> Presentation:
    """A Presentation from distinct checked generators and reduced
    relators over them, built without ``Presentation``'s checks."""
    p = object.__new__(Presentation)
    object.__setattr__(p, "generators", generators)
    object.__setattr__(p, "relators", relators)
    return p


@dataclass(frozen=True)
class FreeProductResult:
    presentation: Presentation
    rename: dict[str, str]  # each right-factor generator to its new name


def free_product(p: Presentation, q: Presentation) -> FreeProductResult:
    """Disjoint union of generators and relators.  Name clashes on the
    right factor are renamed by ``fresh_symbol`` (a ``_k`` suffix that
    no other generator uses, so the injections stay unambiguous)."""
    taken = set(p.generators)
    rename: dict[str, str] = {}
    gens = list(p.generators)
    for g in q.generators:
        new = fresh_symbol(g, taken)
        rename[g] = new
        taken.add(new)
        gens.append(new)
    q_rels = tuple(_word(tuple((rename[g], s) for g, s in r.letters)) for r in q.relators)
    return FreeProductResult(_presentation(tuple(gens), p.relators + q_rels), rename)


def adjoin_relators(p: Presentation, new_relators: Iterable[Word]) -> Presentation:
    return Presentation(p.generators, p.relators + tuple(new_relators))


def hnn_presentation(
    p: Presentation, pairs: Sequence[tuple[Word, Word]], stable: str
) -> Presentation:
    """Adjoin a stable letter t with relators t^-1 u t v^-1 per pair."""
    check_symbol(stable)
    if stable in p.generators:
        raise PresentationError(f"stable symbol {stable!r} clashes with a generator")
    if any(stable in w.symbols() for pair in pairs for w in pair):
        raise PresentationError(f"pair word mentions the stable symbol {stable!r}")
    t = Word.gen(stable)
    new_rels = tuple(t.inverse() * u * t * v.inverse() for u, v in pairs)
    return Presentation(p.generators + (stable,), p.relators + new_rels)


def kill_generators(p: Presentation, victims: Iterable[str]) -> Presentation:
    """Quotient by the normal closure of the victim generators, then
    simplify: victims vanish from relators, empty relators are dropped."""
    victims = set(victims)
    if extra := victims - set(p.generators):
        raise PresentationError(f"cannot kill undeclared generator(s) {sorted(extra)}")
    gens = tuple(g for g in p.generators if g not in victims)
    rels = []
    for r in p.relators:
        new = free_reduce(_word(tuple(l for l in r.letters if l[0] not in victims)))
        if new:
            rels.append(new)
    return _presentation(gens, tuple(rels))


def eliminate_generator_with_image(
    p: Presentation, g: str, defining_relator_index: int
) -> tuple[Presentation, Word]:
    """Tietze elimination: the indicated relator must contain exactly
    one occurrence of g, so it rearranges to g = w; substitute w for g
    everywhere and drop the defining relator.  Returns the new
    presentation and the image w of g."""
    if g not in p.generators:
        raise PresentationError(f"unknown generator {g!r}")
    if not 0 <= defining_relator_index < len(p.relators):
        raise PresentationError(f"no relator at index {defining_relator_index}")
    relator = p.relators[defining_relator_index]
    positions = [i for i, (name, _) in enumerate(relator.letters) if name == g]
    if len(positions) != 1:
        raise PresentationError(
            f"relator {relator} has {len(positions)} occurrences of {g!r}, need exactly 1"
        )
    i = positions[0]
    sign = relator.letters[i][1]
    before = _word(relator.letters[:i])
    after = _word(relator.letters[i + 1 :])
    # relator = before * g^sign * after = e
    if sign == 1:
        image = free_reduce(before.inverse() * after.inverse())
    else:
        image = free_reduce(after * before)
    mapping = {g: image}
    gens = tuple(h for h in p.generators if h != g)
    # a relator without g is already reduced, so it is kept as it is
    rels = tuple(
        substitute(r, mapping) if (g, 1) in r.letters or (g, -1) in r.letters else r
        for j, r in enumerate(p.relators)
        if j != defining_relator_index
    )
    return _presentation(gens, rels), image


# -- canonical form -------------------------------------------------------


def canonicalize(p: Presentation) -> Presentation:
    """Deterministic structural normal form.

    Drops empty relators, cyclically reduces and canonically rotates
    each relator, sorts relators by (length, lex), relabels generators
    g0, g1, ... by first occurrence, and deduplicates relators.
    Generators mentioned in no relator are kept (free factors matter).
    The relabelling repeats until the order of the generators is a fixed
    point, which it always reaches: each new order strictly lowers the
    sorted relator codes.
    """
    cores = []
    for r in p.relators:
        core, _ = cyclic_reduce(r)
        if core:
            cores.append(core)

    order = {g: i for i, g in enumerate(p.generators)}
    while True:
        # letter g^s encodes as 2*order[g] + (s == -1), its inverse as
        # code ^ 1, so int order is (generator order, sign) order
        by_order = sorted(order, key=order.__getitem__)
        codes = []
        for c in cores:
            code = tuple(2 * order[g] + (s == -1) for g, s in c.letters)
            codes.append(least_rotation(code, tuple(x ^ 1 for x in reversed(code))))
        codes.sort(key=lambda code: (len(code), code))
        # Read the sorted codes as one sequence S.  Numbering generators
        # by first occurrence in S is the renumbering that makes S least,
        # and strictly lower unless the order is unchanged; rotating and
        # sorting again under the new order can only lower it further.
        # So S falls strictly in every round, and there are finitely many
        # orders.
        new_order: dict[str, int] = {}
        for code in codes:
            for x in code:
                new_order.setdefault(by_order[x >> 1], len(new_order))
        for g in by_order:
            new_order.setdefault(g, len(new_order))
        if new_order == order:
            break
        order = new_order
    # at the fixed point generator by_order[i] is named gi; each relator
    # once, at its first place
    gens = tuple(f"g{i}" for i in range(len(order)))
    rels = dict.fromkeys(tuple((gens[x >> 1], -1 if x & 1 else 1) for x in code) for code in codes)
    return _presentation(gens, tuple(map(_word, rels)))


# -- abelianization -------------------------------------------------------


def abelianization(p: Presentation) -> AbelianInvariants:
    """Invariants of the abelianized group, via exact integer Smith
    normal form of the relator exponent sums, one ``{col: sum}`` row per
    relator."""
    index = {g: i for i, g in enumerate(p.generators)}
    rows = []
    for r in p.relators:
        row: dict[int, int] = {}
        for g, s in r.letters:
            j = index[g]
            row[j] = row.get(j, 0) + s
        rows.append({j: v for j, v in row.items() if v})
    return invariants_from_diagonal(_sparse_snf(rows), len(p.generators))


# -- serialization --------------------------------------------------------


def parse_presentation(text: str) -> Presentation:
    """Parse the presentation file format:

        gens: g1 g2 ...
        rel: tok tok ...      (# starts a comment)
    """
    generators: list[str] | None = None
    declared: set[str] = set()
    relators: list[Word] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("gens:"):
            if generators is not None:
                raise PresentationSyntaxError("duplicate gens: line", lineno)
            generators = []
            for tok in line[len("gens:") :].split():
                # check_symbol's rule without its cache, which would keep
                # every parsed name alive for the rest of the process
                if not _SYMBOL_RE.fullmatch(tok):
                    raise PresentationSyntaxError(
                        f"bad generator token {tok!r}", lineno, raw.index(tok)
                    )
                if tok in declared:
                    raise PresentationSyntaxError(f"duplicate generator {tok!r}", lineno)
                declared.add(tok)
                generators.append(tok)
        elif line.startswith("rel:"):
            if generators is None:
                raise PresentationSyntaxError("rel: before gens:", lineno)
            letters = []
            for tok in line[len("rel:") :].split():
                if tok.endswith("^-1"):
                    name, sign = tok[:-3], -1
                else:
                    name, sign = tok, 1
                if name not in declared:
                    # declared names passed the rule, so only here can a
                    # token be malformed
                    if not _SYMBOL_RE.fullmatch(name):
                        raise PresentationSyntaxError(f"bad token {tok!r}", lineno, raw.index(tok))
                    raise PresentationSyntaxError(f"undeclared symbol {name!r}", lineno)
                letters.append((name, sign))
            relators.append(free_reduce(_word(tuple(letters))))
        else:
            raise PresentationSyntaxError(f"unrecognized line {line!r}", lineno)
    # a rel: line needs a gens: line before it, so text without one is empty
    return _presentation(tuple(generators or ()), tuple(relators))


def serialize_presentation(p: Presentation) -> str:
    lines = ["gens: " + " ".join(p.generators) if p.generators else "gens:"]
    for r in p.relators:
        lines.append("rel: " + r.to_text())
    return "\n".join(lines) + "\n"
