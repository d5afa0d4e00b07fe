"""Group presentations and Tietze-style transformations.

A Presentation is an ordered generator list plus a list of relator
words.  Relators are freely reduced on construction; duplicates are
kept (canonicalize is the only deduplicating operation).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .abelian import AbelianInvariants, invariants_from_diagonal, smith_normal_form
from .consequences import closure_ball
from .words import (
    Word,
    check_symbol,
    cyclic_reduce,
    free_reduce,
    fresh_symbol,
    invert_ints,
    least_rotation,
    substitute,
    word_to_ints,
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
        reduced = tuple(free_reduce(r) for r in self.relators)
        for r in reduced:
            extra = r.symbols() - seen
            if extra:
                raise PresentationError(f"relator mentions undeclared generator(s) {sorted(extra)}")
        object.__setattr__(self, "relators", reduced)

    @classmethod
    def build(cls, generators: Sequence[str], relators: Iterable[Word] = ()) -> "Presentation":
        return cls(tuple(generators), tuple(relators))

    def __str__(self) -> str:
        gens = " ".join(self.generators) if self.generators else "-"
        rels = ", ".join(str(r) for r in self.relators) if self.relators else "-"
        return f"< {gens} | {rels} >"


@dataclass(frozen=True)
class PresentationMorphism:
    """A map of presentations given by generator images.

    ``relator_status`` records, per source relator, whether its image is
    certified trivial in the target (by free/cyclic reduction, literal
    match against a target relator, or bounded consequence search) or
    left "unverified".  Unverified relators are reported, never
    silently accepted.
    """

    source: Presentation
    target: Presentation
    images: dict[str, Word]

    def apply(self, w: Word) -> Word:
        return substitute(w, self.images)

    def relator_status(self, search_budget: int = 6) -> tuple[str, ...]:
        statuses = []
        index = {g: i for i, g in enumerate(self.target.generators)}

        def cyclic_class(w: Word):
            core = word_to_ints(cyclic_reduce(w)[0], index)
            return least_rotation(core, invert_ints(core))

        target_classes = {cyclic_class(r) for r in self.target.relators}
        ball = None
        for r in self.source.relators:
            image = free_reduce(self.apply(r))
            if not image:
                statuses.append("trivial")
                continue
            if cyclic_class(image) in target_classes:
                statuses.append("relator-match")
                continue
            if ball is None:
                rel_ints = [word_to_ints(t, index) for t in self.target.relators]
                ball = closure_ball(
                    rel_ints,
                    len(self.target.generators),
                    max_len=max(len(image), search_budget),
                    max_depth=search_budget,
                    max_states=50_000,
                )
            statuses.append(
                "consequence" if word_to_ints(image, index) in ball else "unverified"
            )
        return tuple(statuses)


@dataclass(frozen=True)
class FreeProductResult:
    presentation: Presentation
    left: PresentationMorphism
    right: PresentationMorphism


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
    q_rels = tuple(
        Word(tuple((rename[g], s) for g, s in r.letters)) for r in q.relators
    )
    out = Presentation(tuple(gens), p.relators + q_rels)
    left = PresentationMorphism(p, out, {g: Word.gen(g) for g in p.generators})
    right = PresentationMorphism(q, out, {g: Word.gen(rename[g]) for g in q.generators})
    return FreeProductResult(out, left, right)


def adjoin_relators(p: Presentation, new_relators: Iterable[Word]) -> Presentation:
    new = tuple(new_relators)
    for r in new:
        extra = r.symbols() - set(p.generators)
        if extra:
            raise PresentationError(f"relator mentions undeclared generator(s) {sorted(extra)}")
    return Presentation(p.generators, p.relators + new)


def hnn_presentation(
    p: Presentation, pairs: Sequence[tuple[Word, Word]], stable: str
) -> Presentation:
    """Adjoin a stable letter t with relators t^-1 u t v^-1 per pair."""
    check_symbol(stable)
    if stable in p.generators:
        raise PresentationError(f"stable symbol {stable!r} clashes with a generator")
    for u, v in pairs:
        extra = (u.symbols() | v.symbols()) - set(p.generators)
        if extra:
            raise PresentationError(f"pair word mentions undeclared generator(s) {sorted(extra)}")
    t = Word.gen(stable)
    new_rels = tuple(
        free_reduce(t.inverse() * u * t * v.inverse()) for u, v in pairs
    )
    return Presentation(p.generators + (stable,), p.relators + new_rels)


def kill_generators(p: Presentation, victims: Iterable[str]) -> Presentation:
    """Quotient by the normal closure of the victim generators, then
    simplify: victims vanish from relators, empty relators are dropped."""
    victims = set(victims)
    extra = victims - set(p.generators)
    if extra:
        raise PresentationError(f"cannot kill undeclared generator(s) {sorted(extra)}")
    gens = tuple(g for g in p.generators if g not in victims)
    rels = []
    for r in p.relators:
        new = free_reduce(Word(tuple(l for l in r.letters if l[0] not in victims)))
        if new:
            rels.append(new)
    return Presentation(gens, tuple(rels))


def eliminate_generator(p: Presentation, g: str, defining_relator_index: int) -> Presentation:
    """Tietze elimination: the indicated relator must contain exactly
    one occurrence of g, so it rearranges to g = w; substitute w for g
    everywhere and drop the defining relator."""
    pres, _ = eliminate_generator_with_image(p, g, defining_relator_index)
    return pres


def eliminate_generator_with_image(
    p: Presentation, g: str, defining_relator_index: int
) -> tuple[Presentation, Word]:
    if g not in p.generators:
        raise PresentationError(f"unknown generator {g!r}")
    try:
        relator = p.relators[defining_relator_index]
    except IndexError:
        raise PresentationError(f"no relator at index {defining_relator_index}")
    positions = [i for i, (name, _) in enumerate(relator.letters) if name == g]
    if len(positions) != 1:
        raise PresentationError(
            f"relator {relator} has {len(positions)} occurrences of {g!r}, need exactly 1"
        )
    i = positions[0]
    sign = relator.letters[i][1]
    before = Word(relator.letters[:i])
    after = Word(relator.letters[i + 1 :])
    # relator = before * g^sign * after = e
    if sign == 1:
        image = free_reduce(before.inverse() * after.inverse())
    else:
        image = free_reduce(after * before)
    mapping = {g: image}
    gens = tuple(h for h in p.generators if h != g)
    rels = tuple(
        substitute(r, mapping)
        for j, r in enumerate(p.relators)
        if j != defining_relator_index
    )
    return Presentation(gens, rels), image


# -- canonical form -------------------------------------------------------


def canonicalize(p: Presentation, drop_unused: bool = False) -> Presentation:
    """Deterministic structural normal form.

    Drops empty relators, cyclically reduces and canonically rotates
    each relator, sorts relators by (length, lex), relabels generators
    g0, g1, ... by first occurrence, and deduplicates relators.
    Generators mentioned in no relator are kept by default (free
    factors matter) unless ``drop_unused``.
    """
    cores = []
    for r in p.relators:
        core, _ = cyclic_reduce(r)
        if core:
            cores.append(core)

    order = {g: i for i, g in enumerate(p.generators)}
    seen_orders = [order]
    outputs = []
    for _ in range(len(p.generators) + 3):
        # letter g^s encodes as 2*order[g] + (s == -1), its inverse as
        # code ^ 1, so int order is (generator order, sign) order
        by_order = sorted(order, key=order.__getitem__)
        codes = []
        for c in cores:
            code = tuple(2 * order[g] + (s == -1) for g, s in c.letters)
            codes.append(least_rotation(code, tuple(x ^ 1 for x in reversed(code))))
        codes.sort(key=lambda code: (len(code), code))
        rotated = [
            Word(tuple((by_order[x >> 1], -1 if x & 1 else 1) for x in code))
            for code in codes
        ]
        new_order: dict[str, int] = {}
        for w in rotated:
            for name, _ in w.letters:
                if name not in new_order:
                    new_order[name] = len(new_order)
        for g in sorted((g for g in p.generators if g not in new_order), key=lambda g: order[g]):
            new_order[g] = len(new_order)
        out = _relabel(p, rotated, new_order, drop_unused, [w.symbols() for w in rotated])
        if new_order == order:
            return out  # fixed point; re-running reproduces this output
        outputs.append(out)
        if new_order in seen_orders:
            break  # order cycle; fall through to the deterministic tie-break
        seen_orders.append(new_order)
        order = new_order
    # Cycle (or iteration cap): the candidate set is a renaming
    # invariant of the structure, so the least serialized output is a
    # stable choice.
    return min(outputs, key=lambda q: (q.generators, tuple(w.letters for w in q.relators)))


def _relabel(p, rotated, order, drop_unused, used_sets):
    used = set()
    for s in used_sets:
        used |= s
    kept = [g for g in p.generators if g in used or not drop_unused]
    kept.sort(key=lambda g: order[g])
    names = {g: f"g{i}" for i, g in enumerate(kept)}
    rels = []
    seen = set()
    for w in rotated:
        new = Word(tuple((names[g], s) for g, s in w.letters))
        if new.letters not in seen:
            seen.add(new.letters)
            rels.append(new)
    return Presentation(tuple(names[g] for g in kept), tuple(rels))


# -- abelianization -------------------------------------------------------


def abelianization(p: Presentation) -> AbelianInvariants:
    """Invariants of the abelianized group, via exact integer Smith
    normal form of the relator exponent-sum matrix."""
    if not p.generators:
        return AbelianInvariants((), 0)
    index = {g: i for i, g in enumerate(p.generators)}
    matrix = []
    for r in p.relators:
        row = [0] * len(p.generators)
        for g, s in r.letters:
            row[index[g]] += s
        matrix.append(row)
    if not matrix:
        return AbelianInvariants((), len(p.generators))
    diag = smith_normal_form(matrix)
    return invariants_from_diagonal(diag, len(p.generators), len(matrix))


# -- serialization --------------------------------------------------------

_NAME_RE = re.compile(r"[A-Za-z0-9_]+")


def parse_presentation(text: str) -> Presentation:
    """Parse the presentation file format:

        gens: g1 g2 ...
        rel: tok tok ...      (# starts a comment)
    """
    generators: list[str] | None = None
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
                if not _NAME_RE.fullmatch(tok):
                    raise PresentationSyntaxError(
                        f"bad generator token {tok!r}", lineno, raw.index(tok)
                    )
                if tok in generators:
                    raise PresentationSyntaxError(f"duplicate generator {tok!r}", lineno)
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
                if not _NAME_RE.fullmatch(name):
                    raise PresentationSyntaxError(f"bad token {tok!r}", lineno, raw.index(tok))
                if name not in generators:
                    raise PresentationSyntaxError(f"undeclared symbol {name!r}", lineno)
                letters.append((name, sign))
            relators.append(Word(tuple(letters)))
        else:
            raise PresentationSyntaxError(f"unrecognized line {line!r}", lineno)
    if generators is None:
        if relators:
            raise PresentationSyntaxError("missing gens: line", 1)
        generators = []
    return Presentation(tuple(generators), tuple(relators))


def serialize_presentation(p: Presentation) -> str:
    lines = ["gens: " + " ".join(p.generators) if p.generators else "gens:"]
    for r in p.relators:
        lines.append("rel: " + r.to_text())
    return "\n".join(lines) + "\n"


def presentation_to_json(p: Presentation) -> dict:
    return {
        "generators": list(p.generators),
        "relators": [
            [g if s == 1 else g + "^-1" for g, s in r.letters] for r in p.relators
        ],
    }
