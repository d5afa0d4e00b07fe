"""Builders for the torsion-length presentation families.

Covers the three-generator P_{j,k,l} family, the binary-tree family
P_n, the two-generator tgen embedding, the torsion-raising lift, its
iterates Q_n, and truncated free-product chains.
"""

from __future__ import annotations

from dataclasses import dataclass

from .presentation import (
    Presentation,
    PresentationError,
    eliminate_generator_with_image,
    hnn_presentation,
)
from .stallings import build_subgroup_graph, free_basis
from .words import Word, concat, free_reduce, fresh_symbol


def build_pjkl(j: int, k: int, l: int) -> Presentation:
    """< x, y, z | x^j, y^k, x y z^-l > -- torsion length 2 family."""
    if min(j, k, l) < 2:
        raise PresentationError("parameters must all be >= 2")
    x, y, z = Word.gen("x"), Word.gen("y"), Word.gen("z")
    return Presentation(
        ("x", "y", "z"),
        (x**j, y**k, x * y * z ** (-l)),
    )


def _binary_strings(length: int) -> list[str]:
    return ["".join(bits) for bits in _bit_product(length)]


def _bit_product(length: int):
    if length == 0:
        yield ()
        return
    for prefix in _bit_product(length - 1):
        yield prefix + ("0",)
        yield prefix + ("1",)


def _pn_gen(eta: str) -> str:
    return "x_" + eta


def build_pn(n: int, exponent: int = 3) -> Presentation:
    """The binary-tree family: generators x_eta for binary strings eta
    of length < n; leaf power relators x_eta^exponent at depth n-1 and
    linking relators x_eta0 x_eta1 x_eta^-exponent above.

    2^n - 1 generators and 2^n - 1 relators; n = 0 gives the empty
    presentation.
    """
    if n < 0:
        raise PresentationError("n must be >= 0")
    if exponent < 2:
        raise PresentationError("exponent must be >= 2")
    gens = []
    for depth in range(n):
        gens.extend(_pn_gen(eta) for eta in _binary_strings(depth))
    relators = []
    for eta in _binary_strings(n - 1) if n >= 1 else []:
        relators.append(Word.gen(_pn_gen(eta), exponent))
    for depth in range(max(0, n - 1)):
        for eta in _binary_strings(depth):
            relators.append(
                free_reduce(
                    Word.gen(_pn_gen(eta + "0"))
                    * Word.gen(_pn_gen(eta + "1"))
                    * Word.gen(_pn_gen(eta), -exponent)
                )
            )
    return Presentation(tuple(gens), tuple(relators))


def build_chain(m: int) -> Presentation:
    """Truncated free-product chain P_0 * P_1 * ... * P_m with
    per-factor generator tags ``f<i>.``."""
    if m < 0:
        raise PresentationError("m must be >= 0")
    gens: list[str] = []
    relators: list[Word] = []
    for i in range(m + 1):
        factor = build_pn(i)
        tag = f"f{i}."
        gens.extend(tag + g for g in factor.generators)
        relators.extend(
            Word(tuple((tag + g, s) for g, s in r.letters)) for r in factor.relators
        )
    return Presentation(tuple(gens), tuple(relators))


# -- the two-generator embedding -------------------------------------------


@dataclass(frozen=True)
class TgenResult:
    presentation: Presentation  # generators exactly (a, t)
    intermediate: Presentation  # the HNN stage, before eliminations
    images: dict[str, Word]  # each input generator as a word in a, t


def build_tgen(p: Presentation) -> TgenResult:
    """Embed the group of ``p`` into a two-generator group.

    Pipeline: free product with a free group on a, b; HNN extension
    with stable letter t over the pairs (x_i b^-i a b^i, a^-i b a^i),
    i = 0..n with the i = 0 pair being (a, b); then Tietze-eliminate b
    and every x_i.  The result has generators exactly {a, t}.
    """
    reserved = {"a", "b", "t"}
    taken = set(p.generators) | reserved
    rename = {}
    for g in p.generators:
        rename[g] = fresh_symbol(g, taken) if g in reserved else g
        taken.add(rename[g])
    gens = tuple(rename[g] for g in p.generators)
    relators = tuple(
        Word(tuple((rename[g], s) for g, s in r.letters)) for r in p.relators
    )

    a, b = Word.gen("a"), Word.gen("b")
    base = Presentation(gens + ("a", "b"), relators)
    pairs = [(a, b)]
    for i, g in enumerate(gens, start=1):
        pairs.append((Word.gen(g) * b ** (-i) * a * b**i, a ** (-i) * b * a**i))
    intermediate = hnn_presentation(base, pairs, "t")

    # eliminate b via the i = 0 pair relator, then each x_i via its own
    current = intermediate
    images: dict[str, Word] = {}
    first_pair_index = len(relators)
    current, b_image = eliminate_generator_with_image(current, "b", first_pair_index)
    images["b"] = b_image
    for g in gens:
        # each elimination drops its pair relator, so the next pair
        # relator is always at index len(relators)
        current, g_image = eliminate_generator_with_image(current, g, len(relators))
        images[g] = g_image
    out_images = {g: images[rename[g]] for g in p.generators}
    return TgenResult(current, intermediate, out_images)


# -- torsion-raising lift ---------------------------------------------------


@dataclass(frozen=True)
class LnResult:
    presentation: Presentation
    rank: int
    basis: tuple[Word, ...]
    degenerate: bool  # input had no relators; output is just G * (C2*C3)


def _expand_ab(word_in_ab: Word, x: str, y: str) -> Word:
    """Rewrite a word over the abstract letters a, b using a = yxy and
    b = xyxyx inside C2 * C3."""
    a_word = Word.from_text(f"{y} {x} {y}")
    b_word = Word.from_text(f"{x} {y} {x} {y} {x}")
    images = {"a": a_word, "b": b_word}
    return free_reduce(
        concat(
            images[g] if s == 1 else images[g].inverse()
            for g, s in word_in_ab.letters
        )
    )


def build_ln(p: Presentation) -> LnResult:
    """One torsion-lift step: a presentation whose group maps onto the
    input group with kernel exactly the first torsion subgroup.

    Computes a free basis t_1..t_r of the subgroup generated by the
    relators (via Stallings folding) and glues it to the free subgroup
    <b^-i a b^i> of C2 * C3, with a = yxy and b = xyxyx.
    """
    taken = set(p.generators)
    x = fresh_symbol("x", taken)
    y = fresh_symbol("y", taken | {x})

    graph = build_subgroup_graph(p.generators, p.relators)
    basis = free_basis(graph).words
    r = len(basis)
    degenerate = r == 0

    gens = p.generators + (x, y)
    relators = [Word.gen(x, 2), Word.gen(y, 3)]
    ab = Word.from_text("a")
    bb = Word.from_text("b")
    for i, t_word in enumerate(basis, start=1):
        glued = bb ** (-i) * ab * bb**i
        relators.append(free_reduce(t_word * _expand_ab(glued, x, y).inverse()))
    return LnResult(Presentation(gens, tuple(relators)), r, basis, degenerate)


def build_qn(n: int) -> Presentation:
    """Iterated torsion lifts starting from < z | z^2 >: 2n-1
    generators and at most 2n-1 relators.  Practical up to n = 4 or so
    (relator length grows fast)."""
    if n < 1:
        raise PresentationError("n must be >= 1")
    current = Presentation(("z",), (Word.gen("z", 2),))
    for _ in range(n - 1):
        current = build_ln(current).presentation
    return current
