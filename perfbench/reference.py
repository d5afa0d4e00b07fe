"""The benchmark's own reference math, independent of torlen.

Words here are tuples of (name, sign) letters, the same shape as
``Word.letters``, so torlen's objects can be checked without calling
any torlen code.
"""

from __future__ import annotations

import math
from itertools import combinations


def free_reduce(letters) -> tuple:
    stack: list = []
    for name, sign in letters:
        if stack and stack[-1] == (name, -sign):
            stack.pop()
        else:
            stack.append((name, sign))
    return tuple(stack)


def invert(letters) -> tuple:
    return tuple((name, -sign) for name, sign in reversed(letters))


def cyclic_core(letters) -> tuple:
    w = free_reduce(letters)
    while len(w) >= 2 and w[0] == (w[-1][0], -w[-1][1]):
        w = w[1:-1]
    return w


def is_rotation_up_to_inverse(a: tuple, b: tuple) -> bool:
    """True iff ``a`` is a cyclic rotation of ``b`` or of ``b``'s inverse."""
    if len(a) != len(b):
        return False
    if not a:
        return True
    return any(a == v[k:] + v[:k] for v in (b, invert(b)) for k in range(len(v)))


def parse_text(text: str) -> tuple[list[str], list[tuple]]:
    """The ``gens:`` / ``rel:`` file format, comments not needed."""
    gens: list[str] = []
    rels: list[tuple] = []
    for line in text.splitlines():
        if line.startswith("gens:"):
            gens = line[5:].split()
        elif line.startswith("rel:"):
            rels.append(
                tuple((tok[:-3], -1) if tok.endswith("^-1") else (tok, 1) for tok in line[4:].split())
            )
    return gens, rels


def exponent_matrix(gens, rels) -> list[list[int]]:
    index = {g: i for i, g in enumerate(gens)}
    matrix = []
    for r in rels:
        row = [0] * len(gens)
        for name, sign in r:
            row[index[name]] += sign
        matrix.append(row)
    return matrix


def abs_det(matrix: list[list[int]]) -> int:
    """|det| of a square integer matrix by fraction-free (Bareiss)
    elimination over sparse rows.  Every intermediate entry is a minor
    of the input, so each division is exact."""
    n = len(matrix)
    rows = [{j: v for j, v in enumerate(row) if v} for row in matrix]
    remaining = list(range(n))
    prev = 1
    for col in range(n):
        candidates = [i for i in remaining if col in rows[i]]
        if not candidates:
            return 0
        p = min(candidates, key=lambda i: len(rows[i]))
        remaining.remove(p)
        pivot_row = rows[p]
        a = pivot_row[col]
        for i in remaining:
            row = rows[i]
            b = row.pop(col, 0)
            new = {j: a * v for j, v in row.items()}
            if b:
                for j, v in pivot_row.items():
                    if j != col:
                        new[j] = new.get(j, 0) - b * v
            rows[i] = {j: v // prev for j, v in new.items() if v}
        prev = a
    return abs(prev)


def snf_by_minors(matrix: list[list[int]]) -> list[int]:
    """Smith diagonal from gcds of k x k minors (small matrices only)."""
    rows, cols = len(matrix), len(matrix[0])
    diag, prev = [], 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rs in combinations(range(rows), k):
            for cs in combinations(range(cols), k):
                g = math.gcd(g, abs_det([[matrix[i][j] for j in cs] for i in rs]))
        if g == 0:
            break
        diag.append(g // prev)
        prev = g
    return diag + [0] * (min(rows, cols) - len(diag))


def free_product_normal_form(orders: dict[str, tuple[int, int]], letters) -> tuple:
    """Syllables (factor index, exponent mod order) of a word in a free
    product of finite cyclic groups, by stack reduction.  ``orders``
    maps a generator to (factor index, order)."""
    stack: list[list[int]] = []
    for name, sign in letters:
        factor, order = orders[name]
        if stack and stack[-1][0] == factor:
            stack[-1][1] = (stack[-1][1] + sign) % order
            if stack[-1][1] == 0:
                stack.pop()
        else:
            stack.append([factor, sign % order])
    return tuple((f, e) for f, e in stack)


def certificate_error(cert, base_relators: set, checked: dict) -> str | None:
    """Recheck a TorsionCertificate from its own data: the product of
    its conjugated factors must freely reduce to word^exponent, every
    factor's relator must be a base relator or one of its adjoined
    cores, every adjoined core must be the cyclic core of the supporting
    certificate one level down, and the supporting certificates must
    pass the same check.  Returns None when it holds, else a reason."""
    key = id(cert)
    if key in checked:
        return checked[key]
    error = None
    adjoined = {w.letters for w in cert.adjoined}
    expanded: list = []
    for conj, rel, sign in cert.factors:
        if rel.letters not in base_relators and rel.letters not in adjoined:
            error = f"factor relator {rel.letters} is neither a base relator nor adjoined"
            break
        body = rel.letters if sign == 1 else invert(rel.letters)
        expanded.extend(conj.letters + body + invert(conj.letters))
    if error is None:
        target = free_reduce(cert.word.letters * cert.exponent)
        if free_reduce(tuple(expanded) + invert(target)):
            error = "factors do not multiply to word^exponent"
    if error is None and len(cert.adjoined) != len(cert.supporting):
        error = "adjoined cores and supporting certificates differ in number"
    if error is None:
        for core, support in zip(cert.adjoined, cert.supporting):
            if support.level != cert.level - 1:
                error = "supporting certificate is not one level down"
            elif not is_rotation_up_to_inverse(core.letters, cyclic_core(support.word.letters)):
                error = f"adjoined {core.letters} is not the core of its supporting certificate"
            else:
                error = certificate_error(support, base_relators, checked)
            if error:
                break
    checked[key] = error
    return error
