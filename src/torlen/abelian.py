"""Exact integer Smith normal form and abelian invariants.

One elimination loop over sparse ``{col: value}`` rows, with one pivot
rule, computes every Smith normal form: ``abelianization`` hands it the
relators' exponent sums directly, and ``smith_normal_form`` converts a
dense matrix first.  Everything runs over Python's arbitrary-precision
ints; entries like 3 * 2**n arise quickly in the constructions and must
not overflow.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from itertools import compress
from math import gcd


@dataclass(frozen=True)
class AbelianInvariants:
    """Invariant factors d_1 | d_2 | ... (each >= 2) plus free rank."""

    torsion_coefficients: tuple[int, ...]
    free_rank: int

    def __post_init__(self):
        coeffs = self.torsion_coefficients
        if any(d < 2 for d in coeffs):
            raise ValueError("torsion coefficients must be >= 2")
        if any(coeffs[i + 1] % coeffs[i] for i in range(len(coeffs) - 1)):
            raise ValueError("torsion coefficients must form a divisibility chain")
        if self.free_rank < 0:
            raise ValueError("free rank must be non-negative")

    def to_json(self) -> dict:
        return {"torsion": list(self.torsion_coefficients), "free_rank": self.free_rank}


def smith_normal_form(matrix: list[list[int]]) -> list[int]:
    """Diagonal of the Smith normal form of an integer matrix.

    Returns the list of diagonal entries d_1 | d_2 | ... (non-negative,
    zeros trailing), of length min(rows, cols).
    """
    n_cols = len(matrix[0]) if matrix else 0
    rows = [{j: row[j] for j in compress(range(n_cols), row)} for row in matrix]
    factors = _sparse_snf(rows)
    return factors + [0] * (min(len(matrix), n_cols) - len(factors))


def _sparse_snf(rows: list[dict[int, int]]) -> list[int]:
    """Nonzero invariant factors, ascending, of the matrix whose rows are
    given as ``{col: value}`` dicts without zero values; the rows are
    consumed.

    Elimination keeps a column -> rows index and one worklist of touched
    rows, each tried for a divisor pivot: an entry equal to its row's gcd
    g up to sign that divides every entry of its column, the column with
    the fewest rows winning.  It splits off diag(g, M') exactly; a unit is
    the case g = 1, which divides any column.  When the worklist runs dry,
    the entry d of least absolute value reduces its column, or, if it is
    alone there, its row, modulo d, and the rows it touched are queued;
    each such step shrinks an entry or empties a column, so the loop
    ends.  The collected diagonal is merged into invariant factors (Havas,
    Holt & Rees, "Recognizing badly presented Z-modules", Linear Algebra
    Appl. 192, 1993).
    """
    cols: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        for j in row:
            cols.setdefault(j, set()).add(i)
    diag: list[int] = []

    def clear_column(p: int, c: int) -> list[int]:
        """Subtract multiples of row p from the other rows of column c,
        leaving each entry there its remainder mod row p's.  Returns the
        touched rows."""
        prow = rows[p]
        d = prow[c]
        touched = [r for r in cols[c] if r != p]
        for r in touched:
            row = rows[r]
            f = row[c] // d
            for j, v in prow.items():
                x = row.get(j, 0) - f * v
                if x:
                    if j not in row:
                        cols[j].add(r)
                    row[j] = x
                else:
                    del row[j]
                    cols[j].discard(r)
        return touched

    def eliminate(p: int, c: int) -> list[int]:
        """Clear column c with pivot row p, whose entry there divides every
        entry of row p and of column c; drop both.  Returns the touched rows."""
        touched = clear_column(p, c)
        prow = rows[p]
        for j in prow:
            cols[j].discard(p)
        diag.append(abs(prow[c]))
        rows[p] = {}
        return touched

    def reduce_row(p: int, c: int) -> list[int]:
        """Reduce row p modulo its entry in column c, which holds no other
        row, so the column operations change row p alone."""
        prow = rows[p]
        d = prow[c]
        for j in [j for j in prow if j != c]:
            x = prow[j] % d
            if x:
                prow[j] = x
            else:
                del prow[j]
                cols[j].discard(p)
        return [p]

    def divisor_pivot(p: int) -> int | None:
        row = rows[p]
        g = gcd(*row.values())
        fits = [
            j for j, v in row.items()
            if abs(v) == g and (g == 1 or all(rows[r][j] % g == 0 for r in cols[j]))
        ]
        return min(fits, key=lambda j: len(cols[j])) if fits else None

    work = deque(range(len(rows)))
    while True:
        while work:
            p = work.popleft()
            c = divisor_pivot(p)
            if c is not None:
                work.extend(eliminate(p, c))
        live = [(abs(v), p, c) for p, row in enumerate(rows) for c, v in row.items()]
        if not live:
            break
        _, p, c = min(live)
        work.extend(clear_column(p, c) if len(cols[c]) > 1 else reduce_row(p, c))
    return _invariant_factors(diag)


def _invariant_factors(diag: list[int]) -> list[int]:
    """Invariant factors of diag(d_1, ..., d_k) for positive d_i, in
    ascending order.  Over a coprime base b_1, b_2, ... of the entries each
    d_i is a product of powers of the b's, and, as for primes, the largest
    factor takes the largest power of every b, the next the next largest."""
    counts = Counter(diag)
    factors = [1] * len(diag)
    for b in _coprime_base([v for v in counts if v > 1]):
        powers = []
        for v, k in counts.items():
            e = 0
            while v % b == 0:
                v //= b
                e += 1
            if e:
                powers += [e] * k
        powers.sort(reverse=True)
        for i, e in enumerate(powers):
            factors[-1 - i] *= b**e
    return factors


def _coprime_base(values: list[int]) -> list[int]:
    """Pairwise coprime integers > 1 of which every value is a product
    (factor refinement: split any two that share a factor g into g and
    their cofactors until none do)."""
    base: list[int] = []
    stack = list(values)
    while stack:
        x = stack.pop()
        if x == 1:
            continue
        for i, b in enumerate(base):
            g = gcd(x, b)
            if g > 1:
                del base[i]
                stack += [g, b // g, x // g]
                break
        else:
            base.append(x)
    return base


def invariants_from_diagonal(diag: list[int], n_generators: int) -> AbelianInvariants:
    torsion = tuple(d for d in diag if d >= 2)
    rank_of_matrix = sum(1 for d in diag if d != 0)
    return AbelianInvariants(torsion, n_generators - rank_of_matrix)
