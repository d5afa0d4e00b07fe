import math
import random
from collections import deque
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from torlen.abelian import AbelianInvariants, invariants_from_diagonal, smith_normal_form
from torlen.constructions import build_pn
from torlen.presentation import Presentation, abelianization
from torlen.words import Word


def minors_gcd(matrix, k):
    """gcd of all k x k minors, by brute-force cofactor expansion."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0

    def det(sub):
        n = len(sub)
        if n == 1:
            return sub[0][0]
        total = 0
        for j in range(n):
            minor = [row[:j] + row[j + 1 :] for row in sub[1:]]
            total += (-1) ** j * sub[0][j] * det(minor)
        return total

    g = 0
    for rs in combinations(range(rows), k):
        for cs in combinations(range(cols), k):
            sub = [[matrix[i][j] for j in cs] for i in rs]
            g = math.gcd(g, det(sub))
    return g


def snf_oracle(matrix):
    """Independent diagonal via determinantal divisors: d_k = g_k / g_{k-1}
    with g_k the gcd of all k x k minors."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    n = min(rows, cols)
    diag = []
    prev = 1
    for k in range(1, n + 1):
        g = minors_gcd(matrix, k)
        if g == 0:
            diag.extend([0] * (n - len(diag)))
            break
        diag.append(g // prev)
        prev = g
    return diag


@pytest.mark.parametrize(
    "matrix, expected",
    [
        ([[2, 0], [0, 3]], [1, 6]),
        ([[1, 0], [0, 0]], [1, 0]),
        ([[0, 0], [0, 0]], [0, 0]),
        ([[2, 4], [6, 8]], [2, 4]),
        ([[3]], [3]),
        ([[6, 0, 0], [0, 10, 0], [0, 0, 15]], [1, 30, 30]),
        # no unit or divisor pivot: the least entry reduces its row ...
        ([[6, 4]], [2]),
        # ... or its column
        ([[6], [4]], [2]),
        ([[6, 10], [10, 6]], [2, 32]),
    ],
)
def test_snf_known_values(matrix, expected):
    assert smith_normal_form(matrix) == expected == snf_oracle(matrix)


def test_snf_divisibility_chain_holds():
    rng = random.Random(99)
    for _ in range(50):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        diag = smith_normal_form(m)
        nonzero = [d for d in diag if d]
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0
        # zeros only at the end
        seen_zero = False
        for d in diag:
            if d == 0:
                seen_zero = True
            else:
                assert not seen_zero


def test_snf_against_minor_gcd_oracle():
    rng = random.Random(42)
    for _ in range(120):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        assert smith_normal_form(m) == snf_oracle(m), m


# Entries with no unit among them, so that elimination needs divisor pivots
# or the dense residue solver.
NO_UNIT = (0, 2, -2, 3, -3, 4, -4, 6, -6, 9, -9)


@st.composite
def small_matrices(draw):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    entries = draw(st.sampled_from((st.integers(-5, 5), st.sampled_from(NO_UNIT))))
    m = [[draw(entries) for _ in range(cols)] for _ in range(rows)]
    zero_row = draw(st.none() | st.integers(0, rows - 1))
    if zero_row is not None:
        m[zero_row] = [0] * cols
    zero_col = draw(st.none() | st.integers(0, cols - 1))
    if zero_col is not None:
        for row in m:
            row[zero_col] = 0
    return m


@settings(max_examples=300, deadline=None)
@given(small_matrices())
def test_snf_matches_minor_gcd_oracle_on_random_matrices(m):
    assert smith_normal_form(m) == snf_oracle(m)


def reference_sparse_snf(rows):
    """Frozen copy of the three-tier elimination loop (unit queue, divisor
    queue, full sweep, least entry) that ``smith_normal_form`` once used,
    returning the diagonal it collects before merging."""
    cols = {}
    for i, row in enumerate(rows):
        for j in row:
            cols.setdefault(j, set()).add(i)
    diag = []

    def clear_column(p, c):
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

    def eliminate(p, c):
        touched = clear_column(p, c)
        prow = rows[p]
        for j in prow:
            cols[j].discard(p)
        diag.append(abs(prow[c]))
        rows[p] = {}
        return touched

    def reduce_row(p, c):
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

    def unit_pivot(p):
        units = [j for j, v in rows[p].items() if v == 1 or v == -1]
        return min(units, key=lambda j: len(cols[j])) if units else None

    def divisor_pivot(p):
        row = rows[p]
        g = 0
        for v in row.values():
            g = math.gcd(g, v)
        fits = [
            j for j, v in row.items()
            if abs(v) == g and all(rows[r][j] % g == 0 for r in cols[j])
        ]
        return min(fits, key=lambda j: len(cols[j])) if fits else None

    unit_queue = deque(range(len(rows)))
    divisor_queue = deque()
    full_sweep = False
    while True:
        while unit_queue:
            p = unit_queue.popleft()
            c = unit_pivot(p)
            if c is not None:
                touched = eliminate(p, c)
                unit_queue.extend(touched)
                divisor_queue.extend(touched)
        while divisor_queue:
            p = divisor_queue.popleft()
            c = divisor_pivot(p)
            if c is not None:
                touched = eliminate(p, c)
                break
        else:
            if not full_sweep:
                divisor_queue.extend(i for i, row in enumerate(rows) if row)
                full_sweep = True
                continue
            live = [(abs(v), p, c) for p, row in enumerate(rows) for c, v in row.items()]
            if not live:
                break
            _, p, c = min(live)
            touched = clear_column(p, c) if len(cols[c]) > 1 else reduce_row(p, c)
        unit_queue.extend(touched)
        divisor_queue.extend(touched)
        full_sweep = False
    return diag


def reference_snf(matrix):
    """Diagonal of the Smith normal form from the frozen loop, merged into
    a divisibility chain by pairwise (gcd, lcm) swaps."""
    n_cols = len(matrix[0]) if matrix else 0
    rows = [{j: v for j, v in enumerate(row) if v} for row in matrix]
    d = sorted(reference_sparse_snf(rows))
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = math.gcd(d[i], d[j])
            d[i], d[j] = g, d[i] * d[j] // g
    return d + [0] * (min(len(matrix), n_cols) - len(d))


def seeded_large_matrices():
    """Shapes the minor-gcd oracle cannot reach: 30 matrices from 8 x 8 to
    20 x 20, half the entries zero and the rest in -100..100, then 10 whose
    entries have no unit among them."""
    rng = random.Random(23)
    for k in range(40):
        rows, cols = rng.randint(8, 20), rng.randint(8, 20)
        cells = rows * cols
        if k < 30:
            values = [rng.randint(-100, 100) if rng.random() < 0.5 else 0 for _ in range(cells)]
        else:
            values = [rng.choice(NO_UNIT[1:]) for _ in range(cells)]
        yield [values[i : i + cols] for i in range(0, cells, cols)]


def test_snf_matches_frozen_reference_on_large_matrices():
    for m in seeded_large_matrices():
        assert smith_normal_form(m) == reference_snf(m), m


def exponent_matrix(p):
    """Relators x generators matrix of exponent sums, built cell by cell."""
    return [
        [sum(s for g, s in r.letters if g == gen) for gen in p.generators]
        for r in p.relators
    ]


@st.composite
def small_presentations(draw):
    """1-4 generators, some possibly in no relator, and 0-4 relators.  A
    relator is a random word or a conjugate ``u x u^-1``, whose exponent
    sums cancel except on ``x``."""
    gens = ("a", "b", "c", "d")[: draw(st.integers(1, 4))]
    letter = st.tuples(st.sampled_from(gens), st.sampled_from((1, -1)))
    word = st.lists(letter, max_size=6)

    def relator():
        if draw(st.booleans()):
            return draw(word)
        u, x = draw(word), draw(word)
        return u + x + [(g, -s) for g, s in reversed(u)]

    relators = [Word(tuple(relator())) for _ in range(draw(st.integers(0, 4)))]
    return Presentation(tuple(gens), tuple(relators))


@settings(max_examples=300, deadline=None)
@given(small_presentations())
def test_abelianization_matches_minor_gcd_oracle(p):
    diag = snf_oracle(exponent_matrix(p))
    assert abelianization(p) == invariants_from_diagonal(diag, len(p.generators))


@pytest.mark.parametrize("n", range(1, 15))
def test_pn_abelianization_closed_form(n):
    """P_n abelianizes to 2^(n-1-k) copies of Z/3^k for k = 1..n-1, then
    one Z/3^n."""
    torsion = [3**k for k in range(1, n) for _ in range(2 ** (n - 1 - k))] + [3**n]
    assert abelianization(build_pn(n)) == AbelianInvariants(tuple(torsion), 0)


def test_invariants_from_diagonal():
    inv = invariants_from_diagonal([1, 2, 6, 0], 5)
    assert inv == AbelianInvariants((2, 6), 2)


def test_invariants_validation():
    with pytest.raises(ValueError):
        AbelianInvariants((3, 2), 0)  # not a divisibility chain
    with pytest.raises(ValueError):
        AbelianInvariants((1,), 0)  # unit entries excluded
    with pytest.raises(ValueError):
        AbelianInvariants((), -1)
