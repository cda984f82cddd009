"""Exact checks of looptrans outputs, written apart from looptrans.

Nothing here imports the program.  A graph arrives as *rows*: one tuple per
colour, whose entry i is the target of vertex i+1 multiplied by the sign of
that incidence (so a Dirichlet loop at vertex 3 reads -3).  Colour c is then
the signed permutation matrix P with P[i][t(i)] = s(i).  A witness is a list
of rows of integers or fractions.  Every test uses exact integer or
``Fraction`` arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Sequence

Rows = Sequence[Sequence[int]]

# Published census rows for three colours: classes, treelike classes, pairs,
# treelike pairs and colour classes of pairs.
PUBLISHED = {
    (4, "mixed"): (737, 472, 118, 64, 28),
    (5, "mixed"): (3848, 2304, 0, 0, 0),
    (6, "mixed"): (24360, 12792, 957, 294, 176),
    (7, "neumann"): (1407, 143, 7, 7, 3),
    (8, "dirichlet"): (6877, 450, 64, 0, 16),
    (8, "neumann"): (6877, 450, 28, 0, 8),
}


def _split(row: Sequence[int]) -> tuple[list[int], list[int]]:
    return [abs(x) - 1 for x in row], [1 if x > 0 else -1 for x in row]


def is_adjacency(rows: Rows) -> bool:
    """Every colour is a symmetric signed involution with positive edges."""
    if not rows:
        return False
    n = len(rows[0])
    for row in rows:
        if len(row) != n or sorted(abs(x) for x in row) != list(range(1, n + 1)):
            return False
        t, s = _split(row)
        for i in range(n):
            if t[t[i]] != i or (t[i] != i and (s[i] != 1 or s[t[i]] != 1)):
                return False
    return True


def _nonsingular(matrix: Sequence[Sequence[object]]) -> bool:
    """Exact: Bareiss elimination for integer matrices, Fractions otherwise."""
    n = len(matrix)
    if all(isinstance(x, int) for r in matrix for x in r):
        m = [list(r) for r in matrix]
        prev = 1
        for k in range(n):
            pivot = next((r for r in range(k, n) if m[r][k] != 0), None)
            if pivot is None:
                return False
            m[k], m[pivot] = m[pivot], m[k]
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            prev = m[k][k]
        return True
    m = [[Fraction(x) for x in r] for r in matrix]
    for k in range(n):
        pivot = next((r for r in range(k, n) if m[r][k] != 0), None)
        if pivot is None:
            return False
        m[k], m[pivot] = m[pivot], m[k]
        for i in range(k + 1, n):
            if m[i][k] != 0:
                f = m[i][k] / m[k][k]
                m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return True


def witness_ok(a: Rows, b: Rows, t: Sequence[Sequence[object]]) -> bool:
    """B^c T = T A^c for every colour c, and T invertible."""
    if not (is_adjacency(a) and is_adjacency(b)) or len(a) != len(b):
        return False
    n = len(a[0])
    if len(b[0]) != n or len(t) != n or any(len(r) != n for r in t):
        return False
    tm = [[Fraction(x) for x in r] for r in t]
    if all(x.denominator == 1 for r in tm for x in r):
        tm = [[int(x) for x in r] for r in tm]  # same values, faster compares
    for ra, rb in zip(a, b):
        ta, sa = _split(ra)
        tb, sb = _split(rb)
        # (B T)[i][j] = sb(i) T[tb(i)][j];  (T A)[i][j] = T[i][k] sa(k), k = ta^-1(j)
        pre = [0] * n
        for k in range(n):
            pre[ta[k]] = k
        for i in range(n):
            for j in range(n):
                k = pre[j]
                if sb[i] * tm[tb[i]][j] != tm[i][k] * sa[k]:
                    return False
    return _nonsingular(tm)


def word_trace(rows: Rows, word: Sequence[int]) -> int:
    """Trace of A^{c_l} ... A^{c_1} for the word c_1 .. c_l (1-based colours)."""
    n = len(rows[0])
    tgt = list(range(n))
    sgn = [1] * n
    # M = A^{c_l} ... A^{c_1}; multiply on the right, last letter first
    for c in reversed(word):
        tc, sc = _split(rows[c - 1])
        tgt, sgn = [tc[x] for x in tgt], [s * sc[x] for s, x in zip(sgn, tgt)]
    return sum(s for i, (x, s) in enumerate(zip(tgt, sgn)) if x == i)


def certificate_ok(a: Rows, b: Rows, kind: str, word: Sequence[int]) -> bool:
    """The word's product has different traces on the two graphs."""
    if len(a[0]) != len(b[0]):
        return True
    if kind != "trace" or any(not 1 <= c <= len(a) for c in word):
        return False
    return word_trace(a, word) != word_trace(b, word)


def trace_table(rows: Rows, max_len: int = 4) -> tuple[int, ...]:
    """Traces of every colour word up to max_len, in lexicographic order."""
    colours = range(1, len(rows) + 1)
    out = []
    for length in range(max_len + 1):
        for word in product(colours, repeat=length):
            out.append(word_trace(rows, word))
    return tuple(out)


def census_ok(vertices: int, regime: str, counts: Sequence[int]) -> bool:
    """Counts (classes, treelike, pairs, treelike pairs, colour classes)."""
    return PUBLISHED.get((vertices, regime)) == tuple(counts)


def quotient_nested(
    colour_classes: Sequence[Sequence[object]], quilt_classes: Sequence[Sequence[object]]
) -> bool:
    """Both partition the same pairs, and each colour class lies in one quilt."""
    quilt_of = {}
    for q, cls in enumerate(quilt_classes):
        for key in cls:
            if key in quilt_of:
                return False
            quilt_of[key] = q
    seen = set()
    for cls in colour_classes:
        if not cls or len({quilt_of.get(key) for key in cls}) != 1 or None in {
            quilt_of.get(key) for key in cls
        }:
            return False
        seen.update(cls)
    return seen == set(quilt_of)


# The square/triangle pair of two-vertex graphs and an intertwiner between them.
_SQUARE = ((2, 1), (-1, 2))
_TRIANGLE = ((-1, 2), (2, 1))
_WITNESS = ((-1, 1), (1, 1))


def self_test() -> list[str]:
    """Problems found in the checker itself; empty when it works."""
    problems = []
    if not witness_ok(_SQUARE, _TRIANGLE, _WITNESS):
        problems.append("a true witness is rejected")
    tampered = ((-1, 1), (1, 2))
    if witness_ok(_SQUARE, _TRIANGLE, tampered):
        problems.append("a tampered witness is accepted")
    if witness_ok(_SQUARE, _TRIANGLE, ((0, 0), (0, 0))):
        problems.append("a singular intertwiner is accepted")
    # colour 1 has trace 0 on both graphs, so this word proves nothing
    if certificate_ok(_SQUARE, _TRIANGLE, "trace", (1,)):
        problems.append("a certificate whose traces agree is accepted")
    neumann = ((2, 1), (1, 2))
    if not certificate_ok(_SQUARE, neumann, "trace", (2,)):
        problems.append("a true certificate is rejected")
    return problems
