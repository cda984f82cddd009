import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from looptrans.algebra import (
    RatMatrix,
    SignedPerm,
    SizeMismatchError,
    compose,
    conjugate_by_diagonal,
    int_det,
    inverse,
    kronecker,
    signed_orbits,
    trace,
)

from conftest import random_signed_perm

SQUARE_STRAIGHT = SignedPerm((1, 2), (-1, 1))
SQUARE_ZIGZAG = SignedPerm((2, 1), (1, 1))


def test_compose_identity():
    rng = random.Random(1)
    for n in (1, 2, 5, 9):
        p = random_signed_perm(rng, n)
        ident = SignedPerm.identity(n)
        assert compose(ident, p) == p
        assert compose(p, ident) == p


def test_compose_size_mismatch():
    with pytest.raises(SizeMismatchError):
        compose(SignedPerm.identity(2), SignedPerm.identity(3))


def test_adjacency_matrices_are_self_inverse(gww):
    for g in gww.graphs:
        for c in (1, 2, 3):
            assert compose(g.color(c), g.color(c)).is_identity()


def test_compose_two_vertex_example():
    # zigzag composed with straight maps 1 -> 2 with +, 2 -> 1 with -
    out = compose(SQUARE_ZIGZAG, SQUARE_STRAIGHT)
    assert out.image(1) == (2, 1)
    assert out.image(2) == (1, -1)


def test_compose_matches_matrix_product():
    rng = random.Random(2)
    for _ in range(50):
        n = rng.randint(1, 6)
        p = random_signed_perm(rng, n)
        q = random_signed_perm(rng, n)
        assert compose(p, q).to_matrix() == p.to_matrix() @ q.to_matrix()


def test_inverse_roundtrip():
    rng = random.Random(3)
    for _ in range(50):
        p = random_signed_perm(rng, rng.randint(1, 8))
        assert compose(p, inverse(p)).is_identity()
        assert compose(inverse(p), p).is_identity()


def test_trace_examples(gww):
    assert trace(SignedPerm.identity(7)) == 7
    g = gww.graphs[0]
    assert trace(g.color(1)) == -1  # loops 3D 6N 7D
    assert trace(g.color(3)) == 1  # loops 1N 4D 7N


def test_trace_cyclic_invariance():
    rng = random.Random(4)
    for _ in range(60):
        n = rng.randint(1, 7)
        p = random_signed_perm(rng, n)
        q = random_signed_perm(rng, n)
        assert trace(compose(p, q)) == trace(compose(q, p))


def test_kronecker_block_double():
    rng = random.Random(5)
    p = random_signed_perm(rng, 4)
    doubled = kronecker(SignedPerm.identity(2), p)
    assert doubled.size == 8
    for i in range(1, 5):
        t, s = p.image(i)
        assert doubled.image(i) == (t, s)
        assert doubled.image(4 + i) == (4 + t, s)


def test_kronecker_size_and_trace():
    rng = random.Random(6)
    for _ in range(40):
        p = random_signed_perm(rng, rng.randint(1, 5))
        q = random_signed_perm(rng, rng.randint(1, 5))
        k = kronecker(p, q)
        assert k.size == p.size * q.size
        assert trace(k) == trace(p) * trace(q)


def test_kronecker_matches_matrix_kron():
    rng = random.Random(7)
    p = random_signed_perm(rng, 3)
    q = random_signed_perm(rng, 2)
    assert kronecker(p, q).to_matrix() == p.to_matrix().kronecker(q.to_matrix())


def test_shuffle_conjugates_kronecker():
    # the perfect shuffle S with S (A x B) S^-1 = B x A, in the index
    # convention of kronecker: point (i, j) is (i-1)*n + j
    rng = random.Random(8)
    for _ in range(20):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        p = random_signed_perm(rng, m)
        q = random_signed_perm(rng, n)
        targets = [(k % n) * m + k // n + 1 for k in range(m * n)]
        s = SignedPerm(tuple(targets), (1,) * (m * n))
        assert compose(kronecker(p, q), s) == compose(s, kronecker(q, p))


def test_kronecker_associative():
    rng = random.Random(9)
    p = random_signed_perm(rng, 2)
    q = random_signed_perm(rng, 3)
    r = random_signed_perm(rng, 2)
    assert kronecker(kronecker(p, q), r) == kronecker(p, kronecker(q, r))


def test_conjugate_by_diagonal():
    rng = random.Random(10)
    p = random_signed_perm(rng, 5)
    assert conjugate_by_diagonal(p, (1,) * 5) == p
    diag = SignedPerm((1, 2), (-1, 1))
    assert conjugate_by_diagonal(diag, (-1, 1)) == diag  # diagonal entries invariant
    edge = SignedPerm((2, 1), (1, 1))
    flipped = conjugate_by_diagonal(edge, (-1, 1))
    assert flipped.image(1) == (2, -1)
    assert flipped.image(2) == (1, -1)
    with pytest.raises(SizeMismatchError):
        conjugate_by_diagonal(edge, (1,))


def test_conjugate_by_diagonal_preserves_trace():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 7)
        p = random_signed_perm(rng, n)
        signs = tuple(rng.choice((1, -1)) for _ in range(n))
        assert trace(conjugate_by_diagonal(p, signs)) == trace(p)


def test_rat_matrix_basics():
    m = RatMatrix.from_rows([[1, 2], [3, 4]])
    assert m.det() == -2
    assert m.inverse() @ m == RatMatrix.identity(2)
    assert (m @ m).entries[0][0] == 7
    half = RatMatrix.from_rows([[Fraction(1, 2)]])
    assert half.inverse().entries[0][0] == 2


def test_rat_matrix_singular():
    m = RatMatrix.from_rows([[1, 2], [2, 4]])
    assert m.det() == 0
    assert not m.is_invertible()
    with pytest.raises(ZeroDivisionError):
        m.inverse()


def _fraction_det(rows):
    """Reference: Gaussian elimination over Fraction, pivoting on the first
    non-zero entry of each column."""
    n = len(rows)
    m = [[Fraction(x) for x in r] for r in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] == 0:
                continue
            factor = m[r][col] * inv
            for c in range(col, n):
                m[r][c] -= factor * m[col][c]
    return det


def test_int_det_matches_fraction_det():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        assert int_det(rows) == RatMatrix.from_rows(rows).det() == _fraction_det(rows)
    singular = 0
    for _ in range(200):
        n = rng.randint(1, 6)
        rows = [
            [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(n)]
            for _ in range(n)
        ]
        if rng.random() < 0.4:
            # singular: the last row is a rational combination of the others
            ks = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in rows[:-1]]
            rows[-1] = [sum((k * r[j] for k, r in zip(ks, rows)), Fraction(0)) for j in range(n)]
        expected = _fraction_det(rows)
        singular += expected == 0
        assert RatMatrix.from_rows(rows).det() == expected
    assert singular >= 40
    assert RatMatrix.from_rows([]).det() == 1


# Reference oracle: RatMatrix as it was when every entry was a Fraction.
def _ref_from_rows(rows):
    return tuple(tuple(Fraction(x) for x in r) for r in rows)


def _ref_matmul(a, b):
    cols = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def _ref_kronecker(a, b):
    return tuple(tuple(x * y for x in ra for y in rb) for ra in a for rb in b)


def _ref_det(a):
    rows = []
    scale = 1
    for r in a:
        d = math.lcm(*(x.denominator for x in r))
        rows.append([x.numerator * (d // x.denominator) for x in r])
        scale *= d
    return Fraction(int_det(rows), scale)


def _random_rows(rng, n, m, rational):
    def entry():
        if rational and rng.random() < 0.5:
            return Fraction(rng.randint(-6, 6), rng.randint(1, 3))  # some integral
        return rng.randint(-4, 4)

    return [[entry() for _ in range(m)] for _ in range(n)]


def _int_when_integral(m):
    return all((type(x) is int) == (x.denominator == 1) for r in m.entries for x in r)


@pytest.mark.parametrize("rational", [False, True])
def test_rat_matrix_matches_fraction_reference(rational):
    rng = random.Random(14 + rational)
    for _ in range(150):
        n, k = rng.randint(1, 5), rng.randint(1, 5)
        a_rows = _random_rows(rng, n, n, rational)
        b_rows = _random_rows(rng, n, k, rational)
        a, b = RatMatrix.from_rows(a_rows), RatMatrix.from_rows(b_rows)
        ra, rb = _ref_from_rows(a_rows), _ref_from_rows(b_rows)
        assert a.entries == ra and b.entries == rb
        assert _int_when_integral(a) and _int_when_integral(b)
        products = ((a @ b, _ref_matmul(ra, rb)), (a.kronecker(b), _ref_kronecker(ra, rb)))
        for got, ref in products:
            assert got.entries == ref
            if not rational:
                assert all(type(x) is int for r in got.entries for x in r)
        assert a.det() == _ref_det(ra) == _fraction_det(a_rows)
        if n == k:
            assert b.det() == _ref_det(rb)
        half = a.scale(Fraction(1, 2))
        assert half.entries == tuple(tuple(x / 2 for x in r) for r in ra)
        assert _int_when_integral(half)
        if a.det() != 0:
            inv = a.inverse()
            assert _int_when_integral(inv)
            assert inv @ a == a @ inv == RatMatrix.identity(n)


def test_from_rows_entry_types():
    m = RatMatrix.from_rows([[True, False, Fraction(4, 2)], [Fraction(1, 3), -2, Fraction(-6, 3)]])
    assert m.entries == ((1, 0, 2), (Fraction(1, 3), -2, -2))
    assert [type(x) for r in m.entries for x in r] == [int, int, int, Fraction, int, int]


def test_rat_matrix_kronecker_identity():
    tee = RatMatrix.from_rows([[-1, 1], [1, 1]])
    expected = RatMatrix.from_rows(
        [[-1, 1, 0, 0], [1, 1, 0, 0], [0, 0, -1, 1], [0, 0, 1, 1]]
    )
    assert RatMatrix.identity(2).kronecker(tee) == expected


def _signed_closure(maps, start):
    """Reference oracle: the signed points reached from (start, +1), grown to
    a fixed point one application of every map at a time."""
    reached = {(start, 1)}
    while True:
        grown = reached | {
            (image[p], s * rel[p]) for p, s in reached for image, rel in maps
        }
        if grown == reached:
            return reached
        reached = grown


_signed_maps = st.integers(1, 8).flatmap(
    lambda size: st.tuples(
        st.just(size),
        st.lists(
            st.tuples(
                st.permutations(range(size)),
                st.lists(st.sampled_from((1, -1)), min_size=size, max_size=size),
            ),
            max_size=4,
        ),
    )
)


@settings(max_examples=300, deadline=None)
@given(case=_signed_maps)
def test_signed_orbits_match_closure_oracle(case):
    # random signed permutations: clashes, -1 fixed points and sign-consistent
    # orbits all occur
    size, maps = case
    root, sign, live = signed_orbits(maps, size)
    expected_live = []
    for p in range(size):
        reached = _signed_closure(maps, p)
        points = {q for q, _ in reached}
        assert root[p] == min(points)
        if p == root[p] and len(reached) == len(points):
            expected_live.append(p)
    assert live == expected_live
    for p in range(size):
        if root[p] in live:
            assert (p, sign[p]) in _signed_closure(maps, root[p])
        else:
            assert sign[p] in (1, -1)


def test_signed_orbits_clash_at_negative_fixed_point():
    swap = ([1, 0, 2], [1, 1, 1])
    loop = ([0, 1, 2], [-1, 1, -1])
    # the -1 fixed point at 0 asks sign[0] = -sign[0], which kills the orbit
    # {0, 1}; the one at 2 kills {2}
    assert signed_orbits([swap, loop], 3) == ([0, 0, 2], [1, 1, 1], [])
    assert signed_orbits([swap], 3) == ([0, 0, 2], [1, 1, 1], [0, 2])
    flip = ([1, 0, 2], [-1, -1, 1])
    assert signed_orbits([flip], 3) == ([0, 0, 2], [1, -1, 1], [0, 2])
    assert signed_orbits([], 2) == ([0, 1], [1, 1], [0, 1])
