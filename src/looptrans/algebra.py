"""Exact arithmetic for signed permutations and rational matrices.

A signed permutation on V points is stored by rows: vertex i is sent to
``targets[i-1]`` with sign ``signs[i-1]``.  In matrix form this is the V x V
matrix with single non-zero entry ``signs[i-1]`` at position
``(i, targets[i-1])``, so ``compose(p, q)`` is the matrix product ``p * q``.
:func:`compose_codes` and :func:`inverse_code` work on the
:meth:`SignedPerm.encode` form instead: the targets with the signs folded in,
one plain tuple.  The group closure engine :func:`bfs_closure` walks a code
of its own, and only this module reads it: on up to ``BYTE_CODE_POINTS``
points a ``bytes`` code, where left multiplication by a generator is one
``bytes.translate``, and on more points a doubled tuple, where it is one
gather.  :func:`left_steps` gives those steps, to the closure and to the
certificate walk in ``transplant``; :func:`code_to_encode` reads a code back
in the encode form, and :func:`pair_trace_test` compares the traces of its
two halves.
:func:`signed_orbits` is the one orbit search, with a +-1 sign along each
orbit: the sign normalizer :func:`diagonal_normalizer`, ``graph.components``,
the intertwiner orbits and the conjugacy classes all read it.

All arithmetic is exact and no floating point appears anywhere in this
module.  ``graph.validate`` checks signed permutations, once, at the boundary;
what is built here from valid ones is valid by construction and unchecked.
A :class:`RatMatrix` holds an integral entry as an ``int``, others as ``Fraction``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from operator import eq, itemgetter
from typing import Callable, Iterator, Sequence

Rational = int | Fraction
Code = tuple[int, ...]
# an element as :func:`bfs_closure` walks it: ``bytes`` or a doubled tuple
WalkCode = bytes | tuple[int, ...]

DEFAULT_CLOSURE_CAP = 2_000_000
# entries a closure may hold, 2 a point an element (elements x 2 x points,
# the doubled tuple's length), whatever its element cap and its code form.
# In doubled tuples on 250 points, the pair closure of ``transplant`` grew the
# RSS by about 14 bytes an entry and ``reps.closure`` by about 13; on 128
# points the pair closure grew it by 16.1 (1,030 MiB at the bound).  In bytes
# on 128 points the pair closure grew it by 2.8 bytes an entry (720 bytes an
# element, 180 MiB at the bound).  All measured with CPython 3.11 on Linux
# x86-64
MAX_CLOSURE_ENTRIES = 2**26
# walks on at most this many points run on ``bytes`` codes: ``translate``
# maps byte values, and a point has two signed indices
BYTE_CODE_POINTS = 128


class SizeMismatchError(ValueError):
    """Operands have incompatible dimensions."""


class ClosureCapExceeded(RuntimeError):
    """Group closure grew past the configured element cap."""


@dataclass(frozen=True)
class SignedPerm:
    """A signed permutation on ``size`` points (1-based), unchecked."""

    targets: tuple[int, ...]
    signs: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.targets)

    @staticmethod
    def identity(n: int) -> "SignedPerm":
        return SignedPerm(tuple(range(1, n + 1)), (1,) * n)

    def image(self, i: int) -> tuple[int, int]:
        """Target and sign of vertex ``i`` (1-based)."""
        return self.targets[i - 1], self.signs[i - 1]

    def encode(self) -> Code:
        """Hashable encoding: target with the sign folded in."""
        return tuple(t * s for t, s in zip(self.targets, self.signs))

    @staticmethod
    def decode(code: Code) -> "SignedPerm":
        """Inverse of :meth:`encode`."""
        return SignedPerm(tuple(abs(x) for x in code), tuple(1 if x > 0 else -1 for x in code))

    def __neg__(self) -> "SignedPerm":
        return SignedPerm(self.targets, tuple(-s for s in self.signs))

    def is_identity(self) -> bool:
        return all(t == i + 1 and s == 1 for i, (t, s) in enumerate(zip(self.targets, self.signs)))

    def is_involution(self) -> bool:
        return compose(self, self).is_identity()

    def to_matrix(self) -> "RatMatrix":
        n = self.size
        rows = [[0] * n for _ in range(n)]
        for i, (t, s) in enumerate(zip(self.targets, self.signs)):
            rows[i][t - 1] = s
        return RatMatrix.from_rows(rows)


def compose(p: SignedPerm, q: SignedPerm) -> SignedPerm:
    """Matrix product ``p * q``; as a vertex map, p is applied first."""
    if p.size != q.size:
        raise SizeMismatchError(f"sizes {p.size} and {q.size} differ")
    qt, qs = q.targets, q.signs
    targets = []
    signs = []
    for t, s in zip(p.targets, p.signs):
        targets.append(qt[t - 1])
        signs.append(s * qs[t - 1])
    return SignedPerm(tuple(targets), tuple(signs))


def inverse(p: SignedPerm) -> SignedPerm:
    targets = [0] * p.size
    signs = [1] * p.size
    for i, (t, s) in enumerate(zip(p.targets, p.signs), start=1):
        targets[t - 1] = i
        signs[t - 1] = s
    return SignedPerm(tuple(targets), tuple(signs))


def compose_codes(p: Code, q: Code) -> Code:
    """:func:`compose` on encoded signed permutations."""
    return tuple(q[x - 1] if x > 0 else -q[-x - 1] for x in p)


def inverse_code(p: Code) -> Code:
    """:func:`inverse` on an encoded signed permutation."""
    out = [0] * len(p)
    for i, x in enumerate(p, start=1):
        out[abs(x) - 1] = i if x > 0 else -i
    return tuple(out)


def _byte_form(n: int) -> bool:
    """Whether a closure walk on n points runs on ``bytes`` codes."""
    return n <= BYTE_CODE_POINTS


def _signed_images(code: Code) -> list[int]:
    """Indices of the images of +1 .. +n, then of -1 .. -n, under an encoded
    element on n points, where +i has index i-1 and -i has index n+i-1."""
    n = len(code)
    images = [x - 1 if x > 0 else n - x - 1 for x in code]
    return images + [(j + n) % (2 * n) for j in images]


def left_steps(
    generators: Sequence[Code],
) -> tuple[list[Callable[[WalkCode], WalkCode]], WalkCode]:
    """Left multiplication by each generator on the walk code, and the
    identity's code.

    On n <= ``BYTE_CODE_POINTS`` points an element x is held as n bytes:
    byte i-1 is the index (:func:`_signed_images`) of the image of +i under
    x^-1.  Since (g x)^-1 = x^-1 g^-1 as maps, left multiplication by g is
    one ``translate`` through the table of g^-1 on the 2n signed indices.
    The inverse has x's trace and x's half clashes, and the code is
    one-to-one, so the walk reaches the same elements in the same order.

    On more points x is held as the tuple x + (-x), its action on the 2n
    signed basis vectors, so that left multiplication by a generator is one
    itemgetter; the first n entries are x.
    """
    n = len(generators[0])
    if any(len(g) != n for g in generators):
        raise SizeMismatchError("generators act on different point counts")
    if _byte_form(n):
        tail = list(range(2 * n, 256))
        tables = [bytes(_signed_images(inverse_code(g)) + tail) for g in generators]
        return [lambda x, table=t: x.translate(table) for t in tables], bytes(range(n))
    steps = [itemgetter(*_signed_images(g)) for g in generators]
    return steps, tuple(range(1, n + 1)) + tuple(range(-1, -n - 1, -1))


def code_to_encode(code: WalkCode, n: int) -> Code:
    """The :meth:`SignedPerm.encode` form of a code :func:`bfs_closure`
    yields on n points."""
    if not _byte_form(n):
        return tuple(code[:n])
    out = [0] * n
    for i, j in enumerate(code, start=1):
        if j < n:
            out[j] = i
        else:
            out[j - n] = -i
    return tuple(out)


def pair_trace_test(n: int) -> Callable[[WalkCode], bool]:
    """Whether the two halves of a walk code on 2n points, points 1 .. n and
    n+1 .. 2n, have different traces.

    Against the identity signed + on the first half and - on the second, an
    entry matches where it is a fixed point of sign +1 on the first half or
    -1 on the second; the opposite reference counts the others, so the two
    counts differ exactly when the halves' traces differ.

    A ``bytes`` code is read as one little-endian integer x.  The bytes of
    x ^ ref that are nonzero are counted exactly: with L = 0x7f7f..7f and
    H = 0x8080..80, ``((y & L) + L | y) & H`` has the top bit of a byte set
    exactly where that byte of y is nonzero (the sum carries within the
    byte, never out of it), and ``int.bit_count`` (Python >= 3.10) counts
    them.  A doubled tuple is read on its first 2n entries.
    """
    if _byte_form(2 * n):
        width = 2 * n
        plus = int.from_bytes(bytes([*range(n), *range(width + n, 2 * width)]), "little")
        minus = int.from_bytes(bytes([*range(width, width + n), *range(n, width)]), "little")
        low = int.from_bytes(b"\x7f" * width, "little")
        high = int.from_bytes(b"\x80" * width, "little")

        def differ(code: WalkCode) -> bool:
            x = int.from_bytes(code, "little")
            y, z = x ^ plus, x ^ minus
            return (((y & low) + low | y) & high).bit_count() != (
                ((z & low) + low | z) & high
            ).bit_count()

        return differ
    tplus = tuple(range(1, n + 1)) + tuple(range(-n - 1, -2 * n - 1, -1))
    tminus = tuple(-x for x in tplus)
    return lambda x: sum(map(eq, x, tplus)) != sum(map(eq, x, tminus))


def bfs_closure(
    generators: Sequence[Code], cap: int = DEFAULT_CLOSURE_CAP
) -> Iterator[tuple[WalkCode, tuple[int, ...]]]:
    """Breadth-first closure of encoded signed permutations.

    Yields ``(code, word)`` for each element the moment it is first
    reached, identity first, where the element equals
    ``word_product(generators, word)``: each generator is applied on the left
    of the element it extends.  ``code`` is the element's walk code on n
    points (:func:`left_steps`) cut to n entries: n bytes on up to
    ``BYTE_CODE_POINTS`` points, else the :meth:`SignedPerm.encode` tuple;
    :func:`code_to_encode` reads either in the encode form.  Raises
    :class:`ClosureCapExceeded` when the group has more than ``cap``
    elements, or more than ``MAX_CLOSURE_ENTRIES // (2 * n)``, whatever the
    code form, so that the stored codes stay within a fixed memory bound.
    """
    n = len(generators[0])
    steps, ident = left_steps(generators)
    limit = min(cap, MAX_CLOSURE_ENTRIES // (2 * n))
    seen = {ident}
    queue = deque([(ident, ())])
    yield ident[:n], ()
    while queue:
        current, word = queue.popleft()
        for c, step in enumerate(steps, start=1):
            nxt = step(current)
            if nxt in seen:
                continue
            if len(seen) >= limit:
                raise ClosureCapExceeded(
                    f"group closure exceeded {limit} elements: the cap is {cap} "
                    f"elements and {MAX_CLOSURE_ENTRIES} code entries, {2 * n} "
                    "per element"
                )
            seen.add(nxt)
            nword = word + (c,)
            queue.append((nxt, nword))
            yield nxt[:n], nword


def word_product(generators: Sequence[SignedPerm], word: Sequence[int]) -> SignedPerm:
    """Product g_{c_l} ... g_{c_1} for the word c_1 .. c_l (letters are 1-based)."""
    acc = SignedPerm.identity(generators[0].size)
    for c in word:
        if not 1 <= c <= len(generators):
            raise ValueError(f"letter {c} out of range 1..{len(generators)}")
        acc = compose(generators[c - 1], acc)
    return acc


def trace(p: SignedPerm) -> int:
    """Signed number of fixed points, i.e. the matrix trace."""
    return sum(s for i, (t, s) in enumerate(zip(p.targets, p.signs), start=1) if t == i)


def kronecker(p: SignedPerm, q: SignedPerm) -> SignedPerm:
    """Kronecker product; point ``(i, j)`` becomes ``(i-1)*q.size + j``."""
    n = q.size
    targets = []
    signs = []
    for i, (ti, si) in enumerate(zip(p.targets, p.signs)):
        for tj, sj in zip(q.targets, q.signs):
            targets.append((ti - 1) * n + tj)
            signs.append(si * sj)
    return SignedPerm(tuple(targets), tuple(signs))


def conjugate_by_diagonal(p: SignedPerm, signs: Sequence[int]) -> SignedPerm:
    """``D * p * D`` for the diagonal sign matrix D = diag(signs)."""
    if len(signs) != p.size:
        raise SizeMismatchError(f"got {len(signs)} signs for size {p.size}")
    if any(s not in (1, -1) for s in signs):
        raise ValueError("diagonal entries must be +1 or -1")
    new_signs = tuple(
        s * signs[i] * signs[t - 1] for i, (t, s) in enumerate(zip(p.targets, p.signs))
    )
    return SignedPerm(p.targets, new_signs)


def signed_orbits(
    maps: Sequence[tuple[Sequence[int], Sequence[int]]], size: int
) -> tuple[list[int], list[int], list[int]]:
    """Orbits of the points 0 .. size-1 under signed maps, with relative signs.

    Each map is a pair ``(image, rel)`` of lists over the points: it sends p
    to ``image[p]``, whose sign must be p's sign times ``rel[p]``.  One stack
    search per orbit labels each point with ``root``, the least point of its
    orbit, and ``sign``, its sign relative to the root.  An orbit that reaches
    a point with both signs is a clash; the others are ``live``, returned as
    their roots in increasing order.
    """
    root = [-1] * size
    sign = [0] * size
    live = []
    for start in range(size):
        if root[start] >= 0:
            continue
        root[start] = start
        sign[start] = 1
        consistent = True
        stack = [start]
        while stack:
            p = stack.pop()
            for image, rel in maps:
                q = image[p]
                s = sign[p] * rel[p]
                if root[q] < 0:
                    root[q] = start
                    sign[q] = s
                    stack.append(q)
                elif sign[q] != s:
                    consistent = False
        if consistent:
            live.append(start)
    return root, sign, live


def diagonal_normalizer(perms: Sequence[SignedPerm]) -> tuple[int, ...] | None:
    """The +-1 diagonal D with no negative off-diagonal entry in any ``D p D``.

    An entry s at (i, t) of p asks for d_i * d_t = s; a loop asks nothing.
    D is +1 at the smallest point of each orbit of the group the perms
    generate, which makes it unique; returns None when the constraints
    contradict each other.
    """
    n = perms[0].size if perms else 0
    if any(p.size != n for p in perms):
        raise SizeMismatchError("signed permutations act on different point counts")
    maps = []
    for p in perms:
        image, rel = [], list(p.signs)
        for i, t in enumerate(p.targets):
            image.append(t - 1)
            if t == i + 1:
                rel[i] = 1
        maps.append((image, rel))
    root, sign, live = signed_orbits(maps, n)
    if len(live) < len(set(root)):
        return None
    return tuple(sign)


def _exact(x: Rational) -> Rational:
    """An integral entry as an ``int``, any other as an exact ``Fraction``."""
    if type(x) is int:
        return x
    f = Fraction(x)
    return f.numerator if f.denominator == 1 else f


@dataclass(frozen=True)
class RatMatrix:
    """Dense matrix with exact rational entries, ``int`` where integral.

    Integer matrices such as the witnesses stay in ``int`` arithmetic; only
    :meth:`inverse` divides, through ``Fraction``.
    """

    entries: tuple[tuple[Rational, ...], ...]

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @staticmethod
    def from_rows(rows: Sequence[Sequence[Rational]]) -> "RatMatrix":
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows")
        return RatMatrix(tuple(tuple(map(_exact, r)) for r in rows))

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        return RatMatrix.from_rows(
            [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        )

    @staticmethod
    def zero(rows: int, cols: int) -> "RatMatrix":
        return RatMatrix.from_rows([[0] * cols for _ in range(rows)])

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __getitem__(self, ij: tuple[int, int]) -> Rational:
        i, j = ij
        return self.entries[i][j]

    def __neg__(self) -> "RatMatrix":
        return self.scale(-1)

    def scale(self, k: Rational) -> "RatMatrix":
        return RatMatrix.from_rows([[k * x for x in r] for r in self.entries])

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise SizeMismatchError("shape mismatch in product")
        cols = list(zip(*other.entries))
        return RatMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                for row in self.entries
            )
        )

    def kronecker(self, other: "RatMatrix") -> "RatMatrix":
        out = []
        for ra in self.entries:
            for rb in other.entries:
                out.append(tuple(a * b for a in ra for b in rb))
        return RatMatrix(tuple(out))

    def det(self) -> Fraction:
        """Exact determinant: :func:`int_det` of an all-``int`` matrix; else each
        row is scaled to integers by the lcm of its denominators, and the
        integer determinant is divided by their product."""
        if not self.is_square():
            raise SizeMismatchError("determinant of a non-square matrix")
        if all(type(x) is int for r in self.entries for x in r):
            return Fraction(int_det(self.entries))
        rows: list[list[int]] = []
        scale = 1
        for r in self.entries:
            d = math.lcm(*(x.denominator for x in r))
            rows.append([x.numerator * (d // x.denominator) for x in r])
            scale *= d
        return Fraction(int_det(rows), scale)

    def is_invertible(self) -> bool:
        return self.is_square() and self.det() != 0

    def inverse(self) -> "RatMatrix":
        if not self.is_square():
            raise SizeMismatchError("inverse of a non-square matrix")
        n = self.rows
        m = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(self.entries)]
        for col in range(n):
            pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
            if pivot is None:
                raise ZeroDivisionError("matrix is singular")
            m[col], m[pivot] = m[pivot], m[col]
            inv = Fraction(1, m[col][col])
            m[col] = [x * inv for x in m[col]]
            for r in range(n):
                if r != col and m[r][col] != 0:
                    factor = m[r][col]
                    m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
        return RatMatrix.from_rows([row[n:] for row in m])


def int_det(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix (fraction-free Bareiss)."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(map(int, r)) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]
