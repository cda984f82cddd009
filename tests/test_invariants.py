import inspect
import random
import sys
from itertools import product

import pytest

from looptrans.algebra import RatMatrix, SignedPerm, compose, int_det, trace
from looptrans.graph import LoopSignedGraph
from looptrans import invariants
from looptrans.invariants import (
    PRIME_MODULUS,
    _bracelet_level,
    det_probe,
    kron_probe,
    spectral_report,
    trace_profile,
    word_trace,
)

from conftest import random_graph


def necklace_canonical(word):
    """Representative of the word's rotation class: its least rotation."""
    w = tuple(word)
    if not w:
        return w
    return min(w[i:] + w[:i] for i in range(len(w)))


def _single_vertex(sign):
    return LoopSignedGraph.build(1, [([], {1: sign})])


def test_word_trace_examples(gww, square_triangle):
    g1, g2 = gww.graphs
    assert word_trace(g1, ()) == 7
    assert word_trace(g1, (1,)) == -1
    s, t = square_triangle.graphs
    assert word_trace(s, (1, 2)) == 0
    assert word_trace(t, (1, 2)) == 0


def test_word_trace_colour_range(gww):
    with pytest.raises(ValueError):
        word_trace(gww.graphs[0], (4,))


def test_word_trace_matches_matrix_product(gww):
    # independent oracle: exact rational matrix products
    g = gww.graphs[0]
    rng = random.Random(30)
    mats = [g.color(c).to_matrix() for c in (1, 2, 3)]
    for _ in range(25):
        word = [rng.randint(1, 3) for _ in range(rng.randint(1, 6))]
        acc = RatMatrix.identity(7)
        for c in word:
            acc = mats[c - 1] @ acc  # A^{c_l} ... A^{c_1}
        expected = sum(acc.entries[i][i] for i in range(7))
        assert word_trace(g, word) == expected


def test_word_trace_cyclic(gww):
    g = gww.graphs[1]
    rng = random.Random(31)
    for _ in range(40):
        word = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 7)))
        rot = rng.randrange(len(word))
        rotated = word[rot:] + word[:rot]
        assert word_trace(g, word) == word_trace(g, rotated)


def test_trace_profile_l0(gww):
    assert trace_profile(gww.graphs[0], 0) == {(): 7}


def test_trace_profile_gww_pair_agrees_to_length_8(gww):
    g1, g2 = gww.graphs
    assert trace_profile(g1, 8) == trace_profile(g2, 8)


def test_trace_profile_keys_are_necklaces():
    g = random_graph(random.Random(32), 4, 3)
    profile = trace_profile(g, 4)
    assert all(necklace_canonical(w) == w for w in profile)
    # covers every word up to rotation
    for length in range(5):
        for word in product((1, 2, 3), repeat=length):
            assert necklace_canonical(word) in profile


def test_trace_profile_separates_single_loops():
    d = _single_vertex("D")
    n = _single_vertex("N")
    assert trace_profile(d, 1) != trace_profile(n, 1)


def test_kron_probe_gww_pair_equal(gww):
    g1, g2 = gww.graphs
    assert kron_probe(g1, seed=7) == kron_probe(g2, seed=7)
    assert kron_probe(g1, seed=7) == kron_probe(g1, seed=7)
    assert kron_probe(g1, seed=7) != kron_probe(g1, seed=8)


def test_kron_probe_single_vertex_differs():
    d = _single_vertex("D")
    n = _single_vertex("N")
    probe_d = kron_probe(d, dim=1, power=1, seed=5)
    probe_n = kron_probe(n, dim=1, power=1, seed=5)
    assert probe_d != probe_n
    assert probe_d[0] == (-probe_n[0]) % PRIME_MODULUS


def test_work_caps_are_checked_up_front(gww):
    g = gww.graphs[0]
    # 3^13 > 2^20 words; 14,493 * 21^3 > 2^27 multiplications (V=7, dim 3)
    for max_len in (13, 30, 10**9):
        with pytest.raises(ValueError, match="max_len"):
            trace_profile(g, max_len)
    for dim, power in ((3, 14_493), (100_000, None), (3, 10**9)):
        with pytest.raises(ValueError, match="power"):
            kron_probe(g, dim, power)
    # one colour walks one word per length, up to 1,000 letters
    assert len(trace_profile(_single_vertex("D"), 30)) == 31
    for max_len in (1001, 5000, 10**9):
        with pytest.raises(ValueError, match="max_len"):
            trace_profile(_single_vertex("D"), max_len)


def _recursive_profile(g, max_len):
    """Reference: the depth-first walk as one recursive call per letter."""
    profile = {(): g.vertices}

    def extend(word, acc):
        if len(word) == max_len:
            return
        for c in range(1, g.colors + 1):
            nword, nacc = word + (c,), compose(g.color(c), acc)
            profile.setdefault(necklace_canonical(nword), trace(nacc))
            extend(nword, nacc)

    extend((), SignedPerm.identity(g.vertices))
    return profile


def test_trace_profile_walks_words_in_recursive_order():
    rng = random.Random(11)
    for colors, max_len in ((1, 9), (2, 7), (3, 5), (2, 12), (4, 4)):
        for _ in range(4):
            g = random_graph(rng, rng.randint(1, 6), colors)
            assert list(trace_profile(g, max_len).items()) == list(
                _recursive_profile(g, max_len).items()
            )
    # one colour at the cap, against the closed form: A is an involution, so
    # tr A^k is tr A for odd k and V for even k
    for _ in range(4):
        g = random_graph(rng, rng.randint(1, 6), 1)
        closed = [
            ((1,) * k, trace(g.color(1)) if k % 2 else g.vertices)
            for k in range(1001)
        ]
        assert list(trace_profile(g, 1000).items()) == closed


def test_one_colour_profile_is_iterative():
    g = LoopSignedGraph.build(3, [([(1, 2)], {3: "D"})])
    limit = sys.getrecursionlimit()
    # a walk with one frame per letter would need 300 frames beyond this one
    sys.setrecursionlimit(len(inspect.stack()) + 60)
    try:
        profile = trace_profile(g, 300)
    finally:
        sys.setrecursionlimit(limit)
    assert len(profile) == 301
    assert profile[(1,) * 299] == -1 and profile[(1,) * 300] == 3


def _is_bracelet_rep(word):
    """Cyclically reduced, and least of its rotations and their reversals."""
    n = len(word)
    if any(word[i] == word[(i + 1) % n] for i in range(n)) and n > 1:
        return False
    turns = [word[i:] + word[:i] for i in range(n)]
    return word == min(turns + [t[::-1] for t in turns])


@pytest.mark.parametrize("colors,max_len", [(1, 4), (2, 9), (3, 8), (4, 6)])
def test_bracelet_levels_hold_every_representative_in_order(colors, max_len, monkeypatch):
    monkeypatch.setattr(invariants, "_BRACELET_LEVELS", {})
    assert [n.word for n in _bracelet_level(colors, 2)] == [
        (a, b) for a in range(colors) for b in range(a + 1, colors)
    ]
    assert len(invariants._BRACELET_LEVELS[colors]) == 2
    above = _bracelet_level(colors, 1)
    for length in range(2, max_len + 1):
        level = _bracelet_level(colors, length)
        words = [n.word for n in level]
        assert words == sorted(set(words))
        assert all(n.word[:-1] == above[n.parent].word for n in level)
        reps = [n.word for n in level if n.representative]
        expected = [w for w in product(range(colors), repeat=length) if _is_bracelet_rep(w)]
        assert reps == expected
        above = level
    assert len(invariants._BRACELET_LEVELS[colors]) == max_len


def test_det_probe(gww, square_triangle):
    g1, g2 = gww.graphs
    assert det_probe(g1, seed=3) == det_probe(g2, seed=3)
    s, t = square_triangle.graphs
    assert det_probe(s, seed=3) == det_probe(t, seed=3)


def test_det_probe_matches_integer_determinant():
    # independent oracle: the exact integer determinant of sum_c z_c A^c from
    # the dense colour matrices, reduced mod p; z_c are the seeded draws
    rng = random.Random(12)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 6), rng.randint(1, 4))
        seed = rng.choice((None, 0, 5, 11))
        draws = random.Random(0 if seed is None else seed)
        zs = [draws.randrange(PRIME_MODULUS) for _ in range(g.colors)]
        m = [[0] * g.vertices for _ in range(g.vertices)]
        for z, perm in zip(zs, g.adjacency):
            for i, row in enumerate(perm.to_matrix().entries):
                for j, x in enumerate(row):
                    m[i][j] += z * x
        assert det_probe(g, seed) == int_det(m) % PRIME_MODULUS


def test_det_probe_identity_colour():
    g = LoopSignedGraph.build(3, [([], {1: "N", 2: "N", 3: "N"})])
    rng = random.Random(0)
    z = rng.randrange(PRIME_MODULUS)
    assert det_probe(g, seed=0) == pow(z, 3, PRIME_MODULUS)


def test_spectral_report(gww, square_triangle):
    g = gww.graphs[0]
    report = spectral_report(g)
    assert report.block_count == 7
    assert report.boundary_balance == (-1, -1, 1)
    assert report.loopless_edges is None  # mixed signs
    s = square_triangle.graphs[0]
    corners = dict(spectral_report(s).corner_traces)
    assert corners[(1, 2)] == (0, -2)


def test_spectral_report_homogeneous_edges(gww):
    g = gww.graphs[0]
    all_d = LoopSignedGraph.build(
        7,
        [
            (g.edges(c), {v: "D" for v in g.loops(c)})
            for c in (1, 2, 3)
        ],
    )
    assert spectral_report(all_d).loopless_edges == 6
    all_n = LoopSignedGraph.build(
        7,
        [
            (g.edges(c), {v: "N" for v in g.loops(c)})
            for c in (1, 2, 3)
        ],
    )
    assert spectral_report(all_n).loopless_edges == 6
