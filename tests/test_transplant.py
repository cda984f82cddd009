import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import looptrans
from looptrans import transplant
from looptrans.algebra import ClosureCapExceeded, RatMatrix, word_product
from looptrans.graph import LoopSignedGraph
from looptrans.invariants import word_trace
from looptrans.reps import closure as group_closure
from looptrans.transplant import (
    decide,
    intertwiner_space,
    pair_closure,
    pairwise_check,
    transplantable,
    verify_witness,
)

from conftest import random_graph


def _single_vertex(sign):
    return LoopSignedGraph.build(1, [([], {1: sign})])


def test_pair_closure_self(square_triangle):
    s = square_triangle.graphs[0]
    closure = pair_closure(s, s)
    assert closure.consistent
    assert len(closure.elements) == 8
    assert all(a == b for a, b in closure.elements)


def test_pair_closure_square_triangle(square_triangle):
    s, t = square_triangle.graphs
    closure = pair_closure(s, t)
    assert closure.consistent
    assert len(closure.elements) == 8  # dihedral group of the square


def test_pair_closure_word_witnesses(square_triangle):
    s, t = square_triangle.graphs
    closure = pair_closure(s, t)
    for (a, b), word in zip(closure.elements, closure.words):
        assert word_product(s.adjacency, word) == a
        assert word_product(t.adjacency, word) == b


def test_pair_closure_of_a_graph_with_itself_is_its_group(gww, square_triangle):
    # a pair closure is the closure of the diagonal generators, so pairing a
    # graph with itself walks its group in the same order with the same words
    for g in (gww.graphs[0], square_triangle.graphs[1]):
        pc = pair_closure(g, g)
        group = group_closure(list(g.adjacency))
        assert [a for a, _ in pc.elements] == list(group.elements)
        assert pc.words == group.words


def test_small_cap_raises_on_every_closure(gww):
    g1, g2 = gww.graphs  # their group has 336 elements
    with pytest.raises(ClosureCapExceeded):
        group_closure(list(g1.adjacency), cap=100)
    with pytest.raises(ClosureCapExceeded):
        pair_closure(g1, g2, cap=100)
    with pytest.raises(ClosureCapExceeded):
        decide(g1, g2, method="group", cap=100)
    assert group_closure(list(g1.adjacency), cap=336).order == 336


def test_pair_closure_inconsistent():
    closure = pair_closure(_single_vertex("D"), _single_vertex("N"))
    assert not closure.consistent
    assert closure.certificate is not None
    assert closure.certificate.kind == "inconsistent"


def test_decide_fixtures(gww, square_triangle, band15):
    g1, g2 = gww.graphs
    decision = decide(g1, g2)
    assert decision.verdict
    assert verify_witness(g1, g2, decision.witness)
    assert verify_witness(g1, g2, gww.witness)  # printed matrix is accepted
    assert decide(*band15.graphs).verdict
    s, t = square_triangle.graphs
    assert decide(s, t).verdict


def test_decide_self_gives_identity_witness(gww):
    g = gww.graphs[0]
    decision = decide(g, g)
    assert decision.verdict
    assert decision.witness == RatMatrix.identity(7)
    assert verify_witness(g, g, RatMatrix.identity(7))


def test_decide_single_vertex_negative():
    decision = decide(_single_vertex("D"), _single_vertex("N"))
    assert not decision.verdict
    cert = decision.certificate
    assert cert is not None and cert.kind == "trace"
    assert len(cert.word) == 1


def test_certificates_are_checkable(gww):
    # any negative decision must name a word whose traces differ
    rng = random.Random(40)
    negatives = 0
    for _ in range(60):
        a = random_graph(rng, 4, 2)
        b = random_graph(rng, 4, 2)
        decision = decide(a, b)
        if decision.verdict:
            assert verify_witness(a, b, decision.witness)
        else:
            negatives += 1
            cert = decision.certificate
            assert cert is not None and cert.kind == "trace"
            assert word_trace(a, cert.word) != word_trace(b, cert.word)
    assert negatives > 10


def test_group_and_orbit_routes_agree(gww, square_triangle, band15):
    cases = [
        gww.graphs,
        square_triangle.graphs,
        (square_triangle.graphs[0], square_triangle.graphs[0]),
        (_single_vertex("D"), _single_vertex("N")),
    ]
    rng = random.Random(41)
    for _ in range(40):
        cases.append((random_graph(rng, 4, 2), random_graph(rng, 4, 2)))
    for a, b in cases:
        assert decide(a, b, method="group").verdict == decide(a, b, method="orbit").verdict


def test_intertwiner_space_square_triangle(square_triangle):
    s, t = square_triangle.graphs
    basis = intertwiner_space(s, t)
    assert len(basis) == 1
    expected = RatMatrix.from_rows([[-1, 1], [1, 1]])
    assert basis[0] in (expected, expected.scale(-1))


def test_intertwiner_space_is_exact(gww):
    g1, g2 = gww.graphs
    basis = intertwiner_space(g1, g2)
    assert len(basis) == 1  # regression: this pair has a one-dimensional space
    for b in basis:
        for c in (1, 2, 3):
            assert g2.color(c).to_matrix() @ b == b @ g1.color(c).to_matrix()
        assert all(x in (-1, 0, 1) for row in b.entries for x in row)


def test_intertwiner_entries_zero_on_sign_clash(square_triangle):
    # a Dirichlet loop on one side and a Neumann loop on the other pin T to 0
    s, _ = square_triangle.graphs
    basis = intertwiner_space(s, s)
    for b in basis:
        for c in (1, 2):
            p = s.color(c)
            for i in range(2):
                for k in range(2):
                    if (
                        p.targets[i] == i + 1
                        and p.targets[k] == k + 1
                        and p.signs[i] * p.signs[k] == -1
                    ):
                        assert b[i, k] == 0


def test_disjoint_supports(gww):
    g1, g2 = gww.graphs
    basis = intertwiner_space(g1, g1)
    support = set()
    for b in basis:
        own = {(i, j) for i in range(7) for j in range(7) if b[i, j] != 0}
        assert not (own & support)
        support |= own


def test_verify_witness_rejects(gww):
    g1, g2 = gww.graphs
    assert not verify_witness(g1, g2, RatMatrix.zero(7, 7))
    assert not verify_witness(g1, g2, RatMatrix.identity(7))
    with pytest.raises(ValueError):
        verify_witness(g1, g2, RatMatrix.identity(3))


def test_pairwise_check(gww):
    g1, g2 = gww.graphs
    assert pairwise_check([g1]) == [[True]]
    assert pairwise_check([g1, g2]) == [[True, True], [True, True]]
    tiny = _single_vertex("N")
    matrix = pairwise_check([g1, g2, tiny])
    assert matrix[0][2] is False and matrix[2][1] is False
    assert matrix[2][2] is True


def test_transplantable_is_symmetric(gww, square_triangle):
    g1, g2 = gww.graphs
    assert transplantable(g1, g2) and transplantable(g2, g1)
    s, t = square_triangle.graphs
    assert transplantable(s, t) and transplantable(t, s)


def test_intertwiner_invertible_implies_equal_word_traces(square_triangle):
    s, t = square_triangle.graphs
    rng = random.Random(42)
    for _ in range(30):
        word = tuple(rng.randint(1, 2) for _ in range(rng.randint(0, 8)))
        assert word_trace(s, word) == word_trace(t, word)


def test_missing_witness_raises(gww, monkeypatch):
    monkeypatch.setattr(transplant, "_invertible_combination", lambda *args: None)
    for method in ("auto", "group"):
        with pytest.raises(RuntimeError):
            decide(*gww.graphs, method=method)


_OPTIMIZED_SCRIPT = """
from looptrans.catalog import catalog
from looptrans.graph import LoopSignedGraph
from looptrans.invariants import word_trace
from looptrans.transplant import decide, verify_witness

assert False, "asserts must be stripped"
g1, g2 = catalog("gww").graphs
d = LoopSignedGraph.build(1, [([], {1: "D"})])
n = LoopSignedGraph.build(1, [([], {1: "N"})])
for method in ("auto", "group"):
    yes = decide(g1, g2, method=method)
    no = decide(d, n, method=method)
    word = no.certificate.word
    print(method, yes.verdict, verify_witness(g1, g2, yes.witness),
          no.verdict, word_trace(d, word) != word_trace(n, word))
"""


def test_decide_under_optimized_python():
    src = str(Path(looptrans.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_SCRIPT],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    ).stdout.split("\n")
    assert out[:2] == ["auto True True False True", "group True True False True"]
