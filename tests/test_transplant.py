import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import looptrans
from looptrans import algebra, invariants, transplant
from looptrans.algebra import (
    ClosureCapExceeded,
    RatMatrix,
    SignedPerm,
    bfs_closure,
    code_to_encode,
    compose,
    trace,
    word_product,
)
from looptrans.catalog import catalog
from looptrans.enumeration import census_details
from looptrans.graph import LoopSignedGraph, disjoint_union, permute
from looptrans.invariants import word_trace
from looptrans.reps import closure as group_closure
from looptrans.transplant import (
    _pair_generators,
    decide,
    intertwiner_space,
    transplantable,
    verify_witness,
)

from conftest import pair_closure, random_graph

CANDIDATES = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "candidates.json"
TRACE_TWINS = Path(__file__).parent / "data" / "v8_mixed_trace_twins.json"


def _single_vertex(sign):
    return LoopSignedGraph.build(1, [([], {1: sign})])


def _consistent(elements):
    """Whether the pairing of the halves is a bijection."""
    return len({a for a, _ in elements}) == len({b for _, b in elements}) == len(elements)


def test_pair_closure_self(square_triangle):
    s = square_triangle.graphs[0]
    elements, _ = pair_closure(s, s)
    assert _consistent(elements)
    assert len(elements) == 8
    assert all(a == b for a, b in elements)


def test_pair_closure_square_triangle(square_triangle):
    s, t = square_triangle.graphs
    elements, _ = pair_closure(s, t)
    assert _consistent(elements)
    assert len(elements) == 8  # dihedral group of the square


def test_pair_closure_word_witnesses(square_triangle):
    s, t = square_triangle.graphs
    for (a, b), word in zip(*pair_closure(s, t)):
        assert word_product(s.adjacency, word) == a
        assert word_product(t.adjacency, word) == b


def test_pair_closure_of_a_graph_with_itself_is_its_group(gww, square_triangle):
    # a pair closure is the closure of the diagonal generators, so pairing a
    # graph with itself walks its group in the same order with the same words
    for g in (gww.graphs[0], square_triangle.graphs[1]):
        elements, words = pair_closure(g, g)
        group = group_closure(list(g.adjacency))
        assert [a for a, _ in elements] == list(group.elements)
        assert tuple(words) == group.words


def test_small_cap_raises_on_every_closure(gww):
    g1, g2 = gww.graphs  # their group has 336 elements
    with pytest.raises(ClosureCapExceeded):
        group_closure(list(g1.adjacency), cap=100)
    with pytest.raises(ClosureCapExceeded):
        pair_closure(g1, g2, cap=100)
    with pytest.raises(ClosureCapExceeded):
        decide(g1, g2, method="group", cap=100)
    assert group_closure(list(g1.adjacency), cap=336).order == 336


def test_memory_bound_raises_on_every_closure(gww, monkeypatch):
    # the closures refuse at MAX_CLOSURE_ENTRIES // len(doubled code)
    # elements: 14 entries on gww's 7 points, 28 for the pair closure
    g1, g2 = gww.graphs
    gens = [p.encode() for p in g1.adjacency]
    monkeypatch.setattr(algebra, "MAX_CLOSURE_ENTRIES", 14 * 100 + 13)
    reached = []
    with pytest.raises(ClosureCapExceeded, match="exceeded 100 elements"):
        reached.extend(bfs_closure(gens))
    assert len(reached) == 100
    with pytest.raises(ClosureCapExceeded):
        group_closure(list(g1.adjacency))
    monkeypatch.setattr(algebra, "MAX_CLOSURE_ENTRIES", 28 * 335)
    with pytest.raises(ClosureCapExceeded, match="exceeded 335 elements"):
        decide(g1, g2, method="group")
    monkeypatch.setattr(algebra, "MAX_CLOSURE_ENTRIES", 28 * 336)
    assert decide(g1, g2, method="group").verdict
    assert group_closure(list(g1.adjacency)).order == 336


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


def test_decide_refuses_an_unknown_method(gww):
    for method in ("auto", "Orbit", ""):
        with pytest.raises(ValueError, match="unknown method"):
            decide(*gww.graphs, method=method)


def test_star_import_names_only_existing_names():
    namespace = {}
    exec("from looptrans import *", namespace)
    assert set(looptrans.__all__) <= namespace.keys()


def test_decide_single_vertex_negative():
    for method in ("orbit", "group"):
        decision = decide(_single_vertex("D"), _single_vertex("N"), method=method)
        assert not decision.verdict
        cert = decision.certificate
        assert cert is not None and cert.kind == "trace"
        assert cert.word == (1,)


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
    for method in ("orbit", "group"):
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
for method in ("orbit", "group"):
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
    assert out[:2] == ["orbit True True False True", "group True True False True"]


# ------------------------------------------------ properties of the decision

@st.composite
def _graph_pairs(draw):
    """Two graphs with equal vertex and colour counts, relabelled at random.

    ``random_graph`` mixes Dirichlet and Neumann loops and makes disconnected
    graphs too.  A third of the pairs are a graph and a relabelling of it, and
    a third are the square/triangle pair each joined with the same random
    two-colour graph, so that positives with non-trivial witnesses occur.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("random", "relabelled", "joined")))
    if kind == "joined":
        s, t = catalog("square-triangle").graphs
        h = random_graph(rng, draw(st.integers(1, 4)), 2)
        a, b = disjoint_union([s, h]), disjoint_union([t, h])
    else:
        vertices, colors = draw(st.integers(1, 6)), draw(st.integers(1, 4))
        a = random_graph(rng, vertices, colors)
        b = a if kind == "relabelled" else random_graph(rng, vertices, colors)
    relabel = draw(st.permutations(range(1, a.vertices + 1)))
    return a, permute(b, tuple(relabel))


@settings(max_examples=120, deadline=None)
@given(pair=_graph_pairs())
def test_decide_is_symmetric_and_its_witnesses_verify(pair):
    a, b = pair
    forward, backward = decide(a, b), decide(b, a)
    assert forward.verdict == backward.verdict
    if forward.verdict:
        assert verify_witness(a, b, forward.witness)
        assert verify_witness(b, a, backward.witness)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    vertices=st.integers(1, 6),
    colors=st.integers(1, 4),
    data=st.data(),
)
def test_decide_relabelled_graph_is_positive(seed, vertices, colors, data):
    g = random_graph(random.Random(seed), vertices, colors)
    h = permute(g, tuple(data.draw(st.permutations(range(1, vertices + 1)))))
    decision = decide(g, h)
    assert decision.verdict
    assert verify_witness(g, h, decision.witness)


@settings(max_examples=60, deadline=None)
@given(pair=_graph_pairs())
def test_transplantable_matches_group_route(pair):
    a, b = pair
    assert transplantable(a, b) == decide(a, b, method="group").verdict


# ------------------------------------------- independent intertwiner oracles


def _dense(p):
    n = p.size
    m = [[0] * n for _ in range(n)]
    for i, (t, s) in enumerate(zip(p.targets, p.signs)):
        m[i][t - 1] = s
    return m


def _intertwining_system(a, b):
    """Rows of the integer system B^c T - T A^c = 0 in the n^2 entries of T."""
    n = a.vertices
    rows = []
    for pa, pb in zip(a.adjacency, b.adjacency):
        am, bm = _dense(pa), _dense(pb)
        for i in range(n):
            for j in range(n):
                row = [0] * (n * n)
                for k in range(n):
                    row[k * n + j] += bm[i][k]
                    row[i * n + k] -= am[k][j]
                rows.append(row)
    return rows


def _rank(rows):
    """Exact rank by Gaussian elimination over the rationals."""
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(rank + 1, len(m)):
            if m[r][col] != 0:
                f = m[r][col] / m[rank][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def test_intertwiner_space_matches_exact_nullity():
    rng = random.Random(43)
    cases = [(random_graph(rng, v, c), random_graph(rng, v, c))
             for v in range(1, 6) for c in range(1, 4) for _ in range(4)]
    cases += [(g, permute(g, tuple(rng.sample(range(1, g.vertices + 1), g.vertices))))
              for g, _ in cases[::3]]
    cases.append(catalog("square-triangle").graphs)
    for a, b in cases:
        n = a.vertices
        system = _intertwining_system(a, b)
        basis = intertwiner_space(a, b)
        assert len(basis) == n * n - _rank(system)
        support = set()
        for m in basis:
            flat = [x for row in m.entries for x in row]
            assert set(flat) <= {-1, 0, 1}
            assert all(sum(r * x for r, x in zip(eq, flat)) == 0 for eq in system)
            assert next(x for x in flat if x) == 1
            own = {p for p, x in enumerate(flat) if x}
            assert not own & support
            support |= own


class _SignedUnionFind:
    """The earlier orbit route, kept as a reference: a union-find over the
    entries of T carrying a sign relative to the root."""

    def __init__(self, n):
        self.parent = list(range(n))
        self.sign = [1] * n
        self.dead = [False] * n
        self.size = [1] * n

    def union(self, x, y, rel):
        rx, sx = self._find(x)
        ry, sy = self._find(y)
        if rx == ry:
            if sx * sy != rel:
                self.dead[rx] = True
            return
        if self.size[rx] < self.size[ry]:
            rx, ry = ry, rx
            sx, sy = sy, sx
        self.parent[ry] = rx
        self.sign[ry] = sx * sy * rel
        self.size[rx] += self.size[ry]
        if self.dead[ry]:
            self.dead[rx] = True

    def _find(self, x):
        path = []
        while self.parent[x] != x:
            path.append(x)
            x = self.parent[x]
        s = 1
        for node in reversed(path):
            s *= self.sign[node]
            self.parent[node] = x
            self.sign[node] = s
        return x, 1 if not path else self.sign[path[0]]


def _reference_orbits(g1, g2):
    n = g1.vertices
    uf = _SignedUnionFind(n * n)
    for c in range(1, g1.colors + 1):
        p1, p2 = g1.color(c), g2.color(c)
        for i in range(n):
            ti, si = p2.targets[i], p2.signs[i]
            for j in range(n):
                tj, sj = p1.targets[j], p1.signs[j]
                uf.union(i * n + j, (ti - 1) * n + (tj - 1), si * sj)
    by_root = {}
    for pos in range(n * n):
        root, sign = uf._find(pos)
        if not uf.dead[root]:
            by_root.setdefault(root, []).append((pos, sign))
    return by_root


def _reference_basis(g1, g2):
    n = g1.vertices
    basis = set()
    for members in _reference_orbits(g1, g2).values():
        lead_sign = min(members)[1]
        flat = [0] * (n * n)
        for pos, sign in members:
            flat[pos] = sign * lead_sign
        basis.add(tuple(tuple(flat[i : i + n]) for i in range(0, n * n, n)))
    return basis


def _reference_verdict(g1, g2):
    d12 = len(_reference_orbits(g1, g2))
    return d12 == len(_reference_orbits(g1, g1)) == len(_reference_orbits(g2, g2))


def _candidate_pairs():
    data = json.loads(CANDIDATES.read_text())["pairs"]

    def graph(rows):
        perms = (SignedPerm(tuple(abs(x) for x in r), tuple(1 if x > 0 else -1 for x in r))
                 for r in rows)
        return LoopSignedGraph(len(rows[0]), tuple(perms))

    return [(graph(p["a"]), graph(p["b"])) for p in data]


def test_orbit_labelling_matches_union_find_reference():
    pairs = [catalog(name).graphs for name in ("gww", "square-triangle", "band15", "d4-group")]
    census = census_details(4, 3, "mixed")[1] + census_details(7, 3, "neumann")[1]
    pairs += census
    # a graph of one census pair against one of the next: mostly negatives
    pairs += [(p[0], q[1]) for p, q in zip(census, census[1:])
              if p[0].vertices == q[1].vertices]
    pairs += _candidate_pairs()[::10]
    verdicts = 0
    for a, b in pairs:
        expected = _reference_verdict(a, b)
        verdicts += expected
        assert transplantable(a, b) == expected
        assert decide(a, b).verdict == expected
        basis = [tuple(tuple(int(x) for x in row) for row in m.entries)
                 for m in intertwiner_space(a, b)]
        assert len(basis) == len(set(basis))
        assert set(basis) == _reference_basis(a, b)
    assert 0 < verdicts < len(pairs)


def test_candidate_witnesses_have_int_entries():
    positives = 0
    for a, b in _candidate_pairs():
        d = decide(a, b)
        if d.verdict:
            positives += 1
            assert all(type(x) is int for row in d.witness.entries for x in row)
    assert positives == 1069


def test_verify_witness_ignores_rational_scale(gww, square_triangle):
    cases = []
    for entry in (gww, square_triangle):
        g1, g2 = entry.graphs
        t = entry.witness
        bent = RatMatrix.from_rows([[x + (i == j == 0) for j, x in enumerate(row)]
                                    for i, row in enumerate(t.entries)])
        cases += [(g1, g2, t), (g1, g2, bent), (g1, g2, RatMatrix.identity(g1.vertices))]
    for a, b in _candidate_pairs()[::60]:
        d = decide(a, b)
        cases.append((a, b, d.witness if d.verdict else RatMatrix.identity(a.vertices)))
    singular = RatMatrix.from_rows([[1, 1], [1, 1]])
    pair = LoopSignedGraph.build(2, [([(1, 2)], {})])
    cases.append((pair, pair, singular))
    outcomes = set()
    for g1, g2, t in cases:
        expected = verify_witness(g1, g2, t)
        outcomes.add(expected)
        for k in (Fraction(1, 2), Fraction(-3, 7), 5, -1):
            assert verify_witness(g1, g2, t.scale(k)) == expected
    assert outcomes == {True, False}


# ------------------------------------------------ negative certificates


def _shortest_separating_length(a, b, max_len):
    """The least length of a colour word with differing traces on a and b,
    by a walk over every word of each length; None past max_len."""
    products = [(SignedPerm.identity(a.vertices), SignedPerm.identity(b.vertices))]
    for length in range(1, max_len + 1):
        products = [
            (compose(pa, x), compose(pb, y))
            for x, y in products
            for pa, pb in zip(a.adjacency, b.adjacency)
        ]
        if any(trace(x) != trace(y) for x, y in products):
            return length
    return None


@pytest.mark.parametrize("colors", [2, 3])
def test_orbit_certificates_are_shortest_separating_words(colors):
    rng = random.Random(31 + colors)
    negatives = 0
    for _ in range(150):
        vertices = rng.randint(1, 5)
        a, b = random_graph(rng, vertices, colors), random_graph(rng, vertices, colors)
        d = decide(a, b)
        if d.verdict:
            continue
        negatives += 1
        word = d.certificate.word
        assert d.certificate.kind == "trace"
        assert word_trace(a, word) != word_trace(b, word)
        assert len(word) == _shortest_separating_length(a, b, len(word))
        assert len(word) <= len(transplant._group_verdict(a, b, 10**6).word)
    assert negatives > 50


def test_trace_twins_get_their_eleven_letter_word():
    # the six V=8 mixed candidates whose traces agree up to length 10
    for pair in json.loads(TRACE_TWINS.read_text())["pairs"]:
        a, b = (
            LoopSignedGraph(8, tuple(map(SignedPerm, map(tuple, t), map(tuple, s))))
            for t, s in zip(pair["targets"], pair["signs"])
        )
        d = decide(a, b)
        assert not d.verdict
        word = d.certificate.word
        assert len(word) == 11
        assert word_trace(a, word) != word_trace(b, word)


def test_exhausted_node_budget_falls_back_to_the_closure(monkeypatch):
    monkeypatch.setattr(transplant, "_CERTIFICATE_NODES", 0)
    rng = random.Random(33)
    negatives = 0
    pairs = [(random_graph(rng, 5, 3), random_graph(rng, 5, 3)) for _ in range(40)]
    pairs.append((_single_vertex("D"), _single_vertex("N")))
    for a, b in pairs:
        d = decide(a, b)
        if not d.verdict:
            negatives += 1
            assert d.certificate == transplant._group_verdict(a, b, 10**6)
    assert negatives > 10


def test_certificate_walk_builds_only_the_levels_it_reaches(monkeypatch):
    # nine colours: colour 9 of b is colour 9 of a relabelled, so every
    # one-letter trace agrees and the walk goes below the first level
    monkeypatch.setattr(invariants, "_BRACELET_LEVELS", {})
    rng = random.Random(9)
    a = random_graph(rng, 5, 9)
    moved = permute(LoopSignedGraph(5, a.adjacency[8:]), (2, 3, 4, 5, 1))
    b = LoopSignedGraph(5, a.adjacency[:8] + moved.adjacency)
    d = decide(a, b)
    assert not d.verdict
    word = d.certificate.word
    assert word_trace(a, word) != word_trace(b, word)
    assert len(word) >= 2
    assert len(invariants._BRACELET_LEVELS[9]) == len(word)


def _path(n):
    """The path 1 - 2 - ... - n in two alternating colours, a Neumann loop at
    vertex 1 and a Dirichlet loop at vertex n where a colour leaves them
    unmatched."""
    colours = []
    for first in (1, 2):
        targets, signs = list(range(1, n + 1)), [1] * n
        for i in range(first, n, 2):
            targets[i - 1], targets[i] = i + 1, i
        if targets[n - 1] == n:
            signs[n - 1] = -1
        colours.append(SignedPerm(tuple(targets), tuple(signs)))
    return LoopSignedGraph(n, tuple(colours))


def _code_form_records(pairs):
    """Under the current code form: the pair closure's words and decoded
    elements (its first 3,000), both routes' decisions, and the group closure
    of each graph, with the form each walk ran on."""
    records, forms = [], set()
    for g1, g2 in pairs:
        walk = []
        for code, word in bfs_closure(_pair_generators(g1, g2)):
            forms.add(type(code))
            walk.append((code_to_encode(code, 2 * g1.vertices), word))
            if len(walk) == 3000:
                break
        groups = [group_closure(list(g.adjacency)) for g in (g1, g2)]
        records.append((
            walk,
            decide(g1, g2, method="group"),
            decide(g1, g2),
            [(grp.codes, grp.words) for grp in groups],
        ))
    return records, forms


def test_byte_and_tuple_codes_agree(gww, square_triangle, band15, monkeypatch):
    rng = random.Random(36)
    pairs = [gww.graphs, square_triangle.graphs, band15.graphs]
    for _ in range(12):
        g = random_graph(rng, rng.randint(2, 5), 3)
        pairs.append((g, random_graph(rng, g.vertices, 3)))
        pairs.append((g, permute(g, rng.sample(range(1, g.vertices + 1), g.vertices))))
    byte_records, byte_forms = _code_form_records(pairs)
    assert byte_forms == {bytes}
    monkeypatch.setattr(algebra, "BYTE_CODE_POINTS", 0)
    tuple_records, tuple_forms = _code_form_records(pairs)
    assert tuple_forms == {tuple}
    assert byte_records == tuple_records
    verdicts = [group.verdict for _, group, _, _ in byte_records]
    assert 5 < sum(verdicts) < len(verdicts) - 5


@pytest.mark.parametrize("vertices", [64, 65])
def test_relabelled_paths_at_the_byte_code_limit(vertices):
    # the pair walks on 128 points (bytes) and on 130 points (tuples)
    g = _path(vertices)
    h = permute(g, random.Random(vertices).sample(range(1, vertices + 1), vertices))
    code, _ = next(bfs_closure(_pair_generators(g, h)))
    assert isinstance(code, bytes) == (vertices == 64)
    for method in ("orbit", "group"):
        d = decide(g, h, method=method)
        assert d.verdict
        assert verify_witness(g, h, d.witness)
