import json
import random
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from looptrans.algebra import SignedPerm
from looptrans.graph import (
    LoopSignedGraph,
    canonical_form,
    components,
    disjoint_union,
    is_bipartite_loopless,
    is_canonical,
    is_connected,
    is_isomorphic,
    is_treelike,
    loopless_version,
    permute,
    subgraph,
    validate,
)
from looptrans.formats import GraphFormatError, parse_graph
from looptrans.transplant import decide, transplantable

from conftest import random_graph


def _loops_only(vertices, colors, sign="N"):
    return LoopSignedGraph.build(
        vertices, [([], {v: sign for v in range(1, vertices + 1)})] * colors
    )


def test_build_rejects_double_incidence():
    with pytest.raises(ValueError):
        LoopSignedGraph.build(3, [([(1, 2), (2, 3)], {})])
    with pytest.raises(ValueError):
        LoopSignedGraph.build(2, [([(1, 2)], {1: "D"})])
    with pytest.raises(ValueError):
        LoopSignedGraph.build(2, [([], {1: "D"})])  # vertex 2 uncovered


def test_validate_fixtures(gww, square_triangle, band15):
    for entry in (gww, square_triangle, band15):
        for g in entry.graphs:
            assert validate(g) is None


def test_validate_negative_offdiagonal():
    bad = LoopSignedGraph(2, (SignedPerm((2, 1), (-1, -1)),))
    assert "negative" in validate(bad)


def test_validate_not_symmetric():
    bad = LoopSignedGraph(3, (SignedPerm((2, 3, 1), (1, 1, 1)),))
    assert "symmetric" in validate(bad)


def test_validate_rejects_non_permutation():
    # SignedPerm takes any targets and signs; validate is where a colour that
    # is no signed permutation is refused, and every verdict reaches it
    good = LoopSignedGraph(2, (SignedPerm((2, 1), (1, 1)),))
    cases = [
        (SignedPerm((1, 1), (1, 1)), "symmetric"),  # repeated target
        (SignedPerm((0, 2), (1, 1)), "symmetric"),  # target 0
        (SignedPerm((3, 2), (1, 1)), "permutation"),  # target V+1
        (SignedPerm((1, 2), (1, 0)), "loop sign"),
        (SignedPerm((1, 2), (2, 1)), "loop sign"),
        (SignedPerm((2, 1), (1,)), "signs"),  # shorter sign list
    ]
    for perm, message in cases:
        bad = LoopSignedGraph(2, (perm,))
        assert message in validate(bad)
        for pair in ((bad, good), (good, bad), (bad, bad)):
            with pytest.raises(ValueError, match=message):
                decide(*pair)
            with pytest.raises(ValueError, match=message):
                transplantable(*pair)
    # the same faults in a graph file, where the format can express them
    for edges, loops in (
        ([[1, 2], [1, 2]], {}),  # repeated target
        ([[0, 2]], {"1": "N"}),  # target 0
        ([[1, 3]], {"2": "N"}),  # target V+1
        ([], {"1": 0, "2": "N"}),
        ([], {"1": 2, "2": "N"}),
    ):
        doc = {"version": 1, "vertices": 2, "colors": 1,
               "adjacency": [{"color": 1, "edges": edges, "loops": loops}]}
        with pytest.raises(GraphFormatError):
            parse_graph(json.dumps(doc))


def test_components(gww):
    g = gww.graphs[0]
    assert components(g) == (tuple(range(1, 8)),)
    assert is_connected(g)
    loops = _loops_only(4, 2)
    assert components(loops) == ((1,), (2,), (3,), (4,))
    both = disjoint_union([g, gww.graphs[1]])
    assert len(components(both)) == 2


def _reachability_components(g):
    """Reference oracle: reach sets grown to a fixed point over the edges."""
    reach = {v: {v} for v in range(1, g.vertices + 1)}
    changed = True
    while changed:
        changed = False
        for v, seen in reach.items():
            grown = seen | {p.targets[u - 1] for u in seen for p in g.adjacency}
            if grown != seen:
                reach[v], changed = grown, True
    return tuple(sorted({tuple(sorted(r)) for r in reach.values()}))


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    sizes=st.lists(st.integers(1, 6), min_size=1, max_size=3),
    colors=st.integers(1, 4),
)
def test_components_match_reachability(seed, sizes, colors):
    # disjoint unions, shuffled, so that components interleave in numbering
    rng = random.Random(seed)
    g = disjoint_union([random_graph(rng, v, colors) for v in sizes])
    relabel = list(range(1, g.vertices + 1))
    rng.shuffle(relabel)
    g = permute(g, relabel)
    assert components(g) == _reachability_components(g)
    assert is_connected(g) == (len(_reachability_components(g)) == 1)


def test_build_rejects_unknown_loop_sign():
    for sign in ("X", "d", -1, None):
        with pytest.raises(ValueError, match="loop sign"):
            LoopSignedGraph.build(2, [([], {1: "D", 2: sign})])


def test_loopless_counts(gww, band15):
    assert len(loopless_version(gww.graphs[0])) == 6
    assert len(loopless_version(_loops_only(3, 3))) == 0
    assert len(loopless_version(band15.graphs[0])) == 16


def test_treelike(gww, band15):
    assert is_treelike(gww.graphs[0])
    assert not is_treelike(band15.graphs[0])  # 16 edges on 15 vertices
    assert is_treelike(_loops_only(1, 3))


def test_double_edges_are_cycles():
    g = LoopSignedGraph.build(2, [([(1, 2)], {}), ([(1, 2)], {}), ([], {1: "N", 2: "N"})])
    assert validate(g) is None
    assert not is_treelike(g)
    assert is_bipartite_loopless(g)  # a 2-cycle is even


def test_bipartite(gww, band15):
    assert is_bipartite_loopless(gww.graphs[0])  # trees are bipartite
    assert is_bipartite_loopless(band15.graphs[0])
    assert not is_bipartite_loopless(band15.graphs[1])


def test_canonical_invariant_under_relabeling(gww):
    rng = random.Random(20)
    for g in [gww.graphs[0], random_graph(rng, 6, 3), random_graph(rng, 5, 2)]:
        base = canonical_form(g)
        for _ in range(25):
            relabel = list(range(1, g.vertices + 1))
            rng.shuffle(relabel)
            assert canonical_form(permute(g, tuple(relabel))).code == base.code


def test_canonical_relabeling_realizes_code(gww):
    rng = random.Random(21)
    for g in [gww.graphs[0], gww.graphs[1], random_graph(rng, 5, 3)]:
        form = canonical_form(g)
        relabeled = permute(g, form.relabeling)
        assert is_canonical(relabeled)
        assert canonical_form(relabeled).code == form.code


def test_gww_pair_not_isomorphic_exhaustive(gww):
    g1, g2 = gww.graphs
    assert canonical_form(g1).code != canonical_form(g2).code
    assert is_isomorphic(g1, g2) is None
    # independent oracle: no relabeling of the 7 vertices maps one to the other
    for relabel in permutations(range(1, 8)):
        assert permute(g1, relabel) != g2


def test_single_vertex_loop_order_matters():
    a = LoopSignedGraph.build(1, [([], {1: "D"}), ([], {1: "N"}), ([], {1: "N"})])
    b = LoopSignedGraph.build(1, [([], {1: "N"}), ([], {1: "D"}), ([], {1: "N"})])
    assert canonical_form(a).code != canonical_form(b).code


def test_is_isomorphic_returns_realizing_permutation(gww):
    rng = random.Random(22)
    g = gww.graphs[0]
    assert is_isomorphic(g, g) == tuple(range(1, 8))
    relabel = list(range(1, 8))
    rng.shuffle(relabel)
    shuffled = permute(g, tuple(relabel))
    found = is_isomorphic(g, shuffled)
    assert found is not None
    assert permute(g, found) == shuffled


def test_subgraph_extracts_components(gww):
    g = disjoint_union([gww.graphs[0], _loops_only(2, 3)])
    comps = components(g)
    assert subgraph(g, comps[0]) == gww.graphs[0]
    with pytest.raises(ValueError):
        subgraph(g, (1, 2, 3))  # not a union of components
