import random
from itertools import product

import numpy as np
import pytest

from looptrans.algebra import SignedPerm
from looptrans.graph import (
    LoopSignedGraph,
    canonical_form,
    is_canonical,
    is_connected,
    is_treelike,
)
from looptrans.enumeration import (
    PackedClasses,
    _canonical_mask,
    _merge_shards,
    _trace_hash,
    census,
    census_details,
    colour_classes,
    enumerate_classes,
    enumerate_packed,
    find_pairs,
    quilt_classes,
)
from looptrans.invariants import DEFAULT_MAX_WORD, trace_profile
from looptrans.transplant import transplantable


def _all_symmetric_involutions(n, signs):
    """Every symmetric signed involution on n points (brute-force oracle)."""
    out = []

    def rec(targets, sgns, v):
        if v > n:
            out.append(SignedPerm(tuple(targets[1:]), tuple(sgns[1:])))
            return
        if targets[v]:
            rec(targets, sgns, v + 1)
            return
        for s in signs:
            targets[v], sgns[v] = v, s
            rec(targets, sgns, v + 1)
            targets[v], sgns[v] = 0, 1
        for w in range(v + 1, n + 1):
            if not targets[w]:
                targets[v], targets[w] = w, v
                rec(targets, sgns, v + 1)
                targets[v] = targets[w] = 0

    rec([0] * (n + 1), [1] * (n + 1), 1)
    return out


def _brute_force_codes(vertices, colors, signs):
    perms = _all_symmetric_involutions(vertices, signs)
    codes = set()
    for combo in product(perms, repeat=colors):
        g = LoopSignedGraph(vertices, combo)
        if is_connected(g):
            codes.add(canonical_form(g).code)
    return codes


@pytest.mark.parametrize("vertices,colors", [(1, 1), (2, 2), (3, 2), (2, 3), (3, 3), (4, 2)])
def test_orderly_agrees_with_brute_force(vertices, colors):
    signs = (1, -1)
    brute = _brute_force_codes(vertices, colors, signs)
    orderly = [canonical_form(g).code for g in enumerate_classes(vertices, colors, "mixed")]
    assert len(orderly) == len(set(orderly))  # no duplicates
    assert set(orderly) == brute


def test_orderly_agrees_with_brute_force_signless():
    brute = _brute_force_codes(3, 3, (1,))
    orderly = {canonical_form(g).code for g in enumerate_classes(3, 3, "signless")}
    assert orderly == brute


def test_emitted_graphs_are_self_canonical():
    for g in enumerate_classes(4, 3, "mixed"):
        assert is_canonical(g)


def test_emitted_graphs_are_connected_and_valid():
    from looptrans.graph import validate

    for g in enumerate_classes(4, 2, "mixed"):
        assert validate(g) is None
        assert is_connected(g)


def test_enumeration_is_deterministic():
    first = [canonical_form(g).code for g in enumerate_classes(4, 3, "mixed")]
    second = [canonical_form(g).code for g in enumerate_classes(4, 3, "mixed")]
    assert first == second


def test_shard_independence():
    whole = enumerate_packed(4, 3, "mixed")
    parts = [
        enumerate_packed(4, 3, "mixed", shard_count=3, shard_index=i)
        for i in range(3)
    ]
    merged = _merge_shards(parts)
    assert len(merged) == len(whole)
    whole_codes = {canonical_form(whole.graph(i)).code for i in range(len(whole))}
    merged_codes = {canonical_form(merged.graph(i)).code for i in range(len(merged))}
    assert whole_codes == merged_codes


def test_trace_hash_matches_trace_profile():
    packed = enumerate_packed(3, 3, "mixed")
    # equal trace profiles up to length L must give equal hashes, and here
    # differing profiles give differing hashes too
    for max_len in (0, 1, 2, 6):
        hashes = _trace_hash(packed.targets, packed.signs, max_len)
        if max_len == DEFAULT_MAX_WORD:
            assert np.array_equal(hashes, packed.trace_hash)
        by_profile = {}
        for i in range(len(packed)):
            prof = tuple(sorted(trace_profile(packed.graph(i), max_len).items()))
            by_profile.setdefault(prof, set()).add(int(hashes[i]))
        assert all(len(h) == 1 for h in by_profile.values())
        assert len(set(hashes.tolist())) == len(by_profile)


def test_canonical_mask_matches_scalar():
    # the mask expects its input rows to be BFS-consistent from vertex 1,
    # which is what the generator emits; relabel random graphs accordingly
    from looptrans.graph import _bfs_order, permute
    from conftest import random_graph

    rng = random.Random(70)
    rows_t = []
    rows_s = []
    graphs = []
    while len(graphs) < 60:
        g = random_graph(rng, 5, 2)
        if not is_connected(g):
            continue
        order = _bfs_order(g, 1)
        relabel = [0] * g.vertices
        for pos, v in enumerate(order, start=1):
            relabel[v - 1] = pos
        h = permute(g, tuple(relabel))
        graphs.append(h)
        rows_t.append([list(p.targets) for p in h.adjacency])
        rows_s.append([list(p.signs) for p in h.adjacency])
    tarr = np.array(rows_t, dtype=np.int8)
    sarr = np.array(rows_s, dtype=np.int8)
    mask = _canonical_mask(tarr, sarr)
    for g, flag in zip(graphs, mask):
        assert bool(flag) == is_canonical(g)


def test_find_pairs_matches_all_pairs_decide():
    graphs = list(enumerate_classes(2, 3, "mixed"))
    assert len(graphs) == 40
    found = {
        (canonical_form(a).code, canonical_form(b).code)
        for a, b in find_pairs(graphs)
    }
    brute = set()
    for i in range(len(graphs)):
        for j in range(i + 1, len(graphs)):
            if transplantable(graphs[i], graphs[j]):
                key = tuple(
                    sorted([canonical_form(graphs[i]).code, canonical_form(graphs[j]).code])
                )
                brute.add(key)
    assert {tuple(sorted(k)) for k in found} == brute
    assert len(found) == 9


def test_census_small_rows():
    row = census(2, 3, "mixed")
    assert (row.class_count, row.treelike_count) == (40, 30)
    assert (row.pair_count, row.treelike_pair_count) == (9, 6)
    assert (row.class_pair_count, row.treelike_class_pair_count) == (3, 2)
    row3 = census(3, 3, "mixed")
    assert (row3.class_count, row3.pair_count) == (128, 0)


def test_census_signless_two_vertices():
    # independent count: per colour either the edge or two unsigned loops,
    # all configurations swap-invariant, connected needs at least one edge
    row = census(2, 3, "dirichlet")
    assert row.class_count == 2**3 - 1
    assert row.pair_count == 0


def test_colour_classes_on_two_vertex_pairs():
    graphs = list(enumerate_classes(2, 3, "mixed"))
    pairs = find_pairs(graphs)
    classes = colour_classes(pairs)
    assert len(classes) == 3
    assert sorted(len(c) for c in classes) == [3, 3, 3]
    assert len(quilt_classes(pairs)) <= 3


def test_census_details_returns_the_counted_pairs():
    row, pairs = census_details(4, 3, "mixed")
    assert row.pair_count == len(pairs) == 118
    for a, b in pairs[:10]:
        assert transplantable(a, b)
        assert is_canonical(a) and is_canonical(b)


def test_treelike_streaming_filter():
    trees = list(enumerate_classes(2, 3, "mixed", treelike_only=True))
    assert len(trees) == 30
    assert all(is_treelike(g) for g in trees)


def test_census_rejects_unknown_regime():
    with pytest.raises(ValueError):
        census(2, 3, "plaid")


def test_census_threads_match():
    assert census(3, 3, "mixed", threads=2) == census(3, 3, "mixed")


def test_found_pairs_share_trace_profiles():
    _, pairs = census_details(4, 3, "mixed")
    for g1, g2 in pairs[:15]:
        assert trace_profile(g1, 5) == trace_profile(g2, 5)
