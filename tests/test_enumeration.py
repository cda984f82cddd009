import random
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from looptrans import enumeration
from looptrans.algebra import SignedPerm
from looptrans.catalog import CATALOG_NAMES, catalog
from looptrans.graph import (
    LoopSignedGraph,
    _bfs_order,
    canonical_form,
    is_canonical,
    is_connected,
    is_treelike,
    permute,
)
from looptrans.enumeration import (
    PackedClasses,
    _bracelet_trie,
    _canonical_mask,
    _merge_shards,
    _trace_hash,
    canonical_codes,
    census,
    census_details,
    colour_classes,
    enumerate_classes,
    enumerate_packed,
    find_pairs,
    quilt_classes,
)
from looptrans.invariants import DEFAULT_MAX_WORD, trace_profile, word_trace
from looptrans.transform import NotNormalizable, braid
from looptrans.transplant import transplantable
from conftest import random_graph


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


def _full_word_trace_hash(tarr, sarr, max_len):
    """Reference oracle: the rolling hash over every word of length 1 .. max_len."""
    n, c_count, v_count = tarr.shape
    idx = np.arange(v_count, dtype=np.int8)
    t0 = tarr - 1
    h = np.zeros(n, np.uint64)
    mul = np.uint64(1099511628211)

    def visit(tw, sw):
        nonlocal h
        tr = (sw * (tw == idx)).sum(axis=1, dtype=np.int64)
        h = h * mul + (tr + (v_count + 1)).astype(np.uint64)

    def rec(tw, sw, depth):
        if depth:
            visit(tw, sw)
        if depth >= max_len:
            return
        for c in range(c_count):
            tc = t0[:, c, :]
            tn = np.take_along_axis(tw, tc, axis=1)
            sn = sarr[:, c, :] * np.take_along_axis(sw, tc, axis=1)
            rec(tn, sn, depth + 1)

    rec(np.broadcast_to(idx, (n, v_count)), np.ones((n, v_count), np.int8), 0)
    return h


def _partition(hashes):
    groups = {}
    for i, h in enumerate(hashes.tolist()):
        groups.setdefault(h, set()).add(i)
    return {frozenset(g) for g in groups.values()}


def _pack(graphs):
    tarr = np.array([[p.targets for p in g.adjacency] for g in graphs], np.int8)
    sarr = np.array([[p.signs for p in g.adjacency] for g in graphs], np.int8)
    return tarr, sarr


def _bracelet_representative(word):
    """Least rotation or reversal of the word's cyclic reduction (A^c A^c = I)."""
    reduced = []
    for c in word:
        if reduced and reduced[-1] == c:
            reduced.pop()
        else:
            reduced.append(c)
    while len(reduced) > 1 and reduced[0] == reduced[-1]:
        reduced = reduced[1:-1]
    w = tuple(reduced)
    turns = [w[i:] + w[:i] for i in range(len(w))] or [w]
    return min(turns + [t[::-1] for t in turns])


@pytest.mark.parametrize("vertices,colors", [(5, 3), (4, 2), (4, 4)])
def test_trace_hash_partition_matches_full_word_hash(vertices, colors):
    packed = enumerate_packed(vertices, colors, "mixed")
    full = _full_word_trace_hash(packed.targets, packed.signs, DEFAULT_MAX_WORD)
    assert _partition(packed.trace_hash) == _partition(full)


@pytest.mark.parametrize("colors,count", [(2, 5), (3, 29), (4, 151)])
def test_bracelet_representative_counts(colors, count):
    trie = _bracelet_trie(colors, DEFAULT_MAX_WORD)
    assert sum(is_rep for _, _, is_rep in trie) == count
    if colors == 3:
        assert len(trie) == 43


def test_every_word_has_its_representative_trace():
    rng = random.Random(44)
    graphs = [g for name in CATALOG_NAMES for g in catalog(name).graphs]
    graphs += [random_graph(rng, rng.randint(2, 7), 3) for _ in range(6)]
    for g in graphs:
        trie = _bracelet_trie(g.colors, DEFAULT_MAX_WORD)
        reps = set()
        word = []
        for depth, c, is_rep in trie:
            del word[depth - 1 :]
            word.append(c + 1)
            if is_rep:
                reps.add(tuple(word))
        for length in range(1, DEFAULT_MAX_WORD + 1):
            for w in product(range(1, g.colors + 1), repeat=length):
                rep = _bracelet_representative(w)
                assert not rep or rep in reps
                expected = g.vertices if not rep else word_trace(g, rep)
                assert word_trace(g, w) == expected


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    vertices=st.integers(1, 7),
    colors=st.integers(2, 4),
    data=st.data(),
)
def test_trace_hash_is_relabelling_invariant(seed, vertices, colors, data):
    rng = random.Random(seed)
    g = random_graph(rng, vertices, colors)
    while not is_connected(g):
        g = random_graph(rng, vertices, colors)
    relabel = data.draw(st.permutations(range(1, vertices + 1)))
    h = permute(g, tuple(relabel))
    tarr, sarr = _pack([g, h])
    hashes = _trace_hash(tarr, sarr, DEFAULT_MAX_WORD)
    assert hashes[0] == hashes[1]


def _bfs_relabelled(g, start=1):
    """g relabelled in BFS order from ``start``: the generator's row form."""
    relabel = [0] * g.vertices
    for pos, v in enumerate(_bfs_order(g, start), start=1):
        relabel[v - 1] = pos
    return permute(g, tuple(relabel))


def _connected_random_graph(rng, vertices, colors):
    g = random_graph(rng, vertices, colors)
    while not is_connected(g):
        g = random_graph(rng, vertices, colors)
    return g


def test_canonical_mask_matches_scalar():
    # the mask expects its input rows to be BFS-consistent from vertex 1,
    # which is what the generator emits; relabel random graphs accordingly
    rng = random.Random(70)
    for vertices, colors in [(5, 2), (4, 3), (6, 3), (7, 3), (5, 4), (7, 4)]:
        graphs = [
            _bfs_relabelled(_connected_random_graph(rng, vertices, colors))
            for _ in range(60)
        ]
        mask = _canonical_mask(*_pack(graphs))
        assert [bool(flag) for flag in mask] == [is_canonical(g) for g in graphs]
        assert 0 < mask.sum() < len(graphs)


def test_canonical_mask_stops_when_every_row_is_dead(monkeypatch):
    # vertex 1 has a colour-1 loop and vertex 2 a colour-1 edge, so start
    # vertex 2 rejects every row and no later start vertex runs
    rng = random.Random(71)
    graphs = []
    while len(graphs) < 30:
        g = _connected_random_graph(rng, 6, 3)
        starts = [v for v, t in enumerate(g.color(1).targets, start=1) if t == v]
        h = _bfs_relabelled(g, rng.choice(starts)) if starts else g
        if h.color(1).targets[0] == 1 and h.color(1).targets[1] != 2:
            graphs.append(h)
    calls = []
    start_codes = enumeration._start_codes

    def counted(t0, signs, start):
        calls.append((start, len(t0)))
        return start_codes(t0, signs, start)

    monkeypatch.setattr(enumeration, "_start_codes", counted)
    mask = _canonical_mask(*_pack(graphs))
    assert not mask.any()
    assert not any(is_canonical(g) for g in graphs)
    assert calls == [(1, len(graphs))]


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), colors=st.integers(1, 4), data=st.data())
def test_canonical_codes_match_canonical_form(seed, colors, data):
    # one colour connects at most two vertices
    vertices = data.draw(st.integers(1, 2 if colors == 1 else 8))
    rng = random.Random(seed)
    graphs = [_connected_random_graph(rng, vertices, colors) for _ in range(3)]
    relabel = data.draw(st.permutations(range(1, vertices + 1)))
    graphs += [permute(g, tuple(relabel)) for g in graphs]
    codes = canonical_codes(*_pack(graphs))
    assert codes.shape == (len(graphs), colors * vertices)
    assert codes.dtype == np.uint8
    for g, code in zip(graphs, codes):
        assert code.tobytes() == canonical_form(g).code[1:]
    assert np.array_equal(codes[:3], codes[3:])


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


def _scalar_quotient(pairs, with_braids):
    """Reference oracle: the quotient coding every graph on its own with
    ``canonical_form``, once per colour permutation and braid."""
    if not pairs:
        return []
    colors = pairs[0][0].colors

    def pair_key(g1, g2):
        c1 = canonical_form(g1).code
        c2 = canonical_form(g2).code
        return (c1, c2) if c1 <= c2 else (c2, c1)

    def permute_colours(g, perm):
        return LoopSignedGraph(g.vertices, tuple(g.adjacency[p - 1] for p in perm))

    index = {pair_key(g1, g2): i for i, (g1, g2) in enumerate(pairs)}
    parent = list(range(len(pairs)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def visit(i, h1, h2):
        j = index.get(pair_key(h1, h2))
        if j is not None:
            parent[find(j)] = find(i)

    for i, (g1, g2) in enumerate(pairs):
        for perm in permutations(range(1, colors + 1)):
            visit(i, permute_colours(g1, perm), permute_colours(g2, perm))
        if with_braids:
            for c in range(1, colors + 1):
                for conj in range(1, colors + 1):
                    if c == conj:
                        continue
                    try:
                        visit(i, braid(g1, c, conj), braid(g2, c, conj))
                    except NotNormalizable:
                        continue
    classes = {}
    for i in range(len(pairs)):
        classes.setdefault(find(i), set()).add(i)
    return {frozenset(c) for c in classes.values()}


def _index_partition(pairs, classes):
    position = {id(pair): i for i, pair in enumerate(pairs)}
    return {frozenset(position[id(pair)] for pair in cls) for cls in classes}


def _shuffle_colours(pairs, rng):
    out = []
    for g1, g2 in pairs:
        perm = list(range(g1.colors))
        rng.shuffle(perm)
        out.append(tuple(
            LoopSignedGraph(g.vertices, tuple(g.adjacency[p] for p in perm))
            for g in (g1, g2)
        ))
    return out


@pytest.mark.parametrize(
    "vertices,regime", [(4, "mixed"), (7, "dirichlet"), (7, "neumann")]
)
def test_quotients_match_scalar_oracle(vertices, regime):
    _, pairs = census_details(vertices, 3, regime)
    assert pairs
    for inputs in (pairs, _shuffle_colours(pairs, random.Random(vertices))):
        colour = colour_classes(inputs)
        quilt = quilt_classes(inputs)
        assert {id(p) for cls in colour for p in cls} == {id(p) for p in inputs}
        assert _index_partition(inputs, colour) == _scalar_quotient(inputs, False)
        assert _index_partition(inputs, quilt) == _scalar_quotient(inputs, True)


def test_quotient_rejects_disconnected_and_mixed_size_pairs():
    loops = LoopSignedGraph.build(2, [((), {1: "D", 2: "N"})] * 3)
    edge = LoopSignedGraph.build(2, [([(1, 2)], {})] * 3)
    path = LoopSignedGraph.build(3, [
        ([(1, 2)], {3: "D"}),
        ([(2, 3)], {1: "N"}),
        ([(1, 2)], {3: "N"}),
    ])
    for pairs in ([(edge, edge), (loops, edge)], [(edge, path)]):
        for quotient in (colour_classes, quilt_classes):
            with pytest.raises(ValueError):
                quotient(pairs)


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


def _no_pool(*args, **kwargs):
    raise AssertionError("a process pool was started")


def test_census_rejects_threads_below_one(monkeypatch):
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
    for threads in (0, -3):
        with pytest.raises(ValueError, match="threads"):
            census_details(2, 3, "mixed", threads=threads)


def test_sizes_are_checked_before_generation(monkeypatch):
    import concurrent.futures

    def no_generation(*args, **kwargs):
        raise AssertionError("leaves were generated")

    monkeypatch.setattr(enumeration, "_generate_leaves", no_generation)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 2)
    for vertices, colors in [(0, 3), (-1, 3), (128, 3), (2, 0), (2, -1)]:
        with pytest.raises(ValueError, match="vertices" if colors > 0 else "colors"):
            enumerate_packed(vertices, colors)
        with pytest.raises(ValueError):
            enumerate_classes(vertices, colors)
        for threads in (1, 2):
            with pytest.raises(ValueError):
                census_details(vertices, colors, threads=threads)


def test_census_caps_threads_at_cpu_count(monkeypatch):
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 1)
    assert census(3, 3, "mixed", threads=64) == census(3, 3, "mixed")


def test_progress_reported_with_threads(monkeypatch):
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 2)
    single, sharded = [], []
    census_details(4, 3, "mixed", progress=lambda *t: single.append(t))
    census_details(4, 3, "mixed", threads=2, progress=lambda *t: sharded.append(t))
    assert len(sharded) == 8  # one call per shard, four shards per thread
    assert sharded == sorted(sharded)
    assert sharded[-1] == single[-1]


def test_found_pairs_share_trace_profiles():
    _, pairs = census_details(4, 3, "mixed")
    for g1, g2 in pairs[:15]:
        assert trace_profile(g1, 5) == trace_profile(g2, 5)
