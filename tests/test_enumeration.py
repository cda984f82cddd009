import hashlib
import json
import random
from array import array
from itertools import permutations, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from looptrans import enumeration
from looptrans.algebra import SignedPerm
from looptrans.catalog import CATALOG_NAMES, catalog
from looptrans.graph import (
    DIRICHLET_BYTE,
    NEUMANN_BYTE,
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
    _braid_rows,
    _canonical_mask,
    _generate_leaves,
    _loop_signs,
    _join_classes,
    _pack_graphs,
    _pair_keys,
    _trace_hash,
    canonical_codes,
    census,
    class_counts,
    census_details,
    colour_classes,
    enumerate_classes,
    enumerate_packed,
    find_pairs_packed,
    quilt_classes,
)
from looptrans.invariants import DEFAULT_MAX_WORD, _bracelet_trie, trace_profile, word_trace
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
    merged = _join_classes(4, 3, parts)
    assert len(merged) == len(whole)
    assert merged.leaves == whole.leaves
    whole_codes = {canonical_form(whole.graph(i)).code for i in range(len(whole))}
    merged_codes = {canonical_form(merged.graph(i)).code for i in range(len(merged))}
    assert whole_codes == merged_codes


def test_join_classes_sums_leaves_and_takes_no_records():
    none = _join_classes(4, 3, [])
    assert len(none) == none.leaves == 0
    assert none.targets.shape == none.signs.shape == (0, 3, 4)
    assert none.trace_hash.dtype == np.uint64
    whole = enumerate_packed(4, 3, "mixed")
    assert whole.leaves == sum(len(t) for t, _ in _generate_leaves(4, 3, (1, -1)))
    joined = _join_classes(4, 3, [whole, none, whole])
    assert len(joined) == 2 * len(whole) and joined.leaves == 2 * whole.leaves
    assert np.array_equal(joined.trace_hash[len(whole):], whole.trace_hash)


@pytest.mark.parametrize("shard_count,shard_index", [(3, 5), (3, -1), (2, 2), (1, 1), (0, 0)])
def test_enumerate_packed_rejects_bad_shards(shard_count, shard_index, monkeypatch):
    def generate(*args):
        raise AssertionError("leaves generated for an invalid shard")

    monkeypatch.setattr(enumeration, "_generate_leaves", generate)
    with pytest.raises(ValueError, match="shard_index"):
        enumerate_packed(4, 3, "mixed", shard_count=shard_count, shard_index=shard_index)


def _dfs_leaves(vertices, colors, signs, emit):
    """Reference oracle: the recursive generator the frontier replaced, less
    its sharding.  The leaf is one flat int8 row, its 1-based targets then
    its signs, colour by colour, set and cleared in place; ``emit(row)``
    sees each leaf."""
    V, C = vertices, colors
    cv = C * V
    row = array("b", bytes(2 * cv))
    f1 = [0]

    def rec(v, c, k):
        if c > C:
            if v == V:
                emit(row)
                return
            if k <= v:
                return
            rec(v + 1, 1, k)
            return
        # row[at + u] is the colour-c target of vertex u, row[cv + at + u] its sign
        at = (c - 1) * V - 1
        if row[at + v]:
            rec(v, c + 1, k)
            return
        for s in signs:
            if c == 1:
                cls = 1 if s > 0 else 2
                if v == 1:
                    f1[0] = cls
                elif cls < f1[0]:
                    continue
            row[at + v] = v
            row[cv + at + v] = s
            rec(v, c + 1, k)
            row[at + v] = row[cv + at + v] = 0
        if c == 1 and v > 1 and f1[0] > 0:
            return
        for w in range(v + 1, min(k + 1, V) + 1):
            if row[at + w]:
                continue
            if c == 1 and v == 1:
                f1[0] = 0
            row[at + v], row[at + w] = w, v
            row[cv + at + v] = row[cv + at + w] = 1
            rec(v, c + 1, max(k, w))
            row[at + v] = row[at + w] = 0
            row[cv + at + v] = row[cv + at + w] = 0

    rec(1, 1, 1)


def _dfs_digest(vertices, colors, signs):
    """Leaf count and SHA-256 of the oracle's leaves, each row its targets
    then its signs, colour by colour, as int8."""
    digest = hashlib.sha256()
    buf = array("b")
    count = 0

    def emit(row):
        nonlocal buf, count
        buf.extend(row)
        count += 1
        if count % 100_000 == 0:
            digest.update(buf.tobytes())
            buf = array("b")

    _dfs_leaves(vertices, colors, signs, emit)
    digest.update(buf.tobytes())
    return count, digest.hexdigest()


def _leaf_rows(blocks):
    """The generator's blocks as one (N, 2*C*V) int8 array of packed rows."""
    rows = [
        np.concatenate([t.reshape(len(t), -1), s.reshape(len(s), -1)], axis=1)
        for t, s in blocks
    ]
    return np.concatenate(rows) if rows else np.zeros((0, 0), np.int8)


def _frontier_digest(vertices, colors, signs):
    digest = hashlib.sha256()
    count = 0
    for tarr, sarr in _generate_leaves(vertices, colors, signs):
        assert tarr.dtype == sarr.dtype == np.int8
        assert tarr.shape == sarr.shape == (len(tarr), colors, vertices)
        digest.update(_leaf_rows([(tarr, sarr)]).tobytes())
        count += len(tarr)
    return count, digest.hexdigest()


@pytest.mark.parametrize("regime", enumeration.REGIMES)
@pytest.mark.parametrize("colors", [1, 2, 3, 4])
def test_frontier_leaves_match_dfs(colors, regime):
    signs = _loop_signs(regime)
    for vertices in range(1, 6 if colors == 4 else 7):
        expected = _dfs_digest(vertices, colors, signs)
        assert _frontier_digest(vertices, colors, signs) == expected, vertices


def test_frontier_blocks_keep_dfs_order(monkeypatch):
    # tiny blocks split the frontier at every slot that grows it
    monkeypatch.setattr(enumeration, "_CHUNK_LEAVES", 7)
    for vertices, colors, regime in [(4, 3, "mixed"), (5, 2, "mixed"), (5, 3, "dirichlet")]:
        signs = _loop_signs(regime)
        blocks = list(_generate_leaves(vertices, colors, signs))
        assert max(len(t) for t, _ in blocks) <= 7 + 2 + vertices
        count, digest = _dfs_digest(vertices, colors, signs)
        rows = _leaf_rows(blocks)
        assert (len(rows), hashlib.sha256(rows.tobytes()).hexdigest()) == (count, digest)


def test_frontier_shards_partition_the_leaves(monkeypatch):
    # V=1 and V=2 complete before the shard slot and go to shard 0 alone
    for vertices, colors, regime in [
        (1, 3, "mixed"), (2, 3, "mixed"), (2, 4, "mixed"), (3, 3, "mixed"),
        (4, 3, "mixed"), (5, 3, "neumann"), (4, 2, "mixed"),
    ]:
        signs = _loop_signs(regime)
        whole = _leaf_rows(_generate_leaves(vertices, colors, signs))
        for shard_count in (2, 3, 5, 8):
            shards = [
                _leaf_rows(_generate_leaves(vertices, colors, signs, shard_count, i))
                for i in range(shard_count)
            ]
            if vertices <= 2:
                assert len(shards[0]) == len(whole)
            seen = [bytes(row) for part in shards for row in part]
            assert len(seen) == len(set(seen)) == len(whole)
            assert set(seen) == {bytes(row) for row in whole}
            # rows are dealt by their index in the whole frontier, so tiny
            # blocks give the same shards
            with monkeypatch.context() as patch:
                patch.setattr(enumeration, "_CHUNK_LEAVES", 5)
                for i, part in enumerate(shards):
                    blocks = _generate_leaves(vertices, colors, signs, shard_count, i)
                    assert np.array_equal(_leaf_rows(blocks).reshape(part.shape), part)


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
    """Reference oracle: the rolling hash over every word of length 1 .. max_len.

    Each word's signed map is its prefix's composed with the next colour,
    one 1-D gather on the prefix's flat (N*V,) rows per word."""
    n, c_count, v_count = tarr.shape
    idx = np.arange(v_count, dtype=np.int8)
    h = np.zeros(n, np.uint64)
    mul = np.uint64(1099511628211)
    # at[c][r, v]: flat index of row r's entry at the colour-c partner of v
    rows = np.arange(0, n * v_count, v_count)[:, None]
    at = [rows + (tarr[:, c, :] - 1) for c in range(c_count)]
    signs = [np.ascontiguousarray(sarr[:, c, :]) for c in range(c_count)]

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
            rec(tw.reshape(-1)[at[c]], signs[c] * sw.reshape(-1)[at[c]], depth + 1)

    rec(np.tile(idx, (n, 1)), np.ones((n, v_count), np.int8), 0)
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

    def counted(tarr, sarr, rows, start, ref=None):
        calls.append((start, len(rows)))
        return start_codes(tarr, sarr, rows, start, ref)

    monkeypatch.setattr(enumeration, "_start_codes", counted)
    mask = _canonical_mask(*_pack(graphs))
    assert not mask.any()
    assert not any(is_canonical(g) for g in graphs)
    assert calls == [(1, len(graphs))]


def _reference_start_codes(t0, signs, start):
    """Reference oracle: the int64 per-start BFS code the flat kernel
    replaced, on 0-based targets, with 2-D gathers and no early exit."""
    n, c_count, v_count = t0.shape
    rows = np.arange(n)
    rank = np.full((n, v_count), -1, np.int16)
    order = np.zeros((n, v_count), np.int64)
    order[:, 0] = start
    rank[:, start] = 0
    cnt = np.ones(n, np.int64)
    for slot in range(v_count - 1):
        u = order[:, slot]
        for c in range(c_count):
            t = t0[rows, c, u]
            new = rank[rows, t] < 0
            nr = rows[new]
            nt = t[new]
            rank[nr, nt] = cnt[new]
            order[nr, cnt[new]] = nt
            cnt[new] += 1
    code = np.empty((n, c_count * v_count), np.uint8)
    for c in range(c_count):
        tt = np.take_along_axis(t0[:, c, :], order, axis=1)
        ss = np.take_along_axis(signs[:, c, :], order, axis=1)
        rk = np.take_along_axis(rank, tt, axis=1) + 1
        code[:, c * v_count : (c + 1) * v_count] = np.where(
            tt == order, np.where(ss < 0, DIRICHLET_BYTE, NEUMANN_BYTE), rk
        )
    return code


def _reference_lex_less(a, b):
    neq = a != b
    first = neq.argmax(axis=1)[:, None]
    return np.take_along_axis(neq & (a < b), first, axis=1)[:, 0]


def _reference_canonical_mask(tarr, sarr):
    """Reference oracle: each start vertex's whole code against the row's own."""
    n, c_count, v_count = tarr.shape
    t0 = tarr.astype(np.int64) - 1
    ref = np.where(
        t0 == np.arange(v_count),
        np.where(sarr < 0, DIRICHLET_BYTE, NEUMANN_BYTE),
        tarr,
    ).astype(np.uint8).reshape(n, c_count * v_count)
    live = np.arange(n)
    for start in range(1, v_count):
        keep = ~_reference_lex_less(_reference_start_codes(t0, sarr, start), ref)
        live, t0, sarr, ref = live[keep], t0[keep], sarr[keep], ref[keep]
    mask = np.zeros(n, dtype=bool)
    mask[live] = True
    return mask


def _reference_trace_hash(tarr, sarr, max_len):
    """Reference oracle: the bracelet-trie hash with each prefix composed
    after the next colour by ``take_along_axis``."""
    n, c_count, v_count = tarr.shape
    idx = np.arange(v_count, dtype=np.int8)
    t0 = tarr - 1
    h = np.zeros(n, np.uint64)
    mul = np.uint64(1099511628211)
    path = [(np.broadcast_to(idx, (n, v_count)), np.ones((n, v_count), np.int8))]
    for depth, c, is_rep in _bracelet_trie(c_count, max_len):
        tw, sw = path[depth - 1]
        tc = t0[:, c, :]
        tn = np.take_along_axis(tw, tc, axis=1)
        sn = sarr[:, c, :] * np.take_along_axis(sw, tc, axis=1)
        del path[depth:]
        path.append((tn, sn))
        if is_rep:
            tr = (sn * (tn == idx)).sum(axis=1, dtype=np.int64)
            h = h * mul + (tr + (v_count + 1)).astype(np.uint64)
    return h


@pytest.mark.parametrize(
    "colors,max_vertices,regime",
    [(3, 6, "mixed"), (3, 7, "dirichlet"), (3, 7, "neumann")]
    + [(2, 6, regime) for regime in ("mixed", "dirichlet", "neumann")]
    + [(4, 4, regime) for regime in ("mixed", "dirichlet", "neumann")],
)
def test_flat_kernels_match_reference_on_leaf_blocks(colors, max_vertices, regime):
    for vertices in range(1, max_vertices + 1):
        for tarr, sarr in _generate_leaves(vertices, colors, _loop_signs(regime)):
            mask = _canonical_mask(tarr, sarr)
            assert np.array_equal(mask, _reference_canonical_mask(tarr, sarr)), vertices
            hashes = _trace_hash(tarr, sarr, DEFAULT_MAX_WORD)
            expected = _reference_trace_hash(tarr, sarr, DEFAULT_MAX_WORD)
            assert np.array_equal(hashes, expected), vertices
            # a canonical row's own serialization is its canonical code
            own = _reference_start_codes(tarr[mask].astype(np.int64) - 1, sarr[mask], 0)
            assert np.array_equal(canonical_codes(tarr[mask], sarr[mask]), own)


def _first_bytes(g):
    """Byte 0 of the code from each start vertex: 2 for a colour-1 edge, else
    the colour-1 loop byte."""
    p = g.color(1)
    return [
        2 if t != v else DIRICHLET_BYTE if s < 0 else NEUMANN_BYTE
        for v, (t, s) in enumerate(zip(p.targets, p.signs), start=1)
    ]


def test_canonical_mask_rejects_on_byte_zero():
    # BFS-relabelled rows whose vertex 1 loses byte 0 to another vertex (a
    # loop against an edge, or a Dirichlet against a Neumann loop), which the
    # generator never emits, mixed with rows relabelled from a random vertex
    rng = random.Random(72)
    for vertices, colors in [(3, 2), (5, 2), (4, 3), (6, 3), (7, 3), (5, 4)]:
        beaten, graphs = 0, []
        while beaten < 40:
            g = _connected_random_graph(rng, vertices, colors)
            first = _first_bytes(g)
            if min(first) < max(first) and rng.random() < 0.7:
                start = rng.choice([v for v, b in enumerate(first, 1) if b > min(first)])
                beaten += 1
            else:
                start = rng.randint(1, vertices)
            graphs.append(_bfs_relabelled(g, start))
        tarr, sarr = _pack(graphs)
        mask = _canonical_mask(tarr, sarr)
        assert np.array_equal(mask, _reference_canonical_mask(tarr, sarr))
        assert [bool(flag) for flag in mask] == [is_canonical(g) for g in graphs]
        lost = [_first_bytes(g)[0] > min(_first_bytes(g)) for g in graphs]
        assert sum(lost) >= beaten and not mask[lost].any()


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


@pytest.mark.parametrize("regime", enumeration.REGIMES)
@pytest.mark.parametrize("colors,max_vertices", [(2, 6), (3, 5), (4, 4)])
def test_class_counts_match_enumeration(colors, max_vertices, regime):
    for vertices in range(1, max_vertices + 1):
        packed = enumerate_packed(vertices, colors, regime)
        expected = (len(packed), int(packed.treelike().sum()))
        assert class_counts(vertices, colors, regime) == expected, vertices


@pytest.mark.parametrize(
    "vertices,colors,regime,classes,treelike",
    [
        # README and acceptance criterion 2
        (2, 3, "mixed", 40, 30),
        (3, 3, "mixed", 128, 96),
        (4, 3, "mixed", 737, 472),
        (5, 3, "mixed", 3_848, 2_304),
        (6, 3, "mixed", 24_360, 12_792),
        (7, 3, "mixed", 156_480, 73_216),
        # acceptance criterion 3
        (7, 3, "dirichlet", 1_407, 143),
        (7, 3, "neumann", 1_407, 143),
        (8, 3, "dirichlet", 6_877, 450),
        (8, 3, "neumann", 6_877, 450),
        # the slow suite
        (8, 3, "mixed", 1_076_984, 439_968),
        (9, 3, "mixed", 7_625_040, 2_715_648),
        (11, 3, "dirichlet", 681_467, 13_566),
        (12, 3, "dirichlet", 3_535_172, 44_772),
    ],
)
def test_class_counts_match_expected_census(vertices, colors, regime, classes, treelike):
    assert class_counts(vertices, colors, regime) == (classes, treelike)


def test_class_counts_four_colours_and_bad_input():
    assert class_counts(5, 4, "mixed")[0] == 1_239_488
    assert class_counts(1, 1, "mixed") == (2, 2)
    assert class_counts(3, 1, "neumann") == (0, 0)
    for args in [(0, 3, "mixed"), (2, 0, "mixed"), (2, 3, "plaid")]:
        with pytest.raises(ValueError):
            class_counts(*args)


def test_find_pairs_matches_all_pairs_decide():
    packed = enumerate_packed(2, 3, "mixed")
    graphs = [packed.graph(i) for i in range(len(packed))]
    assert len(graphs) == 40
    found = {
        (canonical_form(graphs[i]).code, canonical_form(graphs[j]).code)
        for i, j in find_pairs_packed(packed)
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


@pytest.mark.parametrize("vertices, modulus, pair_count", [(2, 1, 9), (4, 32, 118)])
def test_find_pairs_packed_with_collapsed_hash(vertices, modulus, pair_count):
    # a coarser hash only adds candidates, so buckets far larger than any
    # real one must give the same pairs
    packed = enumerate_packed(vertices, 3, "mixed")
    coarse = PackedClasses(
        packed.vertices,
        packed.colors,
        packed.targets,
        packed.signs,
        packed.trace_hash % np.uint64(modulus),
    )
    assert np.unique(coarse.trace_hash, return_counts=True)[1].max() > 16
    pairs = find_pairs_packed(packed)
    assert len(pairs) == pair_count
    assert find_pairs_packed(coarse) == pairs


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
    packed = enumerate_packed(2, 3, "mixed")
    pairs = [(packed.graph(i), packed.graph(j)) for i, j in find_pairs_packed(packed)]
    classes = colour_classes(pairs)
    assert len(classes) == 3
    assert sorted(len(c) for c in classes) == [3, 3, 3]
    assert len(quilt_classes(classes)) <= 3


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

    parent = list(range(len(pairs)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    # every colour permutation of every pair claims its key; a braided pair
    # then finds any pair it equals up to colour permutation
    index = {}
    for i, (g1, g2) in enumerate(pairs):
        for perm in permutations(range(1, colors + 1)):
            key = pair_key(permute_colours(g1, perm), permute_colours(g2, perm))
            j = index.setdefault(key, i)
            parent[find(i)] = find(j)
    if with_braids:
        for i, (g1, g2) in enumerate(pairs):
            for c in range(1, colors + 1):
                for conj in range(1, colors + 1):
                    if c == conj:
                        continue
                    try:
                        key = pair_key(braid(g1, c, conj), braid(g2, c, conj))
                    except NotNormalizable:
                        continue
                    j = index.get(key)
                    if j is not None:
                        parent[find(j)] = find(i)
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
    "vertices,colours,regime,pair_count,quilt_count",
    [
        (4, 3, "mixed", 118, 17),
        (7, 3, "mixed", 112, 8),
        (7, 3, "dirichlet", 7, 1),
        (7, 3, "neumann", 7, 1),
        (8, 3, "dirichlet", 64, 9),
        (8, 3, "neumann", 28, 3),
        (4, 2, "mixed", 1, 1),
        (6, 2, "mixed", 1, 1),
        (2, 4, "mixed", 55, 7),
    ],
    # C=3 rows are named by vertices and regime alone
    ids=["4-mixed", "7-mixed", "7-dirichlet", "7-neumann", "8-dirichlet",
         "8-neumann", "4-mixed-c2", "6-mixed-c2", "2-mixed-c4"],
)
def test_quotients_match_scalar_oracle(vertices, colours, regime, pair_count, quilt_count):
    _, pairs = census_details(vertices, colours, regime)
    assert len(pairs) == pair_count
    counts = []
    for inputs in (pairs, _shuffle_colours(pairs, random.Random(vertices))):
        colour = colour_classes(inputs)
        quilt = quilt_classes(colour)
        assert {id(p) for cls in colour for p in cls} == {id(p) for p in inputs}
        assert _index_partition(inputs, colour) == _scalar_quotient(inputs, False)
        assert _index_partition(inputs, quilt) == _scalar_quotient(inputs, True)
        counts.append((len(colour), len(quilt)))
    assert counts[0] == counts[1]
    assert counts[0][1] == quilt_count


def _scalar_braids(pairs):
    """Reference oracle: the scalar braid loop the packed braid replaced.
    Returns the source pair of each braided pair and its two graphs, pair by
    pair and within a pair by (c, conj) ascending."""
    sources, graphs = [], []
    for i, (g1, g2) in enumerate(pairs):
        colors = g1.colors
        for c in range(1, colors + 1):
            for conj in range(1, colors + 1):
                if c == conj:
                    continue
                try:
                    braided = (braid(g1, c, conj), braid(g2, c, conj))
                except NotNormalizable:
                    continue
                sources.append(i)
                graphs.extend(braided)
    return sources, graphs


def _check_braid_rows(pairs):
    """Assert that the packed braid equals the scalar one row by row and drops
    the same pairs; returns the number of (pair, c, conj) it dropped."""
    tarr, sarr = _pack_graphs([g for pair in pairs for g in pair])
    source, bt, bs = _braid_rows(tarr, sarr)
    sources, graphs = _scalar_braids(pairs)
    assert source.tolist() == sources
    assert bt.shape == bs.shape == (2 * len(sources), *tarr.shape[1:])
    assert bt.tolist() == [[list(p.targets) for p in g.adjacency] for g in graphs]
    assert bs.tolist() == [[list(p.signs) for p in g.adjacency] for g in graphs]
    colors = tarr.shape[1]
    return len(pairs) * colors * (colors - 1) - len(sources)


@pytest.mark.parametrize(
    "vertices,regime,dropped", [(4, "mixed", 66), (7, "dirichlet", 0), (7, "neumann", 0)]
)
def test_braid_rows_match_scalar_braid_on_census_pairs(vertices, regime, dropped):
    _, pairs = census_details(vertices, 3, regime)
    assert _check_braid_rows(pairs) == dropped


def _random_connected_graph(rng, vertices, colors):
    while True:
        g = random_graph(rng, vertices, colors)
        if is_connected(g):
            return g


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    vertices=st.integers(1, 7),
    colors=st.integers(2, 4),
    pair_count=st.integers(1, 3),
)
def test_braid_rows_match_scalar_braid_on_random_graphs(seed, vertices, colors, pair_count):
    rng = random.Random(seed)
    pairs = [
        tuple(_random_connected_graph(rng, vertices, colors) for _ in range(2))
        for _ in range(pair_count)
    ]
    _check_braid_rows(pairs)


def test_braid_rows_drop_exactly_the_unnormalizable_pairs():
    # random graphs with odd cycles: some braids have no sign normalizer
    rng = random.Random(5)
    for vertices in range(3, 8):
        pairs = [
            tuple(_random_connected_graph(rng, vertices, 3) for _ in range(2))
            for _ in range(10)
        ]
        assert 0 < _check_braid_rows(pairs) < len(pairs) * 6


def test_braid_rows_without_braids():
    # one colour has no braid to take, and no rows give no braids
    edge = LoopSignedGraph.build(2, [([(1, 2)], {})])
    assert _check_braid_rows([(edge, edge), (edge, edge)]) == 0
    for colors in (1, 3):
        tarr = np.zeros((0, colors, 4), np.int16)
        source, bt, bs = _braid_rows(tarr, tarr.astype(np.int8))
        assert source.shape == (0,) and bt.shape == bs.shape == (0, colors, 4)
    pairs = [(edge, edge)]
    assert colour_classes(pairs) == quilt_classes([pairs]) == [pairs]


@pytest.mark.parametrize("vertices,colour_count,quilt_count", [(4, 28, 17), (6, 176, 78)])
def test_quotients_do_not_depend_on_colour_numbering(vertices, colour_count, quilt_count):
    # a braid followed by a colour permutation must link two pairs however
    # each pair's colours are numbered
    _, pairs = census_details(vertices, 3, "mixed")
    for seed in (None, 0, 1, 2):
        inputs = pairs if seed is None else _shuffle_colours(pairs, random.Random(seed))
        classes = colour_classes(inputs)
        assert len(classes) == colour_count
        assert len(quilt_classes(classes)) == quilt_count


def test_quotient_rejects_disconnected_and_mixed_size_pairs():
    loops = LoopSignedGraph.build(2, [((), {1: "D", 2: "N"})] * 3)
    edge = LoopSignedGraph.build(2, [([(1, 2)], {})] * 3)
    path = LoopSignedGraph.build(3, [
        ([(1, 2)], {3: "D"}),
        ([(2, 3)], {1: "N"}),
        ([(1, 2)], {3: "N"}),
    ])
    # quilt_classes gets one-pair classes, so it checks the pairs itself
    for pairs in ([(edge, edge), (loops, edge)], [(edge, path)]):
        with pytest.raises(ValueError):
            colour_classes(pairs)
        with pytest.raises(ValueError):
            quilt_classes([[pair] for pair in pairs])


def test_quilt_classes_reject_an_invalid_braided_row():
    # colour 1 is a 3-cycle, not an involution, so its braid by colour 2 is
    # not a valid graph, as graph.validate would report it
    cycle = SignedPerm((2, 3, 1), (1, 1, 1))
    g = LoopSignedGraph(3, (cycle, SignedPerm.identity(3)))
    with pytest.raises(RuntimeError):
        quilt_classes(colour_classes([(g, g)]))


def test_quilt_classes_braid_one_pair_per_colour_class(monkeypatch):
    rows = []

    def counted(tarr, sarr):
        rows.append(len(tarr))
        return _braid_rows(tarr, sarr)

    monkeypatch.setattr(enumeration, "_braid_rows", counted)
    for vertices, colour_count in ((4, 28), (6, 176)):
        _, pairs = census_details(vertices, 3, "mixed")
        classes = colour_classes(pairs)
        rows.clear()
        quilt_classes(classes)
        assert rows == [2 * colour_count]


def test_quilt_classes_reject_an_invalid_pair_after_valid_ones():
    # valid 3-vertex paths first; the invalid pair still heads its own colour
    # class, so its braid is taken and rejected
    path = LoopSignedGraph.build(3, [([(1, 2)], {3: "D"}), ([(2, 3)], {1: "N"})])
    other = LoopSignedGraph.build(3, [([(2, 3)], {1: "D"}), ([(1, 2)], {3: "N"})])
    cycle = SignedPerm((2, 3, 1), (1, 1, 1))
    bad = LoopSignedGraph(3, (cycle, SignedPerm.identity(3)))
    with pytest.raises(RuntimeError):
        quilt_classes(colour_classes([(path, other), (other, path), (bad, bad)]))


def test_quotients_refuse_a_batch_past_the_row_cap(monkeypatch):
    # 118 pairs in 3 colours code 3! x 2 x 118 = 1,416 rows; their 28
    # colour classes code 3! x 2 x 28 = 336 rows for the quilts
    _, pairs = census_details(4, 3, "mixed")
    classes = colour_classes(pairs)
    quilt_count = len(quilt_classes(classes))
    monkeypatch.setattr(enumeration, "_MAX_QUOTIENT_ROWS", 1416)
    assert colour_classes(pairs) == classes
    monkeypatch.setattr(enumeration, "_MAX_QUOTIENT_ROWS", 336)
    assert len(quilt_classes(classes)) == quilt_count

    def pack(graphs):
        raise AssertionError("graphs packed for a batch past the cap")

    monkeypatch.setattr(enumeration, "_pack_graphs", pack)
    for cap, quotient, inputs in ((1415, colour_classes, pairs), (335, quilt_classes, classes)):
        monkeypatch.setattr(enumeration, "_MAX_QUOTIENT_ROWS", cap)
        with pytest.raises(ValueError, match=f"{cap + 1} rows"):
            quotient(inputs)


def test_quilt_classes_reject_a_split_colour_class():
    # one of the 28 V=4 colour classes split in two is one class given twice
    _, pairs = census_details(4, 3, "mixed")
    classes = colour_classes(pairs)
    assert len(quilt_classes(classes)) == 17
    at = next(i for i, cls in enumerate(classes) if len(cls) > 1)
    split = classes[:at] + [classes[at][:1], classes[at][1:]] + classes[at + 1 :]
    with pytest.raises(ValueError, match="one colour class"):
        quilt_classes(split)


def test_census_codes_each_pairs_colour_keys_once(monkeypatch):
    # 957 pairs at V=6 mixed, 3! x 2 rows each; the quilts code only the
    # first pair of each colour class and its braids
    calls = []

    def counted(tarr, sarr):
        calls.append(len(tarr))
        return _pair_keys(tarr, sarr)

    monkeypatch.setattr(enumeration, "_pair_keys", counted)
    row, _ = census_details(6, 3, "mixed", quilts=True)
    assert (row.class_pair_count, row.quilt_count) == (176, 78)
    assert calls.count(6 * 2 * 957) == 1
    assert sum(calls) < 2 * 6 * 2 * 957


_TRACE_TWINS = Path(__file__).parent / "data" / "v8_mixed_trace_twins.json"


def _signed_trace(targets, signs, word):
    """tr(A^w1 ... A^wk) by a plain numpy product of signed permutation
    matrices, A^c[i, t - 1] = s for target t and sign s of vertex i + 1."""
    n = len(targets[0])
    prod = np.eye(n, dtype=np.int64)
    for c in word:
        m = np.zeros((n, n), np.int64)
        m[np.arange(n), np.array(targets[c - 1]) - 1] = signs[c - 1]
        prod = prod @ m
    return int(np.trace(prod))


def test_v8_mixed_trace_twins_differ_on_an_eleven_letter_word():
    # the six V=8 mixed candidates that agree on every word up to length 10:
    # one 11-letter word separates each, so none is a census pair
    data = json.loads(_TRACE_TWINS.read_text())
    assert len(data["pairs"]) == 6
    for pair in data["pairs"]:
        word = pair["word"]
        assert len(word) == 11
        traces = [
            _signed_trace(t, s, word) for t, s in zip(pair["targets"], pair["signs"])
        ]
        assert traces[0] != traces[1]
        tarr = np.array(pair["targets"], np.int8)
        sarr = np.array(pair["signs"], np.int8)
        h = _trace_hash(tarr, sarr, DEFAULT_MAX_WORD)
        assert h[0] == h[1]
        g1, g2 = (
            LoopSignedGraph(8, tuple(map(SignedPerm, map(tuple, t), map(tuple, s))))
            for t, s in zip(pair["targets"], pair["signs"])
        )
        assert transplantable(g1, g2) is False


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
