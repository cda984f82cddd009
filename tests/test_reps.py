import itertools
import random

import pytest

from looptrans.algebra import (
    DEFAULT_CLOSURE_CAP,
    ClosureCapExceeded,
    SignedPerm,
    compose,
    compose_codes,
    inverse,
    inverse_code,
    word_product,
)
from looptrans.enumeration import candidate_pairs_packed, census_details, enumerate_packed
from looptrans.graph import (
    LoopSignedGraph,
    components,
    disjoint_union,
    is_isomorphic,
    subgraph,
)
from looptrans.reps import (
    NoBipartiteSystem,
    SubCharPair,
    associated_pairs,
    cayley_graph,
    characters_equal,
    closure,
    gassmann_check,
    induced_character,
    pair_from_words,
    schreier_graph,
)
from looptrans.transplant import transplantable

from conftest import pair_closure, random_graph


@pytest.fixture(scope="module")
def d4(square_triangle):
    from looptrans.catalog import catalog

    data = catalog("d4-group").group_data
    group = closure(list(data.generators))
    h = pair_from_words(group, data.subgroup_words, data.character)
    h_hat = pair_from_words(group, data.hat_subgroup_words, data.hat_character)
    return data, group, h, h_hat


@pytest.fixture(scope="module")
def census_pairs():
    """The V=4 mixed and V=7 Neumann census pairs (118 and 7)."""
    return census_details(4, 3, "mixed")[1] + census_details(7, 3, "neumann")[1]


def _union_pairs(g1, g2, cap=DEFAULT_CLOSURE_CAP):
    union = disjoint_union([g1, g2])
    return (union, *associated_pairs(union, cap))


def _brute_induced_character(group, pair):
    """Reference oracle: the Frobenius sum over every element of the group.

    This is the earlier implementation of ``induced_character``, kept as an
    independent check of the coset-table formula.
    """
    pair.check(group)
    h = pair.subgroup
    out = {}
    for cls in group.conjugacy_classes():
        p = cls[0]
        total = 0
        for i in range(group.order):
            conj = group.mul(group.mul(i, p), group.inv(i))
            if conj in h:
                total += pair.character[conj]
        if total % len(h):
            raise RuntimeError("induced character value is not an integer")
        out[p] = total // len(h)
    return out


def _brute_check(group, pair):
    """Reference oracle: every product of two subgroup elements."""
    h, char = pair.subgroup, pair.character
    if 0 not in h or set(char) != h or any(v not in (1, -1) for v in char.values()):
        return False
    return all(
        group.mul(a, b) in h and char[group.mul(a, b)] == char[a] * char[b]
        for a in h
        for b in h
    )


def test_closure_orders(d4, gww):
    data, group, _, _ = d4
    assert group.order == 8
    single = closure([SignedPerm((2, 1), (1, 1))])
    assert single.order == 2
    gww_group = closure([gww.graphs[0].color(c) for c in (1, 2, 3)])
    assert gww_group.order == 336  # regression value from the closure oracle


def test_closure_words_reproduce_elements(d4):
    _, group, _, _ = d4
    for i, word in enumerate(group.words):
        assert group.index_of(word_product(group.generators, word)) == i


def test_conjugacy_classes_against_brute_force(d4):
    _, group, _, _ = d4
    classes = {frozenset(c) for c in group.conjugacy_classes()}
    # independent oracle: conjugate by every group element
    brute = set()
    for i in range(group.order):
        orbit = set()
        for j in range(group.order):
            k = group.index_of(
                compose(
                    compose(group.elements[j], group.elements[i]),
                    inverse(group.elements[j]),
                )
            )
            orbit.add(k)
        brute.add(frozenset(orbit))
    assert classes == brute


def _brute_classes(group):
    """Reference oracle: the class of x is g x g^-1 over every element g."""
    codes = [e.encode() for e in group.elements]
    index = {c: i for i, c in enumerate(codes)}
    conj = [(c, inverse_code(c)) for c in codes]
    class_of = {}
    for i, x in enumerate(codes):
        if i not in class_of:
            cls = frozenset(index[compose_codes(compose_codes(g, x), gi)] for g, gi in conj)
            class_of.update(dict.fromkeys(cls, cls))
    return set(class_of.values())


def test_conjugacy_classes_of_catalog_and_union_groups():
    from looptrans.catalog import CATALOG_NAMES, catalog

    groups = [closure(list(catalog("d4-group").group_data.generators))]
    groups += [closure(list(catalog(name).graphs[0].adjacency)) for name in CATALOG_NAMES]
    # the C=3 V=4 mixed census pairs, each pair's union generating one group
    groups += [
        closure(list(disjoint_union(pair).adjacency))
        for pair in census_details(4, 3, "mixed")[1]
    ]
    assert len(groups) == 1 + len(CATALOG_NAMES) + 118
    for group in groups:
        classes = group.conjugacy_classes()
        # every element once, each class increasing, classes by least element
        assert sorted(x for cls in classes for x in cls) == list(range(group.order))
        assert all(list(cls) == sorted(cls) for cls in classes)
        assert [cls[0] for cls in classes] == sorted(cls[0] for cls in classes)
        assert {frozenset(cls) for cls in classes} == _brute_classes(group)


def test_cayley_graph_d4_is_eight_cycle(d4):
    data, group, _, _ = d4
    graph = cayley_graph(group, list(data.generators))
    assert graph.vertices == 8
    assert len(components(graph)) == 1
    for c in (1, 2):
        assert len(graph.edges(c)) == 4  # perfect matching
        assert not graph.loops(c)


def test_cayley_graph_order_two():
    group = closure([SignedPerm((2, 1), (1, 1))])
    graph = cayley_graph(group, list(group.generators))
    assert graph.vertices == 2
    assert graph.edges(1) == [(1, 2)]


def test_cayley_rejects_non_involution():
    rot = SignedPerm((2, 3, 1), (1, 1, 1))
    group = closure([rot])
    with pytest.raises(ValueError):
        cayley_graph(group, [rot])


def test_cayley_matching_property():
    rng = random.Random(60)
    for _ in range(10):
        g = random_graph(rng, 4, 2)
        gens = [g.color(1), g.color(2)]
        if any(gen.is_identity() for gen in gens):
            continue
        group = closure(gens)
        graph = cayley_graph(group, gens)
        for c in (1, 2):
            assert len(graph.edges(c)) * 2 == graph.vertices


def test_schreier_reconstructs_square_triangle(d4, square_triangle):
    data, group, h, h_hat = d4
    square, triangle = square_triangle.graphs
    assert is_isomorphic(schreier_graph(group, list(data.generators), h), square)
    assert is_isomorphic(schreier_graph(group, list(data.generators), h_hat), triangle)


def test_schreier_full_subgroup(d4):
    data, group, _, _ = d4
    trivial_char = {i: 1 for i in range(group.order)}
    pair = SubCharPair(frozenset(range(group.order)), trivial_char)
    graph = schreier_graph(group, list(data.generators), pair)
    assert graph.vertices == 1
    assert graph.loops(1) == {1: "N"} and graph.loops(2) == {1: "N"}


def test_schreier_trivial_subgroup_is_cayley(d4):
    data, group, _, _ = d4
    pair = SubCharPair(frozenset([0]), {0: 1})
    graph = schreier_graph(group, list(data.generators), pair)
    assert is_isomorphic(graph, cayley_graph(group, list(data.generators)))
    for c in (1, 2):
        assert not graph.loops(c)


def test_schreier_non_bipartite_pair_fails(d4):
    data, group, _, _ = d4
    # character -1 on the half-turn makes the 4-cycle of cosets odd-signed
    words = ((), (2, 1, 2, 1))
    pair = pair_from_words(group, words, (1, -1))
    with pytest.raises(NoBipartiteSystem):
        schreier_graph(group, list(data.generators), pair)


def test_associated_pairs_square(d4, square_triangle):
    data, group, h, _ = d4
    square = square_triangle.graphs[0]
    grp, pairs = associated_pairs(square)
    assert grp.order == 8
    assert len(pairs) == 1
    assert pairs[0].subgroup == h.subgroup
    assert dict(pairs[0].character) == dict(h.character)


def test_associated_pairs_single_vertex():
    g = LoopSignedGraph.build(1, [([], {1: "N"}), ([], {1: "N"})])
    grp, pairs = associated_pairs(g)
    assert grp.order == 1
    assert pairs[0].subgroup == frozenset([0])


def test_round_trip_fixtures(gww, band15, square_triangle):
    for g in (*square_triangle.graphs, *gww.graphs):
        grp, pairs = associated_pairs(g)
        gens = [g.color(c) for c in range(1, g.colors + 1)]
        comps = components(g)
        for comp, pair in zip(comps, pairs):
            rebuilt = schreier_graph(grp, gens, pair)
            assert is_isomorphic(rebuilt, subgraph(g, comp)) is not None


def test_induced_character_degree(d4):
    _, group, h, h_hat = d4
    chi = induced_character(group, h)
    assert chi[0] == group.order // len(h.subgroup)  # degree = index
    chi_hat = induced_character(group, h_hat)
    assert chi_hat[0] == 2
    assert chi == chi_hat


def test_regular_character(d4):
    _, group, _, _ = d4
    pair = SubCharPair(frozenset([0]), {0: 1})
    chi = induced_character(group, pair)
    assert chi[0] == group.order
    assert all(v == 0 for k, v in chi.items() if k != 0)


def test_characters_equal(d4):
    data, group, h, h_hat = d4
    assert characters_equal(group, [h], [h])
    assert characters_equal(group, [h], [h_hat])
    trivial = pair_from_words(group, data.subgroup_words, (1, 1, 1, 1))
    assert not characters_equal(group, [h], [trivial])


def test_gassmann(d4):
    _, group, h, h_hat = d4
    assert gassmann_check(group, h.subgroup, h.subgroup)
    # conjugate subgroups always pass
    for j in range(group.order):
        conj = frozenset(
            group.index_of(
                compose(
                    compose(group.elements[j], group.elements[i]),
                    inverse(group.elements[j]),
                )
            )
            for i in h.subgroup
        )
        assert gassmann_check(group, h.subgroup, conj)
    # these two subgroups contain different reflection classes
    assert not gassmann_check(group, h.subgroup, h_hat.subgroup)


def test_gassmann_rejects_non_subgroup(d4):
    _, group, h, _ = d4
    with pytest.raises(ValueError):
        gassmann_check(group, frozenset([0, 1, 2]), h.subgroup)


def test_character_transplantability_equivalence(square_triangle):
    # over the pair closure group, summed induced characters agree exactly
    # when the graphs are transplantable
    s, t = square_triangle.graphs
    elements, _ = pair_closure(s, t)
    mapping = {a.encode(): b for a, b in elements}
    group = closure([s.color(1), s.color(2)])
    assert len(mapping) == len({b for _, b in elements}) == group.order
    # subgroup data for t pulled back through the pairing
    pulled_sub = set()
    pulled_char = {}
    for i, elem in enumerate(group.elements):
        image = mapping[elem.encode()]
        if image.targets[0] == 1:
            pulled_sub.add(i)
            pulled_char[i] = image.signs[0]
    pulled = SubCharPair(frozenset(pulled_sub), pulled_char)
    _, own_pairs = associated_pairs(s)
    assert characters_equal(group, list(own_pairs), [pulled])


def _whole_and_trivial(group):
    whole = range(group.order)
    return [
        SubCharPair(frozenset([0]), {0: 1}),
        SubCharPair(frozenset(whole), dict.fromkeys(whole, 1)),
    ]


def test_induced_character_against_brute_force(d4, gww, square_triangle, census_pairs):
    _, group, h, h_hat = d4
    cases = [(group, p) for p in (h, h_hat, *_whole_and_trivial(group))]
    catalog_pairs = [gww.graphs[:2], square_triangle.graphs[:2]]
    for i, (g1, g2) in enumerate([*catalog_pairs, *census_pairs]):
        _, grp, subs = _union_pairs(g1, g2)
        cases += [(grp, p) for p in subs]
        if i < 2:
            cases += [(grp, p) for p in _whole_and_trivial(grp)]
    assert len(cases) == 4 + 2 * 127 + 4
    for grp, pair in cases:
        assert induced_character(grp, pair) == _brute_induced_character(grp, pair)


def test_induced_character_is_signed_trace_on_component(gww, square_triangle, census_pairs):
    # the coset action of an associated pair is the action on its component,
    # so the induced character is the signed trace over the component
    for g1, g2 in [gww.graphs[:2], square_triangle.graphs[:2], *census_pairs[::5]]:
        union, grp, subs = _union_pairs(g1, g2)
        for comp, pair in zip(components(union), subs):
            for x, value in induced_character(grp, pair).items():
                elem = grp.elements[x]
                assert value == sum(
                    elem.signs[w - 1] for w in comp if elem.targets[w - 1] == w
                )


def test_characters_agree_with_transplantability(gww, square_triangle):
    # catalog pairs, the V=4 mixed candidates (all transplantable) and the V=6
    # mixed candidates whose union closes within the cap: every negative and
    # every eighth positive
    pairs = [gww.graphs[:2], square_triangle.graphs[:2]]
    for vertices, step in ((4, 1), (6, 8)):
        packed = enumerate_packed(vertices, 3, "mixed")
        positives = 0
        for i, j in candidate_pairs_packed(packed):
            g1, g2 = packed.graph(i), packed.graph(j)
            if transplantable(g1, g2):
                positives += 1
                if (positives - 1) % step:
                    continue
            pairs.append((g1, g2))
    checked = {True: 0, False: 0}
    for g1, g2 in pairs:
        try:
            _, grp, subs = _union_pairs(g1, g2, cap=3000)
        except ClosureCapExceeded:
            continue
        verdict = transplantable(g1, g2)
        assert characters_equal(grp, [subs[0]], [subs[1]]) == verdict
        checked[verdict] += 1
    assert checked[False] >= 30 and checked[True] >= 200


def test_check_matches_all_products(d4):
    # every subset of the order-8 group that holds the identity, with every
    # character on it: the generator-based check accepts exactly the pairs
    # the |H|^2 products accept
    _, group, _, _ = d4
    accepted = 0
    others = range(1, group.order)
    for k in range(group.order):
        for rest in itertools.combinations(others, k):
            sub = (0, *rest)
            for values in itertools.product((1, -1), repeat=len(sub)):
                pair = SubCharPair(frozenset(sub), dict(zip(sub, values)))
                try:
                    pair.check(group)
                    ok = True
                except ValueError:
                    ok = False
                assert ok == _brute_check(group, pair)
                accepted += ok
    # homomorphisms to +-1 on the 10 subgroups of D4: 1 on the trivial one,
    # 2 on each of the five of order 2 and on the rotations, 4 on each Klein
    # four-group and on the whole group
    assert accepted == 1 + 2 * 5 + 2 + 4 * 2 + 4


def test_invalid_pairs_raise_on_every_call(d4):
    data, group, h, _ = d4
    gens = list(data.generators)
    a, b = (group.index_of(g) for g in gens)
    non_subgroup = SubCharPair(frozenset([0, a, b]), {0: 1, a: 1, b: 1})
    whole = range(group.order)
    not_hom = SubCharPair(frozenset(whole), {i: -1 if i == a else 1 for i in whole})
    for bad, message in ((non_subgroup, "not closed"), (not_hom, "not a homomorphism")):
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                schreier_graph(group, gens, bad)
            with pytest.raises(ValueError, match=message):
                induced_character(group, bad)
            with pytest.raises(ValueError, match=message):
                characters_equal(group, [h], [bad])


def test_check_is_repeated_for_another_group(d4):
    data, group, _, _ = d4
    a = group.index_of(data.generators[0])
    pair = SubCharPair(frozenset([0, a]), {0: 1, a: -1})
    pair.check(group)
    assert induced_character(group, pair)[0] == group.order // 2
    # in the cyclic group of order 3 the same indices are no subgroup
    rot = closure([SignedPerm((2, 3, 1), (1, 1, 1))])
    assert a < rot.order
    for _ in range(2):
        with pytest.raises(ValueError, match="not closed"):
            induced_character(rot, pair)
    assert induced_character(group, pair)[0] == group.order // 2


def test_check_sees_a_changed_character(d4):
    data, group, _, _ = d4
    whole = range(group.order)
    pair = SubCharPair(frozenset(whole), dict.fromkeys(whole, 1))
    pair.check(group)
    pair.character[group.index_of(data.generators[0])] = -1  # type: ignore[index]
    with pytest.raises(ValueError, match="not a homomorphism"):
        pair.check(group)


def test_conjugacy_classes_cached(d4):
    _, group, _, _ = d4
    first = group.conjugacy_classes()
    assert group.conjugacy_classes() is first
