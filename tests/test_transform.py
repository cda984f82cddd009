import functools
import random
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from looptrans.algebra import RatMatrix, SignedPerm, compose
from looptrans.catalog import catalog
from looptrans.enumeration import census_details
from looptrans.graph import (
    LoopSignedGraph,
    canonical_form,
    components,
    disjoint_union,
    is_bipartite_loopless,
    is_connected,
    is_treelike,
    validate,
)
from looptrans.invariants import word_trace
from looptrans.transform import (
    NoSignPartition,
    NotNormalizable,
    SubstitutionPlan,
    add_colour,
    braid,
    braid_conjugator,
    copy_colour,
    cross,
    cross_witness,
    dualize,
    omit_colour,
    remove_component,
    sign_partition,
    substitute,
    substitution_witness,
    swap_loop_signs,
    transport_dual_witness,
)
from looptrans.transplant import decide, transplantable, verify_witness
from conftest import random_graph


def _all_neumann(g: LoopSignedGraph) -> LoopSignedGraph:
    return LoopSignedGraph.build(
        g.vertices,
        [(g.edges(c), {v: "N" for v in g.loops(c)}) for c in range(1, g.colors + 1)],
    )


def test_swap_single_loops_only_colour(square_triangle):
    s = square_triangle.graphs[0]  # colour 1 is loops-only
    swapped = swap_loop_signs(s, [1])
    assert swapped.loops(1) == {1: "N", 2: "D"}
    assert swapped.edges(2) == s.edges(2)
    assert sign_partition(s, [1]).signs == (1, 1)  # the identity partition works


def test_sign_partition_rejects_out_of_range_colours(gww):
    g = gww.graphs[0]
    for colours in ([0], [4], [1, 4]):
        with pytest.raises(ValueError):
            sign_partition(g, colours)
        with pytest.raises(ValueError):
            swap_loop_signs(g, colours)


def _oracle_signs(vertices, perms):
    """Brute-force normalizer: the one sign vector d with d_i * s * d_t = 1 on
    every off-diagonal entry s at (i, t), +1 at each component's smallest vertex."""
    smallest = [comp[0] for comp in components(LoopSignedGraph(vertices, tuple(perms)))]
    found = [
        d
        for d in product((1, -1), repeat=vertices)
        if all(d[v - 1] == 1 for v in smallest)
        and all(
            d[i] * s * d[t - 1] == 1
            for p in perms
            for i, (t, s) in enumerate(zip(p.targets, p.signs))
            if t != i + 1
        )
    ]
    assert len(found) <= 1
    return found[0] if found else None


def _oracle_conjugate(vertices, perms, d):
    """The graph whose colours are the D p D, entry by entry."""
    conjugated = []
    for p in perms:
        signs = tuple(s * d[i] * d[t - 1] for i, (t, s) in enumerate(zip(p.targets, p.signs)))
        conjugated.append(SignedPerm(p.targets, signs))
    return LoopSignedGraph(vertices, tuple(conjugated))


def _negated(g, colours):
    return [
        SignedPerm(p.targets, tuple(-s for s in p.signs)) if c in colours else p
        for c, p in enumerate(g.adjacency, start=1)
    ]


_random_graphs = st.builds(
    lambda seed, vertices, colors: random_graph(random.Random(seed), vertices, colors),
    st.integers(0, 2**32 - 1),
    st.integers(1, 6),
    st.integers(1, 4),
)


@settings(max_examples=150, deadline=None)
@given(g=_random_graphs, data=st.data())
def test_sign_partition_matches_brute_force(g, data):
    colours = data.draw(st.sets(st.integers(1, g.colors)))
    negated = _negated(g, colours)
    expected = _oracle_signs(g.vertices, negated)
    part = sign_partition(g, colours)
    assert (None if part is None else part.signs) == expected
    if expected is None:
        with pytest.raises(NoSignPartition):
            swap_loop_signs(g, colours)
    else:
        assert swap_loop_signs(g, colours) == _oracle_conjugate(g.vertices, negated, expected)


@settings(max_examples=150, deadline=None)
@given(g=_random_graphs)
def test_braid_matches_brute_force(g):
    for c, conj in product(range(1, g.colors + 1), repeat=2):
        a, b = g.color(c), g.color(conj)
        perms = list(g.adjacency)
        perms[c - 1] = compose(compose(b, a), b)
        expected = _oracle_signs(g.vertices, perms)
        if expected is None:
            with pytest.raises(NotNormalizable):
                braid(g, c, conj)
        else:
            braided = braid(g, c, conj)
            assert braided == _oracle_conjugate(g.vertices, perms, expected)
            assert validate(braided) is None
            n = g.vertices
            assert braid_conjugator(g, c, conj) == RatMatrix.from_rows(
                [[expected[i] if i == j else 0 for j in range(n)] for i in range(n)]
            )


@settings(max_examples=150, deadline=None)
@given(g=_random_graphs)
def test_is_bipartite_loopless_matches_brute_force(g):
    negated = _negated(g, range(1, g.colors + 1))
    assert is_bipartite_loopless(g) == (_oracle_signs(g.vertices, negated) is not None)


def test_swap_changes_only_selected_diagonal(gww):
    g = gww.graphs[0]
    swapped = swap_loop_signs(g, [2])
    for c in (1, 2, 3):
        assert swapped.edges(c) == g.edges(c)
        if c == 2:
            assert swapped.loops(c) == {
                v: ("N" if s == "D" else "D") for v, s in g.loops(c).items()
            }
        else:
            assert swapped.loops(c) == g.loops(c)


def test_dualize_involution(gww):
    g = gww.graphs[0]
    assert dualize(dualize(g)) == g


def test_dualize_needs_bipartite(band15):
    assert dualize(band15.graphs[0]) is not None
    with pytest.raises(NoSignPartition):
        dualize(band15.graphs[1])


def test_dual_pair_witness_transport(gww, square_triangle):
    for entry in (gww, square_triangle):
        g1, g2 = entry.graphs
        witness = entry.witness
        dual = transport_dual_witness((g1, g2), witness)
        assert verify_witness(dualize(g1), dualize(g2), dual)


def test_swap_pair_witness_transport(gww):
    g1, g2 = gww.graphs
    for colours in ([1], [2], [1, 3], [1, 2, 3]):
        moved = transport_dual_witness((g1, g2), gww.witness, colours)
        assert verify_witness(
            swap_loop_signs(g1, colours), swap_loop_signs(g2, colours), moved
        )


def test_braid_identity(square_triangle):
    for g in square_triangle.graphs:
        assert braid(g, 1, 1) == g
        assert braid(g, 2, 2) == g


def test_braid_preserves_transplantability(square_triangle, gww):
    for entry in (square_triangle, gww):
        g1, g2 = entry.graphs
        witness = entry.witness
        for c in range(1, g1.colors + 1):
            for conj in range(1, g1.colors + 1):
                b1 = braid(g1, c, conj)
                b2 = braid(g2, c, conj)
                p1 = braid_conjugator(g1, c, conj)
                p2 = braid_conjugator(g2, c, conj)
                moved = p2 @ witness @ p1
                assert verify_witness(b1, b2, moved)


def test_colour_ops_roundtrip(square_triangle):
    s = square_triangle.graphs[0]
    assert omit_colour(add_colour(s, "N"), 3) == s
    assert omit_colour(add_colour(s, "D"), 3) == s
    with pytest.raises(ValueError):
        omit_colour(LoopSignedGraph.build(1, [([], {1: "N"})]), 1)
    with pytest.raises(ValueError):
        copy_colour(s, 5)


def test_copy_colour_keeps_transplantability(square_triangle):
    s, t = square_triangle.graphs
    bigger = (copy_colour(s, 2), copy_colour(t, 2))
    assert bigger[0].colors == 3
    assert transplantable(*bigger)
    assert verify_witness(*bigger, square_triangle.witness)


def test_omit_colour_on_all_neumann_gww(gww):
    g1, g2 = (_all_neumann(g) for g in gww.graphs)
    decision = decide(g1, g2)
    assert decision.verdict
    reduced = (omit_colour(g1, 3), omit_colour(g2, 3))
    assert transplantable(*reduced)
    assert verify_witness(*reduced, decision.witness)


def test_remove_component(gww, square_triangle):
    g1, g2 = gww.graphs
    extra = add_colour(square_triangle.graphs[0], "N")
    u1 = disjoint_union([g1, extra])
    u2 = disjoint_union([g2, extra])
    rest1, rest2 = remove_component((u1, u2), 2, 2)
    assert rest1 == g1 and rest2 == g2
    assert transplantable(rest1, rest2)
    with pytest.raises(ValueError):
        remove_component((u1, u2), 1, 2)  # gww component vs square component


def test_cross_with_unit_graph(gww):
    g = _all_neumann(gww.graphs[0])
    unit = LoopSignedGraph.build(1, [([], {1: "N"})])
    assert cross(g, unit) == g


def test_cross_sizes_multiply():
    rng = random.Random(50)
    a = LoopSignedGraph.build(3, [([(1, 2)], {3: "N"}), ([(2, 3)], {1: "N"})])
    b = LoopSignedGraph.build(3, [([(1, 3)], {2: "N"}), ([], {1: "N", 2: "N", 3: "N"})])
    crossed = cross(a, b)
    assert crossed.vertices == 9
    assert crossed.colors == 4


def test_cross_rejects_dirichlet(square_triangle):
    with pytest.raises(ValueError):
        cross(square_triangle.graphs[0], square_triangle.graphs[0])


def test_cross_commutes_up_to_isomorphism():
    a = LoopSignedGraph.build(2, [([(1, 2)], {}), ([], {1: "N", 2: "N"})])
    b = LoopSignedGraph.build(3, [([(1, 2)], {3: "N"}), ([(2, 3)], {1: "N"})])
    ab = cross(a, b)
    ba = cross(b, a)
    # same vertex count and colour count, but colour indices permute
    perm = {}
    for c1 in range(1, 3):
        for c2 in range(1, 3):
            perm[c1 + (c2 - 1) * 2] = c2 + (c1 - 1) * 2
    reordered = LoopSignedGraph(
        ba.vertices, tuple(ba.adjacency[perm[c] - 1] for c in range(1, 5))
    )
    assert canonical_form(ab).code == canonical_form(reordered).code


def test_cross_trace_factorizes():
    a = LoopSignedGraph.build(2, [([(1, 2)], {}), ([], {1: "N", 2: "N"})])
    b = LoopSignedGraph.build(2, [([], {1: "N", 2: "N"}), ([(1, 2)], {})])
    crossed = cross(a, b)
    rng = random.Random(51)
    for _ in range(25):
        word1 = tuple(rng.randint(1, 2) for _ in range(rng.randint(1, 5)))
        word2 = tuple(rng.randint(1, 2) for _ in range(len(word1)))
        mixed = tuple(c1 + (c2 - 1) * 2 for c1, c2 in zip(word1, word2))
        assert word_trace(crossed, mixed) == word_trace(a, word1) * word_trace(b, word2)


def test_cross_witness_transport(square_triangle):
    # self-pairs of Dirichlet-free graphs; the tensor witness must verify
    a = LoopSignedGraph.build(2, [([(1, 2)], {}), ([], {1: "N", 2: "N"})])
    b = LoopSignedGraph.build(3, [([(1, 2)], {3: "N"}), ([(2, 3)], {1: "N"})])
    ta = decide(a, a).witness
    tb = decide(b, b).witness
    crossed = cross(a, b)
    assert verify_witness(crossed, crossed, cross_witness(ta, tb))


def test_transported_witnesses_have_int_entries(gww, square_triangle):
    def checked(h1, h2, w):
        assert verify_witness(h1, h2, w)
        assert all(type(x) is int for row in w.entries for x in row)

    for entry in (gww, square_triangle):
        g1, g2 = entry.graphs
        checked(dualize(g1), dualize(g2), transport_dual_witness((g1, g2), entry.witness))
    n1, n2 = (_all_neumann(g) for g in gww.graphs)
    a = LoopSignedGraph.build(2, [([(1, 2)], {}), ([], {1: "N", 2: "N"}), ([(1, 2)], {})])
    checked(cross(n1, a), cross(n2, a), cross_witness(decide(n1, n2).witness, decide(a, a).witness))
    host, hat_host = square_triangle.graphs
    sub = LoopSignedGraph.build(3, [([], {1: "N", 2: "N", 3: "N"}), ([(1, 2)], {3: "N"})])
    assignment = {1: {1: [1], 2: [2]}, 2: {1: [3]}}
    plan = SubstitutionPlan.create(host, sub, assignment)
    plan_hat = SubstitutionPlan.create(hat_host, sub, assignment)
    moved = substitution_witness(plan, square_triangle.witness)
    checked(substitute(plan), substitute(plan_hat), moved)


def test_substitution_worked_example():
    host = LoopSignedGraph.build(2, [([(1, 2)], {}), ([], {1: "D", 2: "N"})])
    sub = LoopSignedGraph.build(
        2, [([], {1: "N", 2: "N"}), ([], {1: "D", 2: "N"}), ([(1, 2)], {})]
    )
    plan = SubstitutionPlan.create(host, sub, {1: {1: [1, 2]}, 2: {2: [2]}})
    result = substitute(plan)
    assert result.color(1).to_matrix() == RatMatrix.from_rows(
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    )
    assert result.color(2).to_matrix() == RatMatrix.from_rows(
        [[-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]]
    )
    assert result.color(3).to_matrix() == RatMatrix.from_rows(
        [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]
    )


def test_substitute_into_single_vertex_host():
    host = LoopSignedGraph.build(1, [([], {1: "N"}), ([], {1: "N"})])
    sub = LoopSignedGraph.build(
        2, [([], {1: "N", 2: "N"}), ([(1, 2)], {})]
    )
    plan = SubstitutionPlan.create(host, sub, {1: {1: [1], 2: [2]}})
    assert substitute(plan) == sub


def test_substitution_plan_validation():
    host = LoopSignedGraph.build(2, [([(1, 2)], {})])
    sub = LoopSignedGraph.build(2, [([], {1: "D", 2: "N"})])
    with pytest.raises(ValueError):
        # vertex 1 has a Dirichlet loop, not assignable
        SubstitutionPlan.create(host, sub, {1: {1: [1]}})
    sub2 = LoopSignedGraph.build(2, [([], {1: "N", 2: "N"})])
    with pytest.raises(ValueError):
        # overlapping assignment across host colours
        SubstitutionPlan.create(
            LoopSignedGraph.build(2, [([(1, 2)], {}), ([], {1: "N", 2: "N"})]),
            sub2,
            {1: {1: [1], 2: [1]}},
        )


def test_substitution_connectivity_theorem():
    rng = random.Random(52)
    host = LoopSignedGraph.build(2, [([(1, 2)], {}), ([], {1: "D", 2: "N"})])
    sub = LoopSignedGraph.build(
        2, [([], {1: "N", 2: "N"}), ([(1, 2)], {})]
    )
    # both host colours receive an assignment: result must be connected
    plan = SubstitutionPlan.create(host, sub, {1: {1: [1], 2: [2]}})
    assert is_connected(substitute(plan))
    # colour 2 of the host unassigned: host loops of colour 2 disappear into
    # copies, the graph may disconnect
    plan2 = SubstitutionPlan.create(host, sub, {1: {1: [1, 2]}})
    out = substitute(plan2)
    assert out.vertices == 4


def test_substitution_treelike_theorem():
    host = LoopSignedGraph.build(2, [([(1, 2)], {}), ([], {1: "D", 2: "N"})])
    sub = LoopSignedGraph.build(
        2, [([], {1: "N", 2: "N"}), ([(1, 2)], {})]
    )
    assert is_treelike(host) and is_treelike(sub)
    plan = SubstitutionPlan.create(host, sub, {1: {1: [1], 2: [2]}})
    assert is_treelike(substitute(plan))


def test_substitution_witness_transport(square_triangle):
    host, hat_host = square_triangle.graphs
    witness = square_triangle.witness
    sub = LoopSignedGraph.build(
        3,
        [
            ([], {1: "N", 2: "N", 3: "N"}),
            ([(1, 2)], {3: "N"}),
            ([(2, 3)], {1: "N"}),
        ],
    )
    assignment = {1: {1: [1], 2: [2]}, 2: {1: [3]}}
    plan = SubstitutionPlan.create(host, sub, assignment)
    plan_hat = SubstitutionPlan.create(hat_host, sub, assignment)
    moved = substitution_witness(plan, witness)
    assert verify_witness(substitute(plan), substitute(plan_hat), moved)


_substituents = st.builds(
    lambda seed, vertices, colors: random_graph(random.Random(seed), vertices, colors),
    st.integers(0, 2**32 - 1),
    st.integers(1, 4),
    st.integers(1, 4),
)


def _draw_assignment(data, host_colors, sub):
    """A valid plan's assignment: each Neumann loop of each substituent
    colour routes one host colour, or none."""
    assignment = {}
    for chi in range(1, sub.colors + 1):
        per_host = {}
        for v, sign in sorted(sub.loops(chi).items()):
            if sign == "N":
                c = data.draw(st.integers(0, host_colors))
                if c:
                    per_host.setdefault(c, []).append(v)
        assignment[chi] = per_host
    return assignment


@settings(max_examples=150, deadline=None)
@given(host=_random_graphs, sub=_substituents, data=st.data())
def test_substitute_builds_valid_graphs(host, sub, data):
    plan = SubstitutionPlan.create(host, sub, _draw_assignment(data, host.colors, sub))
    assert validate(substitute(plan)) is None


@functools.lru_cache(maxsize=None)
def _transplantable_hosts():
    """(g1, g2, witness) for the catalog pairs, the C=3 V=4 mixed census
    pairs and the C=3 V=7 Neumann census pairs, which alone have no
    Dirichlet loop and so can be crossed."""
    hosts = [
        (*e.graphs, e.witness) for e in (catalog("gww"), catalog("square-triangle"))
    ]
    pairs = census_details(4, 3, "mixed")[1] + census_details(7, 3, "neumann")[1]
    hosts += [(g1, g2, decide(g1, g2).witness) for g1, g2 in pairs]
    return hosts


@settings(max_examples=100, deadline=None)
@given(sub=_substituents, data=st.data())
def test_substitution_witness_verifies(sub, data):
    g1, g2, t = data.draw(st.sampled_from(_transplantable_hosts()))
    assignment = _draw_assignment(data, g1.colors, sub)
    plan1 = SubstitutionPlan.create(g1, sub, assignment)
    plan2 = SubstitutionPlan.create(g2, sub, assignment)
    h1, h2 = substitute(plan1), substitute(plan2)
    assert validate(h1) is None and validate(h2) is None
    assert verify_witness(h1, h2, substitution_witness(plan1, t))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_swap_loop_signs_witness_verifies(data):
    g1, g2, t = data.draw(st.sampled_from(_transplantable_hosts()))
    colours = data.draw(st.sets(st.integers(1, g1.colors)))
    try:
        h1, h2 = swap_loop_signs(g1, colours), swap_loop_signs(g2, colours)
        moved = transport_dual_witness((g1, g2), t, colours)
    except NoSignPartition:
        assume(False)
    assert verify_witness(h1, h2, moved)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_braid_witness_verifies(data):
    g1, g2, t = data.draw(st.sampled_from(_transplantable_hosts()))
    c = data.draw(st.integers(1, g1.colors))
    conj = data.draw(st.integers(1, g1.colors))
    try:
        h1, h2 = braid(g1, c, conj), braid(g2, c, conj)
        moved = braid_conjugator(g2, c, conj) @ t @ braid_conjugator(g1, c, conj)
    except NotNormalizable:
        assume(False)
    assert verify_witness(h1, h2, moved)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_colour_ops_keep_verdict_and_witness(data):
    # the witness intertwines every colour of both sides, so it still does
    # after a colour is copied, added or omitted
    g1, g2, t = data.draw(st.sampled_from(_transplantable_hosts()))
    c = data.draw(st.integers(1, g1.colors))
    op = data.draw(st.sampled_from([
        functools.partial(copy_colour, source=c),
        functools.partial(add_colour, sign="D"),
        functools.partial(add_colour, sign="N"),
        functools.partial(omit_colour, c=c),
    ]))
    h1, h2 = op(g1), op(g2)
    assert transplantable(h1, h2) is transplantable(g1, g2) is True
    assert verify_witness(h1, h2, t)


def _dirichlet_free(g):
    return all("D" not in g.loops(c).values() for c in range(1, g.colors + 1))


@settings(max_examples=40, deadline=None)
@given(
    factor=st.builds(
        lambda seed, vertices, colors: _all_neumann(
            random_graph(random.Random(seed), vertices, colors)
        ),
        st.integers(0, 2**32 - 1),
        st.integers(1, 3),
        st.integers(1, 3),
    ),
    data=st.data(),
)
def test_cross_witness_verifies(factor, data):
    # a host pair crossed with a self-pair of a Dirichlet-free graph
    crossable = [h for h in _transplantable_hosts() if _dirichlet_free(h[0])]
    g1, g2, t = data.draw(st.sampled_from(crossable))
    assert _dirichlet_free(g2)
    moved = cross_witness(t, decide(factor, factor).witness)
    assert verify_witness(cross(g1, factor), cross(g2, factor), moved)
