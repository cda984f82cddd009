"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; the suite takes a few minutes, dominated by the seven-vertex census.
"""

import random
from itertools import product

import pytest

from looptrans.algebra import RatMatrix
from looptrans.catalog import catalog
from looptrans.enumeration import (
    _census_from_packed,
    candidate_pairs_packed,
    census_details,
    enumerate_classes,
    enumerate_packed,
)
from looptrans.graph import (
    LoopSignedGraph,
    canonical_form,
    components,
    is_bipartite_loopless,
    is_canonical,
    is_connected,
    is_isomorphic,
    subgraph,
)
from looptrans.reps import (
    associated_pairs,
    characters_equal,
    closure,
    pair_from_words,
    schreier_graph,
)
from looptrans.transform import (
    SubstitutionPlan,
    add_colour,
    copy_colour,
    cross,
    cross_witness,
    omit_colour,
    sign_partition,
    substitute,
    substitution_witness,
    swap_loop_signs,
)
from looptrans.transplant import (
    decide,
    intertwiner_space,
    transplantable,
    verify_witness,
)


def _report(criterion: int, description: str, ok: bool) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status} - {description}")
    assert ok, f"criterion {criterion} failed: {description}"


@pytest.fixture(scope="module")
def packed_mixed():
    return {v: enumerate_packed(v, 3, "mixed") for v in range(2, 8)}


@pytest.fixture(scope="module")
def mixed_results(packed_mixed):
    return {
        v: _census_from_packed(packed, "mixed", quilts=v == 7)
        for v, packed in packed_mixed.items()
    }


@pytest.fixture(scope="module")
def homogeneous_results():
    out = {}
    for v in (7, 8):
        for regime in ("dirichlet", "neumann"):
            out[(v, regime)] = census_details(v, 3, regime)
    return out


def test_criterion_1_fixture_verification():
    gww = catalog("gww")
    ok = verify_witness(gww.graphs[0], gww.graphs[1], gww.witness)
    st = catalog("square-triangle")
    ok &= verify_witness(st.graphs[0], st.graphs[1], st.witness)
    ok &= (st.witness @ st.witness) == RatMatrix.identity(2).scale(2)
    band = catalog("band15")
    ok &= decide(band.graphs[0], band.graphs[1]).verdict
    _report(1, "catalog witnesses verify exactly; band pair decides yes", ok)


def test_criterion_2_mixed_census(mixed_results):
    expected = {
        2: (40, 30, 9, 6, 3, 2),
        3: (128, 96, 0, 0, 0, 0),
        4: (737, 472, 118, 64, 28, 18),
        5: (3848, 2304, 0, 0, 0, 0),
        6: (24360, 12792, 957, 294, 176, 56),
        7: (156480, 73216, 112, 112, 32, 32),
    }
    bad = []
    for v, want in expected.items():
        row = mixed_results[v][0]
        got = (
            row.class_count,
            row.treelike_count,
            row.pair_count,
            row.treelike_pair_count,
            row.class_pair_count,
            row.treelike_class_pair_count,
        )
        if got != want:
            bad.append((v, got))
    _report(2, f"mixed census V=2..7 exact {'' if not bad else bad}", not bad)


def test_criterion_3_homogeneous_census(homogeneous_results):
    expected = {
        (7, "dirichlet"): (1407, 143, 7, 3, 7, 3),
        (7, "neumann"): (1407, 143, 7, 3, 7, 3),
        (8, "dirichlet"): (6877, 450, 64, 16, 0, 0),
        (8, "neumann"): (6877, 450, 28, 8, 0, 0),
    }
    bad = []
    for key, want in expected.items():
        row = homogeneous_results[key][0]
        got = (
            row.class_count,
            row.treelike_count,
            row.pair_count,
            row.class_pair_count,
            row.treelike_pair_count,
            row.treelike_class_pair_count,
        )
        if got != want:
            bad.append((key, got))
    _report(3, f"homogeneous census V=7,8 exact {'' if not bad else bad}", not bad)


def test_criterion_4_quilt_quotient(mixed_results):
    row = mixed_results[7][0]
    _report(
        4,
        f"32 colour classes at V=7 reduce to {row.quilt_count} quilts",
        row.class_pair_count == 32 and row.quilt_count == 8,
    )


def test_criterion_5_route_agreement(packed_mixed):
    disagreements = 0
    total = 0
    for v, packed in packed_mixed.items():
        for i, j in candidate_pairs_packed(packed):
            g1, g2 = packed.graph(i), packed.graph(j)
            total += 1
            if decide(g1, g2, method="group").verdict != decide(g1, g2, method="orbit").verdict:
                disagreements += 1
    _report(
        5,
        f"group and orbit routes agree on all {total} candidate pairs at V<=7",
        disagreements == 0 and total >= 957,
    )


@pytest.fixture(scope="module")
def base_pairs_with_witnesses(mixed_results):
    pairs = mixed_results[2][1] + mixed_results[4][1]
    out = []
    for g1, g2 in pairs:
        decision = decide(g1, g2, seed=7)
        assert decision.verdict and decision.witness is not None
        out.append((g1, g2, decision.witness))
    return out


def test_criterion_6_transform_preservation(base_pairs_with_witnesses, homogeneous_results):
    rng = random.Random(20250810)
    cases = 0
    failures: list[str] = []

    def run(tag, ok):
        nonlocal cases
        cases += 1
        if not ok:
            failures.append(tag)

    # sign swaps including full dualisation; witness moves by the partitions
    for g1, g2, t in base_pairs_with_witnesses:
        subsets = [tuple(range(1, 4))] + [
            tuple(sorted(rng.sample(range(1, 4), rng.randint(1, 2)))) for _ in range(2)
        ]
        for sel in subsets:
            p1 = sign_partition(g1, sel)
            p2 = sign_partition(g2, sel)
            if p1 is None or p2 is None:
                continue
            moved = p2.to_matrix() @ t @ p1.to_matrix()
            run(
                f"swap{sel}",
                verify_witness(
                    swap_loop_signs(g1, sel), swap_loop_signs(g2, sel), moved
                ),
            )

    # colour bookkeeping keeps the witness unchanged
    for g1, g2, t in base_pairs_with_witnesses:
        c = rng.randint(1, 3)
        run("copy", verify_witness(copy_colour(g1, c), copy_colour(g2, c), t))
        sign = rng.choice("DN")
        run("add", verify_witness(add_colour(g1, sign), add_colour(g2, sign), t))
        run("omit", verify_witness(omit_colour(g1, c), omit_colour(g2, c), t))

    # substitution tensors the witness with an identity
    substituent = LoopSignedGraph.build(
        2,
        [
            ([], {1: "N", 2: "N"}),
            ([(1, 2)], {}),
            ([], {1: "N", 2: "N"}),
        ],
    )
    assignments = [
        {1: {1: [1], 2: [2]}, 3: {3: [1]}},
        {1: {1: [1, 2]}, 3: {2: [1], 3: [2]}},
        {3: {1: [1], 3: [2]}},
    ]
    for g1, g2, t in base_pairs_with_witnesses:
        assignment = rng.choice(assignments)
        plan1 = SubstitutionPlan.create(g1, substituent, assignment)
        plan2 = SubstitutionPlan.create(g2, substituent, assignment)
        run(
            "substitute",
            verify_witness(
                substitute(plan1), substitute(plan2), substitution_witness(plan1, t)
            ),
        )

    # crossings need Dirichlet-free factors: self-pairs of small all-Neumann
    # classes with commutant witnesses, plus a derived seven-vertex pair
    neumann_small = list(enumerate_classes(2, 3, "neumann")) + list(
        enumerate_classes(3, 3, "neumann")
    )
    witnesses = {g: decide(g, g, seed=11).witness for g in neumann_small}
    combos = [(a, b) for a in neumann_small for b in neumann_small]
    for a, b in rng.sample(combos, 60):
        crossed = cross(a, b)
        run(
            "cross-self",
            verify_witness(crossed, crossed, cross_witness(witnesses[a], witnesses[b])),
        )
    n_pairs = homogeneous_results[(7, "neumann")][1]
    g1, g2 = n_pairs[0]
    t7 = decide(g1, g2, seed=3).witness
    for b in rng.sample(neumann_small, 4):
        run(
            "cross-pair",
            verify_witness(cross(g1, b), cross(g2, b), cross_witness(t7, witnesses[b])),
        )

    _report(
        6,
        f"{cases} transform cases preserve transplantability with transported witnesses",
        cases >= 500 and not failures,
    )


def test_criterion_7_substitution_worked_example():
    host = LoopSignedGraph.build(2, [([(1, 2)], {}), ([], {1: "D", 2: "N"})])
    hat_host = LoopSignedGraph.build(2, [([], {1: "D", 2: "N"}), ([(1, 2)], {})])
    substituent = LoopSignedGraph.build(
        2, [([], {1: "N", 2: "N"}), ([], {1: "D", 2: "N"}), ([(1, 2)], {})]
    )
    assignment = {1: {1: [1, 2]}, 2: {2: [2]}}
    plan = SubstitutionPlan.create(host, substituent, assignment)
    result = substitute(plan)
    ok = result.color(1).to_matrix() == RatMatrix.from_rows(
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    )
    ok &= result.color(2).to_matrix() == RatMatrix.from_rows(
        [[-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]]
    )
    ok &= result.color(3).to_matrix() == RatMatrix.from_rows(
        [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]
    )
    tee = RatMatrix.from_rows([[-1, 1], [1, 1]])
    four = RatMatrix.from_rows(
        [[-1, 1, 0, 0], [1, 1, 0, 0], [0, 0, -1, 1], [0, 0, 1, 1]]
    )
    ok &= RatMatrix.identity(2).kronecker(tee) == four
    plan_hat = SubstitutionPlan.create(hat_host, substituent, assignment)
    ok &= verify_witness(result, substitute(plan_hat), four)
    _report(7, "substitution example reproduces the displayed matrices", ok)


def test_criterion_8_representation_round_trip():
    checked = 0
    ok = True
    for colors in (1, 2, 3):
        for vertices in (1, 2, 3, 4):
            for g in enumerate_classes(vertices, colors, "mixed"):
                grp, pairs = associated_pairs(g)
                gens = [g.color(c) for c in range(1, colors + 1)]
                comps = components(g)
                assert len(comps) == 1
                rebuilt = schreier_graph(grp, gens, pairs[0])
                if is_isomorphic(rebuilt, g) is None:
                    ok = False
                checked += 1
    data = catalog("d4-group").group_data
    group = closure(list(data.generators))
    pair = pair_from_words(group, data.subgroup_words, data.character)
    pair_hat = pair_from_words(group, data.hat_subgroup_words, data.hat_character)
    square, triangle = catalog("square-triangle").graphs
    gens = list(data.generators)
    ok &= is_isomorphic(schreier_graph(group, gens, pair), square) is not None
    ok &= is_isomorphic(schreier_graph(group, gens, pair_hat), triangle) is not None
    ok &= characters_equal(group, [pair], [pair_hat])
    _report(8, f"schreier round trip on {checked} graphs with V<=4, C<=3", ok)


def test_criterion_9_bipartiteness_compatibility(homogeneous_results):
    violations = 0
    total = 0
    pair_lists = [homogeneous_results[(v, "dirichlet")][1] for v in (7, 8)]
    for v in range(2, 7):
        pair_lists.append(census_details(v, 3, "dirichlet")[1])
    for pairs in pair_lists:
        for g1, g2 in pairs:
            total += 1
            if is_bipartite_loopless(g1) != is_bipartite_loopless(g2):
                violations += 1
    _report(
        9,
        f"{total} Dirichlet pairs at V<=8 have matching bipartiteness",
        violations == 0 and total == 71,
    )


def test_criterion_10_non_superposition(packed_mixed):
    violations = 0
    bases = 0
    for v, packed in packed_mixed.items():
        for i, j in candidate_pairs_packed(packed):
            g1, g2 = packed.graph(i), packed.graph(j)
            for basis in intertwiner_space(g1, g2):
                bases += 1
                for c in range(1, 4):
                    p1, p2 = g1.color(c), g2.color(c)
                    for row in range(v):
                        for col in range(v):
                            if (
                                p2.targets[row] == row + 1
                                and p1.targets[col] == col + 1
                                and p2.signs[row] * p1.signs[col] == -1
                                and basis[row, col] != 0
                            ):
                                violations += 1
    _report(
        10,
        f"{bases} intertwiner basis elements vanish on Dirichlet/Neumann clashes",
        violations == 0 and bases > 0,
    )


def test_criterion_11_independent_two_vertex_count(mixed_results):
    # Burnside over the vertex swap, from an exhaustive labeled enumeration
    # that never touches the orderly generator
    per_colour = [("edge", None)] + [
        ("loops", (a, b)) for a in "DN" for b in "DN"
    ]
    labeled = 0
    swap_fixed = 0
    labeled_tree = 0
    swap_fixed_tree = 0
    for combo in product(per_colour, repeat=3):
        kinds = [k for k, _ in combo]
        if "edge" not in kinds:
            continue  # disconnected
        labeled += 1
        treelike = kinds.count("edge") == 1
        labeled_tree += treelike
        fixed = all(k == "edge" or signs[0] == signs[1] for k, signs in combo)
        swap_fixed += fixed
        swap_fixed_tree += fixed and treelike
    classes = (labeled + swap_fixed) // 2
    trees = (labeled_tree + swap_fixed_tree) // 2
    row = mixed_results[2][0]
    ok = (
        labeled == 61
        and swap_fixed == 19
        and classes == 40
        and trees == 30
        and row.class_count == classes
        and row.treelike_count == trees
    )
    _report(11, f"Burnside count gives {classes}/{trees}, matching the census", ok)
