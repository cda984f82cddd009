"""Generating transforms: produce new transplantable pairs from given ones.

Every transform that preserves transplantability also transports a witness:
sign swaps and braids conjugate it by the diagonal sign matrices (both solve
for them with :func:`~looptrans.algebra.diagonal_normalizer`), crossings
tensor the two witnesses, substitutions tensor with an identity, and colour
bookkeeping leaves it unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .algebra import (
    RatMatrix,
    SignedPerm,
    compose,
    conjugate_by_diagonal,
    diagonal_normalizer,
    kronecker,
)
from .graph import LoopSignedGraph, components, subgraph
from .transplant import transplantable


class NoSignPartition(ValueError):
    """The required 2-colouring of the vertex set does not exist."""


class NotNormalizable(ValueError):
    """A braided colour cannot be freed of negative off-diagonal entries."""


@dataclass(frozen=True)
class SignPartition:
    """Per-vertex signs: opposite across the selected colours, equal otherwise."""

    signs: tuple[int, ...]

    def to_matrix(self) -> RatMatrix:
        n = len(self.signs)
        return RatMatrix.from_rows(
            [[self.signs[i] if i == j else 0 for j in range(n)] for i in range(n)]
        )


def _negated(g: LoopSignedGraph, colours: Iterable[int]) -> list[SignedPerm]:
    """The colour matrices of g with the given colours negated."""
    selected = set(colours)
    if not selected <= set(range(1, g.colors + 1)):
        raise ValueError(f"colours {selected} out of range 1..{g.colors}")
    return [-p if c in selected else p for c, p in enumerate(g.adjacency, start=1)]


def sign_partition(g: LoopSignedGraph, colours: Iterable[int]) -> SignPartition | None:
    """2-colouring with opposite signs across the given colours' edges.

    Vertices joined by an edge of a selected colour get opposite signs, all
    other edges force equal signs: the normalizer of g with the selected
    colours negated.  The smallest vertex of each constraint component is
    positive.  Returns None when no such assignment exists.
    """
    signs = diagonal_normalizer(_negated(g, colours))
    return None if signs is None else SignPartition(signs)


def swap_loop_signs(g: LoopSignedGraph, colours: Iterable[int]) -> LoopSignedGraph:
    """Flip the loop signs of the selected colours; everything else unchanged.

    Negates the selected colours and conjugates every adjacency matrix by the
    sign partition, so transplantability is preserved; raises
    :class:`NoSignPartition` when the partition does not exist.
    """
    selected = set(colours)
    negated = _negated(g, selected)
    signs = diagonal_normalizer(negated)
    if signs is None:
        raise NoSignPartition(f"no sign partition for colours {sorted(selected)}")
    return LoopSignedGraph(
        g.vertices, tuple(conjugate_by_diagonal(p, signs) for p in negated)
    )


def dualize(g: LoopSignedGraph) -> LoopSignedGraph:
    """Swap all loop signs; defined when the loopless version is bipartite."""
    return swap_loop_signs(g, range(1, g.colors + 1))


def transport_dual_witness(
    pair: tuple[LoopSignedGraph, LoopSignedGraph],
    witness: RatMatrix,
    colours: Iterable[int] | None = None,
) -> RatMatrix:
    """Witness for the sign-swapped pair: conjugate by the two partitions."""
    g1, g2 = pair
    selected = set(colours) if colours is not None else set(range(1, g1.colors + 1))
    p1 = sign_partition(g1, selected)
    p2 = sign_partition(g2, selected)
    if p1 is None or p2 is None:
        raise NoSignPartition("sign swap undefined for this pair")
    return p2.to_matrix() @ witness @ p1.to_matrix()


def _braid_normalizer(
    g: LoopSignedGraph, c: int, conjugator: int
) -> tuple[list[SignedPerm], tuple[int, ...]]:
    """Colours of g with colour c braided, and the diagonal signs normalizing them."""
    if not (1 <= c <= g.colors and 1 <= conjugator <= g.colors):
        raise ValueError("colour out of range")
    a, b = g.color(c), g.color(conjugator)
    perms = list(g.adjacency)
    perms[c - 1] = compose(compose(b, a), b)
    signs = diagonal_normalizer(perms)
    if signs is None:
        raise NotNormalizable(
            f"braid of colour {c} by {conjugator} has no sign normalization"
        )
    return perms, signs


def braid(g: LoopSignedGraph, c: int, conjugator: int) -> LoopSignedGraph:
    """Replace colour c by its conjugate under another colour's matrix.

    The raw conjugate may have negative off-diagonal entries; these are
    removed by a diagonal sign conjugation of the whole graph when possible,
    else :class:`NotNormalizable` is raised (only on non-bipartite loopless
    versions).  Loop signs are carried along unchanged.
    """
    perms, signs = _braid_normalizer(g, c, conjugator)
    return LoopSignedGraph(
        g.vertices, tuple(conjugate_by_diagonal(p, signs) for p in perms)
    )


def braid_conjugator(g: LoopSignedGraph, c: int, conjugator: int) -> RatMatrix:
    """Diagonal matrix P with braid(g) = P M P colour-wise, M the raw conjugate."""
    return SignPartition(_braid_normalizer(g, c, conjugator)[1]).to_matrix()


def copy_colour(g: LoopSignedGraph, source: int) -> LoopSignedGraph:
    """Append a copy of an existing colour as colour C+1."""
    if not 1 <= source <= g.colors:
        raise ValueError(f"colour {source} out of range 1..{g.colors}")
    return LoopSignedGraph(g.vertices, g.adjacency + (g.color(source),))


def add_colour(g: LoopSignedGraph, sign: str) -> LoopSignedGraph:
    """Append a loops-only colour, all Dirichlet ("D") or all Neumann ("N")."""
    if sign not in ("D", "N"):
        raise ValueError("sign must be 'D' or 'N'")
    s = -1 if sign == "D" else 1
    loops = SignedPerm(tuple(range(1, g.vertices + 1)), (s,) * g.vertices)
    return LoopSignedGraph(g.vertices, g.adjacency + (loops,))


def omit_colour(g: LoopSignedGraph, c: int) -> LoopSignedGraph:
    """Delete a colour; the graph may disconnect."""
    if g.colors < 2:
        raise ValueError("cannot omit the only colour")
    if not 1 <= c <= g.colors:
        raise ValueError(f"colour {c} out of range 1..{g.colors}")
    return LoopSignedGraph(
        g.vertices, g.adjacency[: c - 1] + g.adjacency[c:]
    )


def remove_component(
    pair: tuple[LoopSignedGraph, LoopSignedGraph], k: int, l: int
) -> tuple[LoopSignedGraph, LoopSignedGraph]:
    """Delete component k of the first graph and l of the second.

    Refuses (ValueError) unless the two removed components are transplantable
    to each other, which is what keeps the remainder transplantable.
    """
    g1, g2 = pair
    comps1 = components(g1)
    comps2 = components(g2)
    if not (1 <= k <= len(comps1) and 1 <= l <= len(comps2)):
        raise ValueError("component index out of range")
    if len(comps1) < 2 or len(comps2) < 2:
        raise ValueError("cannot remove the only component")
    part1 = subgraph(g1, comps1[k - 1])
    part2 = subgraph(g2, comps2[l - 1])
    if not transplantable(part1, part2):
        raise ValueError(f"components {k} and {l} are not transplantable")
    rest1 = [v for i, comp in enumerate(comps1, start=1) if i != k for v in comp]
    rest2 = [v for i, comp in enumerate(comps2, start=1) if i != l for v in comp]
    return subgraph(g1, rest1), subgraph(g2, rest2)


def cross(g1: LoopSignedGraph, g2: LoopSignedGraph) -> LoopSignedGraph:
    """Kronecker-product graph; colour (c1, c2) gets index c1 + (c2-1)*C1.

    Both factors must be free of Dirichlet loops, otherwise negative
    off-diagonal entries would appear.
    """
    for g, name in ((g1, "first"), (g2, "second")):
        for c in range(1, g.colors + 1):
            if "D" in g.loops(c).values():
                raise ValueError(f"{name} factor has a Dirichlet loop in colour {c}")
    perms: list[SignedPerm] = [None] * (g1.colors * g2.colors)  # type: ignore[list-item]
    for c2 in range(1, g2.colors + 1):
        for c1 in range(1, g1.colors + 1):
            perms[c1 + (c2 - 1) * g1.colors - 1] = kronecker(g1.color(c1), g2.color(c2))
    return LoopSignedGraph(g1.vertices * g2.vertices, tuple(perms))


def cross_witness(t1: RatMatrix, t2: RatMatrix) -> RatMatrix:
    return t1.kronecker(t2)


@dataclass(frozen=True)
class SubstitutionPlan:
    """Replace each host vertex by a copy of the substituent.

    ``assignment`` maps a substituent colour to a map from host colours to
    disjoint sets of substituent vertices; each assigned vertex must carry a
    Neumann loop of that substituent colour, and routes the host colour's
    edges through that copy slot.
    """

    host: LoopSignedGraph
    substituent: LoopSignedGraph
    assignment: Mapping[int, Mapping[int, frozenset[int]]]

    @staticmethod
    def create(
        host: LoopSignedGraph,
        substituent: LoopSignedGraph,
        assignment: Mapping[int, Mapping[int, Iterable[int]]],
    ) -> "SubstitutionPlan":
        frozen = {
            chi: {c: frozenset(vs) for c, vs in per_host.items()}
            for chi, per_host in assignment.items()
        }
        plan = SubstitutionPlan(host, substituent, frozen)
        plan.check()
        return plan

    def check(self) -> None:
        for chi, per_host in self.assignment.items():
            if not 1 <= chi <= self.substituent.colors:
                raise ValueError(f"substituent colour {chi} out of range")
            neumann = {
                v for v, s in self.substituent.loops(chi).items() if s == "N"
            }
            seen: set[int] = set()
            for c, vs in per_host.items():
                if not 1 <= c <= self.host.colors:
                    raise ValueError(f"host colour {c} out of range")
                bad = set(vs) - neumann
                if bad:
                    raise ValueError(
                        f"vertices {sorted(bad)} lack a Neumann loop in colour {chi}"
                    )
                overlap = set(vs) & seen
                if overlap:
                    raise ValueError(
                        f"vertices {sorted(overlap)} assigned to two host colours"
                    )
                seen |= set(vs)


def substitute(plan: SubstitutionPlan) -> LoopSignedGraph:
    """Adjacency of the substituted graph.

    Colour chi of the result is the unassigned part of the substituent's
    colour chi tensored with the host identity, plus for each assigned
    Neumann loop the corresponding host colour riding in that slot.  Vertex
    (p, q) of the result is (p-1)*V + q with p in the substituent and q in
    the host.
    """
    host, sub = plan.host, plan.substituent
    nv, ns = host.vertices, sub.vertices
    size = nv * ns
    perms = []
    for chi in range(1, sub.colors + 1):
        per_host = plan.assignment.get(chi, {})
        assigned = {v: c for c, vs in per_host.items() for v in vs}
        targets = [0] * size
        signs = [1] * size
        schi = sub.color(chi)
        for p in range(1, ns + 1):
            tp, sp = schi.targets[p - 1], schi.signs[p - 1]
            if p in assigned:
                # this Neumann loop routes the host colour assigned to it
                hc = host.color(assigned[p])
                for q in range(1, nv + 1):
                    idx = (p - 1) * nv + q
                    targets[idx - 1] = (p - 1) * nv + hc.targets[q - 1]
                    signs[idx - 1] = hc.signs[q - 1]
            else:
                for q in range(1, nv + 1):
                    idx = (p - 1) * nv + q
                    targets[idx - 1] = (tp - 1) * nv + q
                    signs[idx - 1] = sp
        perms.append(SignedPerm(tuple(targets), tuple(signs)))
    return LoopSignedGraph(size, tuple(perms))


def substitution_witness(plan: SubstitutionPlan, witness: RatMatrix) -> RatMatrix:
    """Witness for the substituted pair: identity on slots tensor T."""
    return RatMatrix.identity(plan.substituent.vertices).kronecker(witness)
