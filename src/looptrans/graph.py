"""Loop-signed edge-coloured graphs: model, canonical forms, predicates.

A loop-signed graph on vertices 1..V with colours 1..C carries one symmetric
signed involution per colour.  Off-diagonal entries (edges) are +1; diagonal
entries are -1 for a Dirichlet loop and +1 for a Neumann loop.  Every vertex
has exactly one incidence per colour, so the object is a constellation: BFS
from a fixed start vertex visits vertices in a unique order, which is what
makes canonical labelling automorphism-free.  Components are the orbits of
``algebra.signed_orbits`` under the colours' vertex maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .algebra import SignedPerm, diagonal_normalizer, signed_orbits

# Byte values used in canonical codes.  Edge targets serialize as their
# discovery number (1..V), so edges always compare below loops and a Neumann
# loop compares below a Dirichlet loop.
MAX_VERTICES = 250
NEUMANN_BYTE = 251
DIRICHLET_BYTE = 252

DIRICHLET = -1
NEUMANN = 1


@dataclass(frozen=True)
class LoopSignedGraph:
    """V vertices, C colours, one symmetric signed involution per colour."""

    vertices: int
    adjacency: tuple[SignedPerm, ...]

    @property
    def colors(self) -> int:
        return len(self.adjacency)

    @staticmethod
    def build(
        vertices: int,
        colors: Sequence[tuple[Sequence[tuple[int, int]], Mapping[int, str]]],
    ) -> "LoopSignedGraph":
        """Build from per-colour edge lists and loop maps.

        Each colour is a pair ``(edges, loops)`` with edges as 1-based vertex
        pairs and loops mapping vertex -> "D" | "N".  Every vertex must occur
        exactly once per colour.
        """
        perms = []
        for edges, loops in colors:
            targets = [0] * vertices
            signs = [1] * vertices
            for i, j in edges:
                if not (1 <= i <= vertices and 1 <= j <= vertices) or i == j:
                    raise ValueError(f"bad edge ({i},{j})")
                if targets[i - 1] or targets[j - 1]:
                    raise ValueError(f"vertex {i if targets[i-1] else j} incident twice")
                targets[i - 1], targets[j - 1] = j, i
            for v, sign in loops.items():
                if not 1 <= v <= vertices:
                    raise ValueError(f"bad loop vertex {v}")
                if targets[v - 1]:
                    raise ValueError(f"vertex {v} incident twice")
                if sign not in ("D", "N"):
                    raise ValueError(f"loop sign {sign!r} at vertex {v} must be 'D' or 'N'")
                targets[v - 1] = v
                signs[v - 1] = DIRICHLET if sign == "D" else NEUMANN
            missing = [v + 1 for v in range(vertices) if not targets[v]]
            if missing:
                shown = ", ".join(map(str, missing[:5])) + (", ..." if missing[5:] else "")
                raise ValueError(f"{len(missing)} vertices have no incidence: {shown}")
            perms.append(SignedPerm(tuple(targets), tuple(signs)))
        return LoopSignedGraph(vertices, tuple(perms))

    def color(self, c: int) -> SignedPerm:
        """Adjacency of colour ``c`` (1-based)."""
        return self.adjacency[c - 1]

    def edges(self, c: int) -> list[tuple[int, int]]:
        p = self.color(c)
        return [(i, t) for i, t in enumerate(p.targets, start=1) if i < t]

    def loops(self, c: int) -> dict[int, str]:
        p = self.color(c)
        return {
            i: ("D" if s < 0 else "N")
            for i, (t, s) in enumerate(zip(p.targets, p.signs), start=1)
            if t == i
        }


def validate(g: LoopSignedGraph) -> str | None:
    """Return None when valid, else a message naming the first violation.

    The one check that each colour is a symmetric signed permutation of 1..V,
    +1 off the diagonal and +-1 on it; symmetry makes it a permutation.
    """
    n = g.vertices
    if n < 1:
        return "graph must have at least one vertex"
    if n > MAX_VERTICES:
        return f"at most {MAX_VERTICES} vertices supported"
    if g.colors < 1:
        return "graph must have at least one colour"
    try:
        for c, p in enumerate(g.adjacency, start=1):
            targets, signs = p.targets, p.signs
            if len(targets) != n or len(signs) != n:
                return f"colour {c}: {len(targets)} targets and {len(signs)} signs for {n} vertices"
            for i, (t, s) in enumerate(zip(targets, signs), start=1):
                if s != 1 and (t != i or s != -1):
                    if t == i:
                        return f"colour {c}: loop sign {s!r} at vertex {i} is not +1 or -1"
                    return f"colour {c}: off-diagonal entry at ({i},{t}) is negative or not a unit"
                # a target outside 1..V or repeated breaks this somewhere
                if targets[t - 1] != i:
                    return f"colour {c}: not symmetric at vertex {i}"
    except (IndexError, TypeError):
        return f"colour {c}: targets {targets} are not a permutation of 1..{n}"
    return None


def permute(g: LoopSignedGraph, relabel: Sequence[int]) -> LoopSignedGraph:
    """Relabel vertices; ``relabel[i-1]`` is the new name of vertex i."""
    n = g.vertices
    if sorted(relabel) != list(range(1, n + 1)):
        raise ValueError("relabeling is not a permutation")
    perms = []
    for p in g.adjacency:
        targets = [0] * n
        signs = [1] * n
        for i in range(n):
            targets[relabel[i] - 1] = relabel[p.targets[i] - 1]
            signs[relabel[i] - 1] = p.signs[i]
        perms.append(SignedPerm(tuple(targets), tuple(signs)))
    return LoopSignedGraph(n, tuple(perms))


def components(g: LoopSignedGraph) -> tuple[tuple[int, ...], ...]:
    """Connected components of the loopless version, ordered by smallest vertex."""
    plus = [1] * g.vertices
    maps = [([t - 1 for t in p.targets], plus) for p in g.adjacency]
    root, _, _ = signed_orbits(maps, g.vertices)
    comps: dict[int, list[int]] = {}
    for v, r in enumerate(root, start=1):
        comps.setdefault(r, []).append(v)
    return tuple(map(tuple, comps.values()))


def is_connected(g: LoopSignedGraph) -> bool:
    return len(components(g)) == 1


def loopless_version(g: LoopSignedGraph) -> tuple[tuple[int, int, int], ...]:
    """Edges of the loopless multigraph as (colour, i, j) with i < j."""
    return tuple(
        (c, i, j) for c in range(1, g.colors + 1) for i, j in g.edges(c)
    )


def is_treelike(g: LoopSignedGraph) -> bool:
    """True iff the loopless version is a tree (single vertex counts)."""
    return is_connected(g) and len(loopless_version(g)) == g.vertices - 1


def is_bipartite_loopless(g: LoopSignedGraph) -> bool:
    """2-colourability of the loopless multigraph (parallel edges allowed).

    A 2-colouring is a diagonal sign matrix that normalizes every colour
    negated, since an edge of -A^c asks for opposite signs at its ends.
    """
    return diagonal_normalizer([-p for p in g.adjacency]) is not None


@dataclass(frozen=True)
class CanonicalCode:
    """Canonical byte code of an isomorphism class plus a realizing relabeling."""

    code: bytes
    relabeling: tuple[int, ...]


def _bfs_order(g: LoopSignedGraph, start: int, comp: Sequence[int] | None = None) -> list[int]:
    """Vertices of start's component in BFS discovery order, colours ascending."""
    size = g.vertices if comp is None else len(comp)
    order = [start]
    rank = {start: 0}
    head = 0
    while head < len(order) and len(order) < size:
        v = order[head]
        head += 1
        for p in g.adjacency:
            t = p.targets[v - 1]
            if t not in rank:
                rank[t] = len(order)
                order.append(t)
    return order


def _component_code(g: LoopSignedGraph, comp: Sequence[int]) -> tuple[bytes, list[int]]:
    """Minimal BFS code of one component over all start vertices."""
    best: bytes | None = None
    best_order: list[int] | None = None
    for start in comp:
        order = _bfs_order(g, start, comp)
        rank = {v: r for r, v in enumerate(order)}
        code = bytearray()
        for p in g.adjacency:
            for v in order:
                t, s = p.targets[v - 1], p.signs[v - 1]
                if t == v:
                    code.append(DIRICHLET_BYTE if s < 0 else NEUMANN_BYTE)
                else:
                    code.append(rank[t] + 1)
        bcode = bytes(code)
        if best is None or bcode < best:
            best, best_order = bcode, order
    if best is None or best_order is None:
        raise RuntimeError("no start vertex gave a canonical code")
    return best, best_order


def canonical_form(g: LoopSignedGraph) -> CanonicalCode:
    """Canonical code: per-component minimal BFS serialization.

    Components are serialized with a size prefix and concatenated in sorted
    order, so equal codes hold exactly for isomorphic graphs.  The relabeling
    maps each original vertex to its position in the canonical graph.
    """
    err = validate(g)
    if err:
        raise ValueError(err)
    comps = [(_component_code(g, comp)) for comp in components(g)]
    comps.sort(key=lambda item: (len(item[1]), item[0]))
    relabel = [0] * g.vertices
    offset = 0
    blob = bytearray()
    for code, order in comps:
        blob.append(len(order))
        blob.extend(code)
        for r, v in enumerate(order):
            relabel[v - 1] = offset + r + 1
        offset += len(order)
    return CanonicalCode(bytes(blob), tuple(relabel))


def is_canonical(g: LoopSignedGraph) -> bool:
    return canonical_form(g).relabeling == tuple(range(1, g.vertices + 1))


def is_isomorphic(g1: LoopSignedGraph, g2: LoopSignedGraph) -> tuple[int, ...] | None:
    """A vertex relabeling with ``permute(g1, pi) == g2``, or None."""
    if g1.vertices != g2.vertices or g1.colors != g2.colors:
        return None
    c1 = canonical_form(g1)
    c2 = canonical_form(g2)
    if c1.code != c2.code:
        return None
    inv2 = [0] * g2.vertices
    for v, r in enumerate(c2.relabeling, start=1):
        inv2[r - 1] = v
    pi = tuple(inv2[c1.relabeling[v] - 1] for v in range(g1.vertices))
    if permute(g1, pi) != g2:
        raise RuntimeError("equal canonical codes but the relabeling is no isomorphism")
    return pi


def subgraph(g: LoopSignedGraph, keep: Sequence[int]) -> LoopSignedGraph:
    """Induced graph on a union of components, vertices renumbered in order."""
    keep = sorted(keep)
    index = {v: i + 1 for i, v in enumerate(keep)}
    perms = []
    for p in g.adjacency:
        targets = []
        signs = []
        for v in keep:
            t = p.targets[v - 1]
            if t not in index:
                raise ValueError("kept set is not a union of components")
            targets.append(index[t])
            signs.append(p.signs[v - 1])
        perms.append(SignedPerm(tuple(targets), tuple(signs)))
    return LoopSignedGraph(len(keep), tuple(perms))


def disjoint_union(graphs: Iterable[LoopSignedGraph]) -> LoopSignedGraph:
    graphs = list(graphs)
    if not graphs:
        raise ValueError("empty union")
    colors = graphs[0].colors
    if any(g.colors != colors for g in graphs):
        raise ValueError("colour counts differ")
    total = sum(g.vertices for g in graphs)
    perms = []
    for c in range(colors):
        targets: list[int] = []
        signs: list[int] = []
        offset = 0
        for g in graphs:
            p = g.adjacency[c]
            targets.extend(t + offset for t in p.targets)
            signs.extend(p.signs)
            offset += g.vertices
        perms.append(SignedPerm(tuple(targets), tuple(signs)))
    return LoopSignedGraph(total, tuple(perms))
