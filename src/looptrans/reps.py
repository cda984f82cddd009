"""Finite groups of signed permutations, coset graphs, induced characters.

A graph's adjacency matrices generate a concrete group of signed
permutations.  Each connected component has an associated subgroup/character
pair (the stabiliser of its smallest vertex up to sign, with the sign as the
character), the component is recovered from that pair as a Schreier coset
graph, and transplantability of unions of such graphs over a common group is
equality of the summed induced characters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .algebra import (
    DEFAULT_CLOSURE_CAP,
    Code,
    SignedPerm,
    bfs_closure,
    compose_codes,
    inverse_code,
    word_product,
)
from .graph import LoopSignedGraph, components, validate


@dataclass(frozen=True)
class GroupClosure:
    """A finite group of signed permutations with a witness word per element.

    Element 0 is the identity; ``words[i]`` is a colour word whose product
    (last letter applied last) equals ``elements[i]``.
    """

    generators: tuple[SignedPerm, ...]
    elements: tuple[SignedPerm, ...]
    words: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        codes = tuple(p.encode() for p in self.elements)
        object.__setattr__(self, "_codes", codes)
        object.__setattr__(self, "_index", {c: i for i, c in enumerate(codes)})

    @property
    def order(self) -> int:
        return len(self.elements)

    def _lookup(self, code: Code) -> int:
        idx = self._index.get(code)  # type: ignore[attr-defined]
        if idx is None:
            raise KeyError("element not in group")
        return idx

    def index_of(self, p: SignedPerm) -> int:
        return self._lookup(p.encode())

    def mul(self, i: int, j: int) -> int:
        codes = self._codes  # type: ignore[attr-defined]
        return self._lookup(compose_codes(codes[i], codes[j]))

    def inv(self, i: int) -> int:
        return self._lookup(inverse_code(self._codes[i]))  # type: ignore[attr-defined]

    def conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        """Classes by orbit closure under conjugation by the generators."""
        codes = self._codes  # type: ignore[attr-defined]
        gens = [(c, inverse_code(c)) for c in (g.encode() for g in self.generators)]
        seen = [False] * self.order
        classes = []
        for start in range(self.order):
            if seen[start]:
                continue
            orbit = [start]
            seen[start] = True
            head = 0
            while head < len(orbit):
                x = orbit[head]
                head += 1
                for gen, gen_inv in gens:
                    y = self._lookup(compose_codes(compose_codes(gen, codes[x]), gen_inv))
                    if not seen[y]:
                        seen[y] = True
                        orbit.append(y)
            classes.append(tuple(sorted(orbit)))
        return tuple(classes)


def closure(
    generators: Sequence[SignedPerm], cap: int = DEFAULT_CLOSURE_CAP
) -> GroupClosure:
    """The group the generators generate, in breadth-first order."""
    if not generators:
        raise ValueError("need at least one generator")
    codes, words = zip(*bfs_closure([g.encode() for g in generators], cap))
    return GroupClosure(
        tuple(generators), tuple(SignedPerm.decode(c) for c in codes), words
    )


@dataclass(frozen=True)
class SubCharPair:
    """A subgroup given by element indices with a +-1 character."""

    subgroup: frozenset[int]
    character: Mapping[int, int]

    def check(self, group: GroupClosure) -> None:
        if 0 not in self.subgroup:
            raise ValueError("subgroup must contain the identity")
        if set(self.character) != self.subgroup:
            raise ValueError("character must be defined exactly on the subgroup")
        if any(v not in (1, -1) for v in self.character.values()):
            raise ValueError("character values must be +1 or -1")
        for a in self.subgroup:
            for b in self.subgroup:
                ab = group.mul(a, b)
                if ab not in self.subgroup:
                    raise ValueError("subgroup is not closed under multiplication")
                if self.character[ab] != self.character[a] * self.character[b]:
                    raise ValueError("character is not a homomorphism")


def cayley_graph(group: GroupClosure, generators: Sequence[SignedPerm]) -> LoopSignedGraph:
    """Vertices are the elements; colour c joins g and g * gamma^c.

    Each generator must be an involution distinct from the identity, so every
    colour is a perfect matching and the graph is loopless.
    """
    for gen in generators:
        if gen.is_identity() or not gen.is_involution():
            raise ValueError("generators must be involutions distinct from the identity")
    n = group.order
    perms = []
    for gen in generators:
        gidx = group.index_of(gen)
        targets = tuple(group.mul(i, gidx) + 1 for i in range(n))
        perms.append(SignedPerm(targets, (1,) * n))
    return LoopSignedGraph(n, tuple(perms))


class NoBipartiteSystem(ValueError):
    """No coset representative system satisfies the bipartite condition."""


def schreier_graph(
    group: GroupClosure,
    generators: Sequence[SignedPerm],
    pair: SubCharPair,
) -> LoopSignedGraph:
    """Quotient of the Cayley graph by the subgroup, loop signs from the character.

    Vertices are the right cosets Hg in BFS discovery order from H, colours
    in ascending order.  The BFS tree fixes the representatives g_i, making
    all tree edges positive; a remaining negative edge means no bipartite
    representative system exists and the construction fails.

    Identity generators are allowed here (a loops-only all-Neumann colour is
    the identity matrix); they contribute a Neumann loop at every coset.
    """
    for gen in generators:
        if not gen.is_involution():
            raise ValueError("generators must square to the identity")
    pair.check(group)
    h = pair.subgroup
    coset_of: dict[int, int] = {}
    reps: list[int] = []

    def add_coset(rep: int) -> int:
        cid = len(reps)
        reps.append(rep)
        for x in h:
            coset_of[group.mul(x, rep)] = cid
        return cid

    add_coset(0)
    gen_idx = [group.index_of(gen) for gen in generators]
    edges: list[list[tuple[int, int]]] = [[] for _ in generators]
    loops: list[dict[int, str]] = [{} for _ in generators]
    head = 0
    while head < len(reps):
        i = head
        head += 1
        gi = reps[i]
        for c, gidx in enumerate(gen_idx):
            target = group.mul(gi, gidx)
            j = coset_of.get(target)
            if j is None:
                # tree edge; rep of the new coset is g_i * gamma, so its sign is R(e) = 1
                j = add_coset(target)
                edges[c].append((i + 1, j + 1))
            elif j == i:
                elem = group.mul(target, group.inv(gi))
                loops[c][i + 1] = "N" if pair.character[elem] > 0 else "D"
            elif j > i:
                elem = group.mul(target, group.inv(reps[j]))
                if pair.character[elem] < 0:
                    raise NoBipartiteSystem(
                        "no bipartite representative system for this pair"
                    )
                edges[c].append((i + 1, j + 1))
            # j < i: recorded and checked from j's side (the character takes
            # the same value on an element and its inverse)
    colors = [(edges[c], loops[c]) for c in range(len(generators))]
    g = LoopSignedGraph.build(len(reps), colors)
    err = validate(g)
    if err is not None:
        raise RuntimeError(err)
    return g


def associated_pairs(
    g: LoopSignedGraph, cap: int = DEFAULT_CLOSURE_CAP
) -> tuple[GroupClosure, tuple[SubCharPair, ...]]:
    """The group generated by the adjacency matrices and one pair per component.

    For a component with smallest vertex v, the subgroup keeps the elements
    fixing v up to sign and the character reads off that sign.
    """
    err = validate(g)
    if err:
        raise ValueError(err)
    grp = closure([g.color(c) for c in range(1, g.colors + 1)], cap)
    pairs = []
    for comp in components(g):
        v = comp[0]
        sub = set()
        char = {}
        for i, elem in enumerate(grp.elements):
            if elem.targets[v - 1] == v:
                sub.add(i)
                char[i] = elem.signs[v - 1]
        pairs.append(SubCharPair(frozenset(sub), char))
    return grp, tuple(pairs)


def induced_character(group: GroupClosure, pair: SubCharPair) -> dict[int, int]:
    """Character of the induced representation as a class function.

    Keys are the smallest element indices of the conjugacy classes; the value
    at a class [p] is (1/|H|) sum over g with g p g^-1 in H of R(g p g^-1).
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


def characters_equal(
    group: GroupClosure,
    pairs1: Sequence[SubCharPair],
    pairs2: Sequence[SubCharPair],
) -> bool:
    """Compare the summed induced characters of two families class-wise."""

    def total(pairs: Sequence[SubCharPair]) -> dict[int, int]:
        acc: dict[int, int] = {}
        for pair in pairs:
            for key, val in induced_character(group, pair).items():
                acc[key] = acc.get(key, 0) + val
        return acc

    return total(pairs1) == total(pairs2)


def gassmann_check(
    group: GroupClosure, h1: frozenset[int], h2: frozenset[int]
) -> bool:
    """Equal conjugacy-class intersections: the classical almost-conjugacy test."""
    for h in (h1, h2):
        SubCharPair(h, dict.fromkeys(h, 1)).check(group)
    for cls in group.conjugacy_classes():
        members = set(cls)
        if len(members & h1) != len(members & h2):
            return False
    return True


def pair_from_words(
    group: GroupClosure,
    words: Sequence[Sequence[int]],
    values: Sequence[int],
) -> SubCharPair:
    """Build a subgroup/character pair from witness words and +-1 values."""
    if len(words) != len(values):
        raise ValueError("need one character value per word")
    index = [group.index_of(word_product(group.generators, w)) for w in words]
    sub = frozenset(index)
    char = dict(zip(index, values))
    pair = SubCharPair(sub, char)
    pair.check(group)
    return pair
