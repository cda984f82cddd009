"""Finite groups of signed permutations, coset graphs, induced characters.

A graph's adjacency matrices generate a concrete group of signed
permutations.  Each connected component has an associated subgroup/character
pair (the stabiliser of its smallest vertex up to sign, with the sign as the
character), the component is recovered from that pair as a Schreier coset
graph, and transplantability of unions of such graphs over a common group is
equality of the summed induced characters.

Both the Schreier graph and the induced character read one coset table: the
right cosets Hg in BFS order under right multiplication by generators.  The
induced character at x sums R(g_i x g_i^-1) over the cosets H g_i that x
fixes, |G:H| products per class.  Conjugacy classes are the orbits of
``algebra.signed_orbits`` under conjugation by the generators, cached on the
closure, and a pair's validity check is remembered per group.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

from .algebra import (
    DEFAULT_CLOSURE_CAP,
    Code,
    SignedPerm,
    bfs_closure,
    compose_codes,
    inverse_code,
    signed_orbits,
    word_product,
)
from .graph import LoopSignedGraph, components, validate


@dataclass(frozen=True)
class GroupClosure:
    """A finite group of signed permutations with a witness word per element.

    Elements are the :meth:`SignedPerm.encode` codes of ``bfs_closure``;
    ``elements`` decodes them on request.  Element 0 is the identity;
    ``words[i]`` is a colour word whose product (last letter applied last)
    equals element i.
    """

    generators: tuple[SignedPerm, ...]
    codes: tuple[Code, ...]
    words: tuple[tuple[int, ...], ...]

    @cached_property
    def elements(self) -> tuple[SignedPerm, ...]:
        return tuple(map(SignedPerm.decode, self.codes))

    @cached_property
    def _index(self) -> dict[Code, int]:
        return {c: i for i, c in enumerate(self.codes)}

    @property
    def order(self) -> int:
        return len(self.codes)

    def _lookup(self, code: Code) -> int:
        idx = self._index.get(code)
        if idx is None:
            raise KeyError("element not in group")
        return idx

    def index_of(self, p: SignedPerm) -> int:
        return self._lookup(p.encode())

    def mul(self, i: int, j: int) -> int:
        return self._lookup(compose_codes(self.codes[i], self.codes[j]))

    def inv(self, i: int) -> int:
        return self._lookup(inverse_code(self.codes[i]))

    def conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        """Classes as the orbits of conjugation by the generators.

        :func:`~looptrans.algebra.signed_orbits` searches them, with one
        conjugation image list per generator.  Computed on the first call and
        cached on the closure.
        """
        return self._classes

    @cached_property
    def _classes(self) -> tuple[tuple[int, ...], ...]:
        codes = self.codes
        plus = [1] * self.order
        maps = []
        for gen in (g.encode() for g in self.generators):
            gen_inv = inverse_code(gen)
            image = [self._lookup(compose_codes(compose_codes(gen, x), gen_inv)) for x in codes]
            maps.append((image, plus))
        root, _, _ = signed_orbits(maps, self.order)
        classes: dict[int, list[int]] = {}
        for x, r in enumerate(root):
            classes.setdefault(r, []).append(x)
        return tuple(map(tuple, classes.values()))


def closure(
    generators: Sequence[SignedPerm], cap: int = DEFAULT_CLOSURE_CAP
) -> GroupClosure:
    """The group the generators generate, in breadth-first order."""
    if not generators:
        raise ValueError("need at least one generator")
    codes, words = zip(*bfs_closure([g.encode() for g in generators], cap))
    return GroupClosure(tuple(generators), codes, words)


@dataclass(frozen=True)
class SubCharPair:
    """A subgroup given by element indices with a +-1 character."""

    subgroup: frozenset[int]
    character: Mapping[int, int]

    def check(self, group: GroupClosure) -> None:
        """Raise ``ValueError`` unless this is a subgroup with a +-1 homomorphism.

        The products checked are a * s for every element a and every s of a
        generating set S picked greedily from the subgroup, |H| log|H|
        products in all.  That suffices: every element is a word in S, so
        H * S within H gives closure and R(a s) = R(a) R(s) gives the
        homomorphism.  A success is remembered for this group object and this
        character; a failure is not.
        """
        memo = self.__dict__.get("_checked")
        if memo is not None and memo[0] is group and memo[1] == self.character:
            return
        h, char = self.subgroup, self.character
        if 0 not in h:
            raise ValueError("subgroup must contain the identity")
        if set(char) != h:
            raise ValueError("character must be defined exactly on the subgroup")
        if any(v not in (1, -1) for v in char.values()):
            raise ValueError("character values must be +1 or -1")
        if char[0] != 1:
            raise ValueError("character is not a homomorphism")
        gens: list[int] = []
        reached = [0]
        seen = {0}
        for cand in sorted(h):
            if cand in seen:
                continue
            gens.append(cand)
            # earlier elements still need the new generator, new ones need all
            old = len(reached)
            head = 0
            while head < len(reached):
                a = reached[head]
                todo = gens[-1:] if head < old else gens
                head += 1
                for s in todo:
                    b = group.mul(a, s)
                    if b not in h:
                        raise ValueError("subgroup is not closed under multiplication")
                    if char[b] != char[a] * char[s]:
                        raise ValueError("character is not a homomorphism")
                    if b not in seen:
                        seen.add(b)
                        reached.append(b)
        object.__setattr__(self, "_checked", (group, dict(char)))


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


def _coset_table(
    group: GroupClosure, generator_indices: Sequence[int], subgroup: frozenset[int]
) -> tuple[list[int], dict[int, int]]:
    """Right cosets Hg in BFS discovery order from H under the generators.

    Returns the representatives ``reps`` (``reps[0]`` is the identity, every
    later one the product ``g_i * gamma`` that first reached its coset) and
    ``coset_of``, the coset index of every element reached.
    """
    reps = [0]
    coset_of = dict.fromkeys(subgroup, 0)
    head = 0
    while head < len(reps):
        gi = reps[head]
        head += 1
        for gidx in generator_indices:
            target = group.mul(gi, gidx)
            if target not in coset_of:
                cid = len(reps)
                reps.append(target)
                for x in subgroup:
                    coset_of[group.mul(x, target)] = cid
    return reps, coset_of


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
    gen_idx = [group.index_of(gen) for gen in generators]
    reps, coset_of = _coset_table(group, gen_idx, pair.subgroup)
    edges: list[list[tuple[int, int]]] = [[] for _ in generators]
    loops: list[dict[int, str]] = [{} for _ in generators]
    for i, gi in enumerate(reps):
        for c, gidx in enumerate(gen_idx):
            target = group.mul(gi, gidx)
            j = coset_of[target]
            if j == i:
                elem = group.mul(target, group.inv(gi))
                loops[c][i + 1] = "N" if pair.character[elem] > 0 else "D"
            elif j > i:
                # a tree edge reaches the new coset's own representative, so
                # its sign R(e) = 1 needs no product
                if target != reps[j]:
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
        char = {}
        for i, code in enumerate(grp.codes):
            x = code[v - 1]
            if x == v or x == -v:
                char[i] = 1 if x > 0 else -1
        pairs.append(SubCharPair(frozenset(char), char))
    return grp, tuple(pairs)


def induced_character(group: GroupClosure, pair: SubCharPair) -> dict[int, int]:
    """Character of the induced representation as a class function.

    Keys are the smallest element indices of the conjugacy classes.  With the
    right coset representatives g_i of the coset table, the value at a class
    [x] is the sum of R(g_i x g_i^-1) over the cosets H g_i that x fixes
    (H g_i x = H g_i).  R is a homomorphism into +-1, so the summand is
    constant on a coset and this equals the Frobenius formula
    (1/|H|) sum over g in G with g x g^-1 in H of R(g x g^-1), at |G:H|
    products per class.
    """
    pair.check(group)
    h = pair.subgroup
    gens = [group.index_of(g) for g in group.generators]
    reps, coset_of = _coset_table(group, gens, h)
    if len(reps) * len(h) != group.order:
        raise RuntimeError("the cosets of the subgroup do not cover the group")
    inv_reps = [group.inv(r) for r in reps]
    char = pair.character
    out = {}
    for cls in group.conjugacy_classes():
        x = cls[0]
        total = 0
        for i, gi in enumerate(reps):
            y = group.mul(gi, x)
            if coset_of[y] == i:
                total += char[group.mul(y, inv_reps[i])]
        out[x] = total
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
