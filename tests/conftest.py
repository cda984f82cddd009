from __future__ import annotations

import random

import pytest

from looptrans.algebra import DEFAULT_CLOSURE_CAP, SignedPerm, bfs_closure
from looptrans.catalog import catalog
from looptrans.graph import LoopSignedGraph
from looptrans.transplant import _pair_generators


@pytest.fixture(scope="session")
def gww():
    return catalog("gww")


@pytest.fixture(scope="session")
def square_triangle():
    return catalog("square-triangle")


@pytest.fixture(scope="session")
def band15():
    return catalog("band15")


def random_signed_perm(rng: random.Random, n: int) -> SignedPerm:
    targets = list(range(1, n + 1))
    rng.shuffle(targets)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    return SignedPerm(tuple(targets), tuple(signs))


def random_symmetric_involution(rng: random.Random, n: int) -> SignedPerm:
    """A uniform-ish random adjacency colour: matching plus signed loops."""
    vertices = list(range(1, n + 1))
    rng.shuffle(vertices)
    targets = [0] * n
    signs = [1] * n
    while vertices:
        v = vertices.pop()
        if vertices and rng.random() < 0.6:
            w = vertices.pop()
            targets[v - 1], targets[w - 1] = w, v
        else:
            targets[v - 1] = v
            signs[v - 1] = rng.choice((1, -1))
    return SignedPerm(tuple(targets), tuple(signs))


def random_graph(rng: random.Random, vertices: int, colors: int) -> LoopSignedGraph:
    return LoopSignedGraph(
        vertices,
        tuple(random_symmetric_involution(rng, vertices) for _ in range(colors)),
    )


def pair_closure(g1: LoopSignedGraph, g2: LoopSignedGraph, cap: int = DEFAULT_CLOSURE_CAP):
    """The pair closure's ``(A, B)`` elements and their words, read from
    ``bfs_closure`` on the diagonal generators (B on points n+1 .. 2n)."""
    n = g1.vertices
    elements, words = [], []
    for code, word in bfs_closure(_pair_generators(g1, g2), cap):
        b = tuple(x - n if x > 0 else x + n for x in code[n:])
        elements.append((SignedPerm.decode(code[:n]), SignedPerm.decode(b)))
        words.append(word)
    return elements, words
