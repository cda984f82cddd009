"""Write the candidate pairs of the ``decide`` workload to data/candidates.json.

A candidate pair is two canonical classes of connected three-colour mixed
graphs that share a trace-hash bucket.  The file holds every such pair at
V=6 (1,035 pairs) and V=7 (160 pairs), in the order
``candidate_pairs_packed`` lists them.  Each graph is one row per colour:
entry i is the target of vertex i+1, negated for a Dirichlet loop.  Each V=6
pair also records ``order``, the order of the group generated by the first
graph's colour matrices: the group route's cost grows with it, so the
benchmark stratifies its seeded sample of V=6 pairs on it.

Run from the repository root (about two minutes on one core):

    python3 perfbench/make_pairs.py
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from looptrans.enumeration import candidate_pairs_packed, enumerate_packed  # noqa: E402
from looptrans.reps import closure  # noqa: E402

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "candidates.json")
COLORS = 3
EXPECTED = {6: 1035, 7: 160}


def encode(packed, i: int) -> list[list[int]]:
    return [
        [int(t) * int(s) for t, s in zip(packed.targets[i, c], packed.signs[i, c])]
        for c in range(packed.colors)
    ]


def main() -> int:
    pairs = []
    for v in sorted(EXPECTED):
        packed = enumerate_packed(v, COLORS, "mixed")
        found = candidate_pairs_packed(packed)
        if len(found) != EXPECTED[v]:
            print(f"V={v}: {len(found)} candidate pairs, expected {EXPECTED[v]}", file=sys.stderr)
            return 1
        for i, j in found:
            pair = {"v": v, "a": encode(packed, i), "b": encode(packed, j)}
            if v == 6:
                g = packed.graph(i)
                pair["order"] = closure([g.color(c) for c in range(1, COLORS + 1)]).order
            pairs.append(pair)
    with open(OUT, "w") as f:
        json.dump({"colors": COLORS, "pairs": pairs}, f, separators=(",", ":"))
        f.write("\n")
    print(f"wrote {len(pairs)} pairs to {os.path.relpath(OUT, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
