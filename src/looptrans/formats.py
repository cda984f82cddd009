"""Graph and witness file formats.

Two interchangeable graph formats are accepted everywhere:

* JSON (the default output)::

    {"version": 1, "vertices": 7, "colors": 3,
     "adjacency": [{"color": 1, "edges": [[1,2],[4,5]],
                    "loops": {"3": "D", "6": "N", "7": "D"}}, ...]}

* cycle text, one line per colour::

    c1: (1,8)(3,10)(5,12)(7,14) loops: 2N 4N 6N 9N 11N 13N 15N

Witness matrices serialize as JSON arrays of arrays whose entries are
integers or exact rationals written as "p/q" strings.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .algebra import RatMatrix
from .graph import MAX_VERTICES, LoopSignedGraph, validate


class GraphFormatError(ValueError):
    """Malformed graph or witness file."""


def dumps_json(g: LoopSignedGraph) -> str:
    doc = {
        "version": 1,
        "vertices": g.vertices,
        "colors": g.colors,
        "adjacency": [
            {
                "color": c,
                "edges": [list(e) for e in g.edges(c)],
                "loops": {str(v): s for v, s in sorted(g.loops(c).items())},
            }
            for c in range(1, g.colors + 1)
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def _parse_json(doc: object) -> LoopSignedGraph:
    if not isinstance(doc, dict):
        raise GraphFormatError("top level must be a JSON object")
    # type() rather than isinstance(): a JSON true is a bool, an int subclass
    version = doc.get("version")
    if type(version) is not int or version != 1:
        raise GraphFormatError("field 'version': expected 1")
    vertices = doc.get("vertices")
    colors = doc.get("colors")
    if type(vertices) is not int or vertices < 1:
        raise GraphFormatError("field 'vertices': expected a positive integer")
    if type(colors) is not int or colors < 1:
        raise GraphFormatError("field 'colors': expected a positive integer")
    adjacency = doc.get("adjacency")
    if not isinstance(adjacency, list) or len(adjacency) != colors:
        raise GraphFormatError("field 'adjacency': expected one entry per colour")
    specs: dict[int, tuple[list[tuple[int, int]], dict[int, str]]] = {}
    for entry in adjacency:
        if not isinstance(entry, dict):
            raise GraphFormatError("adjacency entries must be objects")
        c = entry.get("color")
        if type(c) is not int or not 1 <= c <= colors:
            raise GraphFormatError(f"adjacency entry: bad 'color' {c!r}")
        if c in specs:
            raise GraphFormatError(f"colour {c} listed twice")
        edge_list, loop_map = entry.get("edges", []), entry.get("loops", {})
        if not isinstance(edge_list, list):
            raise GraphFormatError(f"colour {c}: 'edges' must be an array")
        if not isinstance(loop_map, dict):
            raise GraphFormatError(f"colour {c}: 'loops' must be an object")
        edges = []
        for e in edge_list:
            if not (isinstance(e, list) and len(e) == 2 and all(type(v) is int for v in e)):
                raise GraphFormatError(f"colour {c}: edge {e!r} must be a pair of integers")
            edges.append((e[0], e[1]))
        loops = {}
        for key, sign in loop_map.items():
            if not re.fullmatch(r"\d+", key):
                raise GraphFormatError(f"colour {c}: loop key {key!r} must be a vertex number")
            if sign not in ("D", "N"):
                raise GraphFormatError(f"colour {c}: loop sign {sign!r} must be 'D' or 'N'")
            _add_loop(loops, c, int(key), sign)
        specs[c] = (edges, loops)
    return _build(vertices, [specs[c] for c in range(1, colors + 1)])


def _add_loop(loops: dict[int, str], c: int, v: int, sign: str) -> None:
    if v in loops:
        raise GraphFormatError(f"colour {c}: loop at vertex {v} listed twice")
    loops[v] = sign


def _unique_keys(pairs: list[tuple[str, object]]) -> dict[str, object]:
    """A JSON object, refused when one key is given twice: json.loads would
    keep the last value without a word."""
    doc: dict[str, object] = {}
    for key, value in pairs:
        if key in doc:
            raise GraphFormatError(f"key {key!r} given twice in one object")
        doc[key] = value
    return doc


def _build(
    vertices: int, specs: list[tuple[list[tuple[int, int]], dict[int, str]]]
) -> LoopSignedGraph:
    """The graph, refused past ``MAX_VERTICES`` before it is built, and validated."""
    if vertices > MAX_VERTICES:
        raise GraphFormatError(f"at most {MAX_VERTICES} vertices supported")
    try:
        g = LoopSignedGraph.build(vertices, specs)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from exc
    err = validate(g)
    if err:
        raise GraphFormatError(err)
    return g


_CYCLE_LINE = re.compile(r"^c(\d+)\s*:\s*(.*)$")
_PAIR = re.compile(r"\((\d+)\s*,\s*(\d+)\)")
_LOOP = re.compile(r"(\d+)\s*([DN])")


def dumps_cycles(g: LoopSignedGraph) -> str:
    lines = []
    for c in range(1, g.colors + 1):
        edges = "".join(f"({i},{j})" for i, j in g.edges(c))
        loops = " ".join(f"{v}{s}" for v, s in sorted(g.loops(c).items()))
        line = f"c{c}: {edges}"
        if loops:
            line += f" loops: {loops}"
        lines.append(line.rstrip())
    return "\n".join(lines) + "\n"


def _parse_cycles(text: str) -> LoopSignedGraph:
    per_colour: dict[int, tuple[list[tuple[int, int]], dict[int, str]]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _CYCLE_LINE.match(line)
        if not m:
            raise GraphFormatError(f"line {lineno}: expected 'cK: (i,j)... loops: vS ...'")
        c = int(m.group(1))
        if c in per_colour:
            raise GraphFormatError(f"line {lineno}: colour {c} listed twice")
        body = m.group(2)
        edge_part, _, loop_part = body.partition("loops:")
        edges = [(int(a), int(b)) for a, b in _PAIR.findall(edge_part)]
        stripped = _PAIR.sub("", edge_part).strip()
        if stripped:
            raise GraphFormatError(f"line {lineno}: unparsed edge text {stripped!r}")
        loops = {}
        for v, s in _LOOP.findall(loop_part):
            _add_loop(loops, c, int(v), s)
        leftover = _LOOP.sub("", loop_part).strip()
        if leftover:
            raise GraphFormatError(f"line {lineno}: unparsed loop text {leftover!r}")
        per_colour[c] = (edges, loops)
    if not per_colour:
        raise GraphFormatError("no colour lines found")
    colors = max(per_colour)
    if min(per_colour) < 1 or len(per_colour) != colors:
        raise GraphFormatError(f"colour lines must cover 1..{colors}")
    vertices = 0
    for edges, loops in per_colour.values():
        for i, j in edges:
            vertices = max(vertices, i, j)
        for v in loops:
            vertices = max(vertices, v)
    return _build(vertices, [per_colour[c] for c in range(1, colors + 1)])


def parse_graph(text: str) -> LoopSignedGraph:
    """Parse either format, detected from the first non-space character."""
    stripped = text.lstrip()
    if not stripped:
        raise GraphFormatError("empty input")
    if stripped[0] == "{":
        try:
            doc = json.loads(text, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise GraphFormatError(f"invalid JSON: {exc}") from exc
        return _parse_json(doc)
    return _parse_cycles(text)


def dumps_witness(m: RatMatrix) -> str:
    def enc(x: Fraction) -> int | str:
        return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"

    return json.dumps([[enc(x) for x in row] for row in m.entries]) + "\n"


def parse_witness(text: str) -> RatMatrix:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, list) or not doc or not all(isinstance(r, list) for r in doc):
        raise GraphFormatError("witness must be a non-empty array of arrays")
    rows = []
    for r, row in enumerate(doc):
        out = []
        for cix, x in enumerate(row):
            if isinstance(x, bool) or not isinstance(x, (int, str)):
                raise GraphFormatError(f"entry ({r+1},{cix+1}): expected integer or 'p/q'")
            if isinstance(x, str) and not re.fullmatch(r"-?\d+/0*[1-9]\d*", x):
                raise GraphFormatError(f"entry ({r+1},{cix+1}): bad rational {x!r}")
            out.append(Fraction(x) if isinstance(x, str) else x)
        rows.append(out)
    if any(len(r) != len(rows[0]) for r in rows):
        raise GraphFormatError("witness rows have unequal lengths")
    return RatMatrix.from_rows(rows)


def export_dot(g: LoopSignedGraph) -> str:
    """Deterministic DOT rendering: colour 1 solid, 2 dashed, 3 dotted."""
    styles = {1: "solid", 2: "dashed", 3: "dotted"}
    lines = ["graph G {"]
    for v in range(1, g.vertices + 1):
        lines.append(f"  {v};")
    for c in range(1, g.colors + 1):
        for i, j in g.edges(c):
            if c in styles:
                lines.append(f"  {i} -- {j} [style={styles[c]}];")
            else:
                lines.append(f'  {i} -- {j} [label="c{c}"];')
        for v, s in sorted(g.loops(c).items()):
            if c in styles:
                lines.append(f'  {v} -- {v} [style={styles[c]}, label="{s}"];')
            else:
                lines.append(f'  {v} -- {v} [label="c{c}:{s}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
