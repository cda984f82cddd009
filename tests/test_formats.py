import json

import pytest

from looptrans.enumeration import enumerate_classes
from looptrans.formats import (
    GraphFormatError,
    dumps_cycles,
    dumps_json,
    dumps_witness,
    export_dot,
    parse_graph,
    parse_witness,
)
from looptrans.algebra import RatMatrix
from looptrans.cli import main
from fractions import Fraction


def test_json_roundtrip_fixtures(gww, square_triangle, band15):
    for entry in (gww, square_triangle, band15):
        for g in entry.graphs:
            assert parse_graph(dumps_json(g)) == g


def test_cycles_roundtrip_fixtures(gww, band15):
    for entry in (gww, band15):
        for g in entry.graphs:
            assert parse_graph(dumps_cycles(g)) == g


def test_roundtrip_enumerated_classes():
    for g in enumerate_classes(3, 3, "mixed"):
        assert parse_graph(dumps_json(g)) == g
        assert parse_graph(dumps_cycles(g)) == g


def test_cycle_format_example(band15):
    text = dumps_cycles(band15.graphs[0])
    first = text.splitlines()[0]
    assert first == "c1: (1,8)(3,10)(5,12)(7,14) loops: 2N 4N 6N 9N 11N 13N 15N"


def test_parse_rejects_malformed():
    with pytest.raises(GraphFormatError):
        parse_graph("")
    with pytest.raises(GraphFormatError):
        parse_graph("{not json")
    with pytest.raises(GraphFormatError):
        parse_graph(json.dumps({"version": 2}))
    # vertex appearing twice in a colour
    doc = {
        "version": 1,
        "vertices": 2,
        "colors": 1,
        "adjacency": [{"color": 1, "edges": [[1, 2]], "loops": {"1": "D"}}],
    }
    with pytest.raises(GraphFormatError):
        parse_graph(json.dumps(doc))
    # uncovered vertex
    doc["adjacency"] = [{"color": 1, "edges": [], "loops": {"1": "D"}}]
    with pytest.raises(GraphFormatError):
        parse_graph(json.dumps(doc))
    # bad loop sign
    doc["adjacency"] = [{"color": 1, "edges": [], "loops": {"1": "X", "2": "N"}}]
    with pytest.raises(GraphFormatError):
        parse_graph(json.dumps(doc))
    with pytest.raises(GraphFormatError):
        parse_graph("c1: (1,2) junk\n")
    # mistyped colour fields
    for field, value in (("loops", []), ("loops", None), ("edges", 5), ("edges", {"1": 2})):
        entry = {"color": 1, "edges": [[1, 2]], "loops": {}}
        entry[field] = value
        doc["adjacency"] = [entry]
        with pytest.raises(GraphFormatError, match=field):
            parse_graph(json.dumps(doc))


# one document per integer field, with a JSON true where the integer is 1
_BOOLEAN_FIELDS = {
    "version": '{"version": true, "vertices": 2, "colors": 1,'
    ' "adjacency": [{"color": 1, "edges": [[1, 2]]}]}',
    "vertices": '{"version": 1, "vertices": true, "colors": 1,'
    ' "adjacency": [{"color": 1, "loops": {"1": "N"}}]}',
    "colors": '{"version": 1, "vertices": 2, "colors": true,'
    ' "adjacency": [{"color": 1, "edges": [[1, 2]]}]}',
    "color": '{"version": 1, "vertices": 2, "colors": 1,'
    ' "adjacency": [{"color": true, "edges": [[1, 2]]}]}',
    "edge": '{"version": 1, "vertices": 2, "colors": 1,'
    ' "adjacency": [{"color": 1, "edges": [[true, 2]]}]}',
}


@pytest.mark.parametrize("field", sorted(_BOOLEAN_FIELDS))
def test_parse_rejects_json_booleans(field):
    text = _BOOLEAN_FIELDS[field]
    parse_graph(text.replace("true", "1"))  # the same document with 1 parses
    with pytest.raises(GraphFormatError, match=field):
        parse_graph(text)


def test_witness_roundtrip(gww):
    blob = dumps_witness(gww.witness)
    assert parse_witness(blob) == gww.witness
    m = RatMatrix.from_rows([[Fraction(1, 2), -1], [3, Fraction(-2, 7)]])
    assert parse_witness(dumps_witness(m)) == m
    assert '"1/2"' in dumps_witness(m)


def test_witness_rejects_malformed():
    with pytest.raises(GraphFormatError):
        parse_witness("{}")
    with pytest.raises(GraphFormatError):
        parse_witness("[[1, 2], [3]]")
    with pytest.raises(GraphFormatError):
        parse_witness('[["1/0x"]]')
    for zero in ("1/0", "-3/00"):
        with pytest.raises(GraphFormatError, match="bad rational"):
            parse_witness(f'[["{zero}"]]')
    assert parse_witness('[["3/010"]]') == RatMatrix.from_rows([[Fraction(3, 10)]])


def test_witness_roundtrip_keeps_ints():
    rows = [[1, 0, -2], [Fraction(1, 2), Fraction(4, 2), Fraction(-2, 7)]]
    m = RatMatrix.from_rows(rows)
    blob = dumps_witness(m)
    assert blob == '[[1, 0, -2], ["1/2", 2, "-2/7"]]\n'
    # the same text as a matrix of Fraction entries dumps to
    assert blob == dumps_witness(RatMatrix(tuple(tuple(map(Fraction, r)) for r in rows)))
    back = parse_witness(blob)
    assert back == m
    assert [type(x) for r in back.entries for x in r] == [int] * 3 + [Fraction, int, Fraction]
    assert parse_witness('[["4/2", "-0/3"]]').entries == ((2, 0),)


def test_export_dot_counts(gww):
    out = export_dot(gww.graphs[0])
    assert out == export_dot(gww.graphs[0])  # byte-identical
    lines = out.splitlines()
    node_lines = [l for l in lines if l.strip().endswith(";") and "--" not in l]
    edge_lines = [l for l in lines if "--" in l and "label=" not in l]
    loop_lines = [l for l in lines if 'label="D"' in l or 'label="N"' in l]
    assert len(node_lines) == 7
    assert len(edge_lines) == 6
    assert len(loop_lines) == 9


def test_export_dot_single_loop():
    from looptrans.graph import LoopSignedGraph

    g = LoopSignedGraph.build(1, [([], {1: "N"})])
    out = export_dot(g)
    assert "1 -- 1" in out and 'label="N"' in out


def _loops_json(loops: str) -> str:
    return (
        '{"version": 1, "vertices": 3, "colors": 1, "adjacency": '
        '[{"color": 1, "edges": [[1, 2]], "loops": ' + loops + "}]}"
    )


@pytest.mark.parametrize(
    "text",
    [
        "c1: (1,2) loops: 3D 3N\n",
        "c1: (1,2) loops: 3D 03N\n",
        _loops_json('{"3": "D", "3": "N"}'),
        _loops_json('{"3": "D", "03": "N"}'),
    ],
)
def test_loop_listed_twice_refused(text, tmp_path, capsys):
    with pytest.raises(GraphFormatError, match="3"):
        parse_graph(text)
    path = tmp_path / "dup.txt"
    path.write_text(text)
    assert main(["check", str(path), str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and err.count("\n") == 1


def test_loop_listed_twice_names_colour_and_vertex():
    for text in ("c1: (1,2) loops: 3D 03N\n", _loops_json('{"3": "D", "03": "N"}')):
        with pytest.raises(GraphFormatError, match="colour 1: loop at vertex 3 listed twice"):
            parse_graph(text)


def test_json_key_given_twice_refused():
    text = _loops_json('{"3": "D"}').replace('"vertices": 3,', '"vertices": 3, "vertices": 3,')
    with pytest.raises(GraphFormatError, match="'vertices' given twice"):
        parse_graph(text)


def test_single_loop_still_parses():
    for text in ("c1: (1,2) loops: 3D\n", _loops_json('{"3": "D"}')):
        assert parse_graph(text).loops(1) == {3: "D"}
