import functools
import json
import tracemalloc
from pathlib import Path

import pytest

from looptrans import algebra, cli, enumeration
from looptrans.cli import main
from looptrans.catalog import catalog
from looptrans.formats import (
    GraphFormatError,
    dumps_cycles,
    dumps_json,
    parse_graph,
    parse_witness,
)
from looptrans.graph import LoopSignedGraph
from looptrans.transform import add_colour, braid, copy_colour, omit_colour, swap_loop_signs
from looptrans.transplant import decide, verify_witness


@pytest.fixture()
def gww_files(tmp_path):
    entry = catalog("gww")
    a = tmp_path / "gww_a.json"
    b = tmp_path / "gww_b.json"
    a.write_text(dumps_json(entry.graphs[0]))
    b.write_text(dumps_json(entry.graphs[1]))
    return a, b


def test_check_writes_verifying_witness(gww_files, tmp_path, capsys):
    a, b = gww_files
    out = tmp_path / "w.json"
    code = main(["check", str(a), str(b), "--witness", str(out)])
    assert code == 0
    assert "transplantable: yes" in capsys.readouterr().out
    witness = parse_witness(out.read_text())
    entry = catalog("gww")
    assert verify_witness(entry.graphs[0], entry.graphs[1], witness)


def test_check_self_is_yes(gww_files, capsys):
    a, _ = gww_files
    assert main(["check", str(a), str(a)]) == 0


def test_check_negative_exit_code(tmp_path, capsys):
    d = tmp_path / "d.json"
    n = tmp_path / "n.json"
    d.write_text('{"version":1,"vertices":1,"colors":1,"adjacency":[{"color":1,"edges":[],"loops":{"1":"D"}}]}')
    n.write_text('{"version":1,"vertices":1,"colors":1,"adjacency":[{"color":1,"edges":[],"loops":{"1":"N"}}]}')
    assert main(["check", str(d), str(n)]) == 1
    out = capsys.readouterr().out
    assert "transplantable: no" in out
    assert "certificate" in out


def test_check_group_method(gww_files):
    a, b = gww_files
    assert main(["check", str(a), str(b), "--method", "group"]) == 0


def test_closure_cap_exit_code(gww_files, monkeypatch, capsys):
    a, b = gww_files
    monkeypatch.setattr(cli, "decide", functools.partial(decide, cap=100))
    assert main(["check", str(a), str(b), "--method", "group"]) == 2
    assert "cap" in capsys.readouterr().err


def test_closure_memory_bound_exit_code(gww_files, monkeypatch, capsys):
    # 28 entries per pair-closure element and 14 per group element on gww's
    # 7 points; the group has 336 elements
    a, b = gww_files
    monkeypatch.setattr(algebra, "MAX_CLOSURE_ENTRIES", 28 * 100)
    assert main(["check", str(a), str(b), "--method", "group"]) == 2
    assert "exceeded 100 elements" in capsys.readouterr().err
    schreier = ["schreier", "--generators", str(a), "--subgroup", "e", "--character", "+"]
    assert main(schreier) == 2
    assert "exceeded 200 elements" in capsys.readouterr().err


def test_check_method_auto_exit_code(gww_files, capsys):
    a, b = gww_files
    with pytest.raises(SystemExit) as exc:
        main(["check", str(a), str(b), "--method", "auto"])
    assert exc.value.code == 2
    assert "invalid choice: 'auto'" in capsys.readouterr().err


def test_malformed_input_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"version": 3}')
    assert main(["check", str(bad), str(bad)]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("field,value", [("loops", []), ("edges", 5)])
def test_mistyped_colour_field_exit_code(field, value, tmp_path, capsys):
    entry = {"color": 1, "edges": [[1, 2]], "loops": {}}
    entry[field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"version": 1, "vertices": 2, "colors": 1, "adjacency": [entry]}))
    assert main(["check", str(bad), str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("doc", [
    {"version": 1, "vertices": 2, "colors": 1, "adjacency": [{"color": 1, "edges": [[True, 2]]}]},
    {"version": 1, "vertices": True, "colors": 1, "adjacency": [{"color": 1, "loops": {"1": "N"}}]},
])
def test_json_boolean_exit_code(doc, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["check", str(bad), str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("text", [
    json.dumps({"version": 1, "vertices": 10**6, "colors": 1,
                "adjacency": [{"color": 1, "edges": [[1, 2]], "loops": {}}]}),
    "c1: (1,2) loops: 1000000D\n",
])
def test_huge_vertex_count_refused_before_build(text, tmp_path, monkeypatch, capsys):
    def build(*args, **kwargs):
        raise AssertionError("build called for a graph past the vertex limit")

    monkeypatch.setattr(LoopSignedGraph, "build", staticmethod(build))
    bad = tmp_path / "huge.txt"
    bad.write_text(text)
    assert main(["check", str(bad), str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err) < 200


def test_huge_colour_number_refused_without_listing_colours():
    # the colour lines are checked against their count, not against a list
    # of every colour number up to the largest
    tracemalloc.start()
    try:
        with pytest.raises(GraphFormatError, match="cover 1..1000000"):
            parse_graph("c1000000: (1,2)\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6
    for text in ("c0: (1,2)\nc1: (1,2)\n", "c1: (1,2)\nc3: (1,2)\n"):
        with pytest.raises(GraphFormatError, match="cover"):
            parse_graph(text)


def test_build_names_a_few_vertices_without_incidence():
    with pytest.raises(ValueError) as info:
        LoopSignedGraph.build(1000, [([(1, 2)], {})])
    assert "998 vertices have no incidence: 3, 4, 5, 6, 7, ..." in str(info.value)
    assert len(str(info.value)) < 100


def test_missing_file_exit_code(tmp_path, capsys):
    assert main(["check", str(tmp_path / "nope.json"), str(tmp_path / "nope.json")]) == 2


def test_unwritable_witness_exit_code(gww_files, tmp_path, capsys):
    a, b = gww_files
    target = tmp_path / "missing" / "w.json"
    assert main(["check", str(a), str(b), "--witness", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not target.exists()


def test_unwritable_enumerate_out_exit_code(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "graphs"
    flags = ["--vertices", "2", "--colors", "1", "--loops", "mixed"]
    assert main(["enumerate", *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_census_row_output(capsys):
    assert main(["census", "--vertices", "2", "--colors", "3"]) == 0
    out = capsys.readouterr().out
    for token in ("classes=40", "(30)", "pairs=9", "(6)", "colour-classes=3", "(2)"):
        assert token in out


def test_census_treelike_flag(capsys):
    assert main(["census", "--vertices", "2", "--colors", "3", "--treelike"]) == 0
    out = capsys.readouterr().out
    assert "treelike classes=30" in out and "pairs=6" in out


@pytest.mark.parametrize("threads", ["1", "2"])
def test_census_progress_on_stderr(threads, monkeypatch, capsys):
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 2)
    flags = ["--vertices", "4", "--colors", "3", "--threads", threads]
    assert main(["census", *flags, "--progress"]) == 0
    captured = capsys.readouterr()
    assert "pairs=118" in captured.out and "leaves=" not in captured.out
    lines = captured.err.splitlines()
    assert lines and all(line.startswith("leaves=") for line in lines)
    # running totals; the last one counts every leaf and every class
    totals = [tuple(int(part.split("=")[1]) for part in line.split()) for line in lines]
    assert totals == sorted(totals)
    assert totals[-1] == (1677, 737)
    assert len(lines) == (1 if threads == "1" else 8)
    assert main(["census", *flags]) == 0
    assert capsys.readouterr().err == ""


def test_census_threads_below_one_exit_code(capsys):
    assert main(["census", "--vertices", "2", "--colors", "3", "--threads", "0"]) == 2
    assert "threads" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag,value",
    [("--vertices", "0"), ("--vertices", "-2"), ("--vertices", "128"), ("--colors", "0")],
)
def test_census_and_enumerate_reject_bad_sizes(flag, value, tmp_path, capsys):
    args = {"--vertices": "2", "--colors": "3", flag: value}
    flags = [x for kv in args.items() for x in kv]
    assert main(["census", *flags]) == 2
    assert flag.lstrip("-") in capsys.readouterr().err
    outdir = tmp_path / "classes"
    assert main(["enumerate", *flags, "--out", str(outdir)]) == 2
    assert flag.lstrip("-") in capsys.readouterr().err
    assert not outdir.exists()


def test_census_quotient_past_the_row_cap_exit_code(monkeypatch, capsys):
    # V=4 C=3 mixed has 118 pairs, 1,416 quotient rows
    monkeypatch.setattr(enumeration, "_MAX_QUOTIENT_ROWS", 1000)
    assert main(["census", "--vertices", "4", "--colors", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "1416 rows" in err


def test_invariants_output(gww_files, capsys):
    a, _ = gww_files
    assert main(["invariants", str(a), "--max-word", "2", "--seed", "5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["block_count"] == 7
    assert doc["boundary_balance"] == [-1, -1, 1]
    assert doc["word_traces"]["1"] == -1
    assert doc["loopless_edges"] is None


_INVARIANTS_GOLDEN = Path(__file__).parent / "data" / "invariants_seed5.json"


@pytest.mark.parametrize(
    "name", ["gww-1", "gww-2", "square-triangle-1", "square-triangle-2"]
)
def test_invariants_golden_output(name, tmp_path, capsys):
    # the whole report, byte for byte: word traces, probes and spectral data
    entry, k = name.rsplit("-", 1)
    path = tmp_path / f"{name}.json"
    path.write_text(dumps_json(catalog(entry).graphs[int(k) - 1]))
    assert main(["invariants", str(path), "--max-word", "6", "--seed", "5"]) == 0
    expected = json.loads(_INVARIANTS_GOLDEN.read_text())[name]
    assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"


@pytest.mark.parametrize(
    "flag,value,word",
    [("--max-word", "30", "max_len"), ("--kron-dim", "100000", "power"),
     ("--kron-pow", "1000000000", "power")],
)
def test_invariants_refuse_unbounded_work(gww_files, flag, value, word, capsys):
    # refused up front: 3^30 words, a 700,000^2 matrix, 10^9 matrix products
    a, _ = gww_files
    assert main(["invariants", str(a), flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and word in err


def test_invariants_refuse_long_one_colour_word(tmp_path, capsys):
    one = tmp_path / "one.json"
    one.write_text(dumps_json(parse_graph("c1: (1,2) loops: 3D\n")))
    assert main(["invariants", str(one), "--max-word", "5000"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "max_len" in err


def test_enumerate_count_only(capsys):
    assert main(["enumerate", "--vertices", "2", "--colors", "3", "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "40"


def test_enumerate_writes_files(tmp_path, capsys):
    outdir = tmp_path / "classes"
    assert main([
        "enumerate", "--vertices", "2", "--colors", "2", "--loops", "neumann",
        "--out", str(outdir),
    ]) == 0
    files = sorted(outdir.glob("graph_*.json"))
    assert files
    g = parse_graph(files[0].read_text())
    assert g.vertices == 2


def test_transform_dual_roundtrip(gww_files, capsys):
    a, _ = gww_files
    assert main(["transform", "dual", str(a)]) == 0
    out = capsys.readouterr().out
    dual = parse_graph(out)
    entry = catalog("gww")
    assert dual.loops(1) == {3: "N", 6: "D", 7: "N"}
    assert dual.edges(1) == entry.graphs[0].edges(1)


def test_transform_cross(tmp_path, capsys):
    unit = tmp_path / "unit.json"
    unit.write_text('{"version":1,"vertices":1,"colors":1,"adjacency":[{"color":1,"edges":[],"loops":{"1":"N"}}]}')
    two = tmp_path / "edge.json"
    two.write_text('{"version":1,"vertices":2,"colors":1,"adjacency":[{"color":1,"edges":[[1,2]],"loops":{}}]}')
    assert main(["transform", "cross", str(two), str(unit)]) == 0
    crossed = parse_graph(capsys.readouterr().out)
    assert crossed.vertices == 2 and crossed.edges(1) == [(1, 2)]


@pytest.fixture()
def substitution_files(tmp_path):
    host = tmp_path / "host.json"
    host.write_text(
        '{"version":1,"vertices":2,"colors":2,"adjacency":['
        '{"color":1,"edges":[[1,2]],"loops":{}},'
        '{"color":2,"edges":[],"loops":{"1":"D","2":"N"}}]}'
    )
    sub = tmp_path / "sub.json"
    sub.write_text(
        '{"version":1,"vertices":2,"colors":3,"adjacency":['
        '{"color":1,"edges":[],"loops":{"1":"N","2":"N"}},'
        '{"color":2,"edges":[],"loops":{"1":"D","2":"N"}},'
        '{"color":3,"edges":[[1,2]],"loops":{}}]}'
    )
    return host, sub


def test_transform_substitute_plan(substitution_files, tmp_path, capsys):
    host, sub = substitution_files
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({
        "host": str(host),
        "substituent": str(sub),
        "assignment": {"1": {"1": [1, 2]}, "2": {"2": [2]}},
    }))
    assert main(["transform", "substitute", str(plan)]) == 0
    result = parse_graph(capsys.readouterr().out)
    assert result.vertices == 4
    assert result.loops(2) == {1: "D", 2: "D", 3: "D", 4: "N"}


@pytest.mark.parametrize(
    "shape",
    [
        "array",
        "numeric host",
        "no substituent",
        "array assignment",
        "array per host colour",
        "number for vertices",
        "boolean vertex",
        "string vertex",
    ],
)
def test_transform_substitute_malformed_plan_exit_code(
    shape, substitution_files, tmp_path, capsys
):
    host, sub = map(str, substitution_files)
    doc = {
        "array": [host, sub, {}],
        "numeric host": {"host": 5, "substituent": sub, "assignment": {}},
        "no substituent": {"host": host, "assignment": {}},
        "array assignment": {"host": host, "substituent": sub, "assignment": [[1]]},
        "array per host colour": {"host": host, "substituent": sub, "assignment": {"1": [1]}},
        "number for vertices": {"host": host, "substituent": sub, "assignment": {"1": {"1": 5}}},
        "boolean vertex": {"host": host, "substituent": sub, "assignment": {"1": {"1": [True]}}},
        "string vertex": {"host": host, "substituent": sub, "assignment": {"1": {"1": ["1"]}}},
    }[shape]
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(doc))
    assert main(["transform", "substitute", str(plan)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("repeated", ["host", "assignment colour"])
def test_transform_substitute_plan_with_a_repeated_key_exit_code(
    repeated, substitution_files, tmp_path, capsys
):
    # json.loads alone would keep the second value and substitute into it
    host, sub = (json.dumps(str(f)) for f in substitution_files)
    text = {
        "host": f'{{"host": {sub}, "host": {host}, "substituent": {sub}, "assignment": {{}}}}',
        "assignment colour": (
            f'{{"host": {host}, "substituent": {sub}, '
            '"assignment": {"1": {"1": [1]}, "1": {"1": [2]}}}'
        ),
    }[repeated]
    plan = tmp_path / "plan.json"
    plan.write_text(text)
    assert main(["transform", "substitute", str(plan)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "given twice" in err and err.count("\n") == 1


def test_transform_braid_not_normalizable(tmp_path, capsys):
    band = catalog("band15").graphs[1]
    f = tmp_path / "band.json"
    f.write_text(dumps_json(band))
    code = main(["transform", "dual", str(f)])
    assert code == 2  # non-bipartite loopless version has no sign partition


def test_schreier_cli(tmp_path, capsys):
    gens = tmp_path / "gens.json"
    # generators presented as the colours of a graph file
    st = catalog("square-triangle").graphs[0]
    gens.write_text(dumps_json(st))
    assert main([
        "schreier", "--generators", str(gens),
        "--subgroup", "e,1,21211,2121", "--character", "+,-,+,-",
    ]) == 0
    rebuilt = parse_graph(capsys.readouterr().out)
    from looptrans.graph import is_isomorphic

    assert is_isomorphic(rebuilt, st) is not None


def test_schreier_cli_character_tokens(tmp_path, capsys):
    gens = tmp_path / "gens.json"
    gens.write_text(dumps_json(catalog("square-triangle").graphs[0]))
    base = ["schreier", "--generators", str(gens), "--subgroup", "e,1,21211,2121"]
    assert main(base + ["--character", "+,-,+,-"]) == 0
    expected = capsys.readouterr().out
    # every accepted spelling of the two values gives the same graph
    assert main(base + ["--character=N, -1,+1,D"]) == 0
    assert capsys.readouterr().out == expected
    for bad in ("+,0,+,x", "+,-,+,?", "+,-,+,", "+,-,+,2"):
        assert main(base + ["--character", bad]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "character value" in captured.err
    # a separate value that starts with a minus parses as the --character=VALUE form
    swapped = base[:-1] + ["1,e,21211,2121"]
    for value, code in (("-,+,+,-", 0), ("-1,N,+1,D", 0), ("-,0,+,-", 2)):
        assert main(swapped + [f"--character={value}"]) == code
        joined = capsys.readouterr()
        assert main(swapped + ["--character", value]) == code
        separate = capsys.readouterr()
        assert (separate.out, separate.err) == (joined.out, joined.err)
        assert (joined.out != "") == (code == 0)


def test_export_dot(gww_files, capsys):
    a, _ = gww_files
    assert main(["export", str(a), "--format", "dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("graph G {")
    assert "style=dotted" in out


def test_catalog_output(capsys):
    assert main(["catalog", "gww"]) == 0
    out = capsys.readouterr().out
    assert "witness verifies: True" in out
    assert main(["catalog", "square-triangle"]) == 0
    assert main(["catalog", "band15"]) == 0
    assert main(["catalog", "d4-group"]) == 0


def _graph_file(tmp_path, g=None):
    path = tmp_path / "g.json"
    path.write_text(dumps_json(catalog("gww").graphs[0] if g is None else g))
    return path


_TRANSFORM_CASES = {
    "copy-color": (["--color", "2"], False, lambda g: copy_colour(g, 2)),
    "add-color": (["--sign", "D"], False, lambda g: add_colour(g, "D")),
    "omit-color": (["--color", "4"], True, lambda g: omit_colour(g, 4)),
    "swap-signs": (["--colors-list", "1"], False, lambda g: swap_loop_signs(g, [1])),
    "braid": (["--color", "1", "--conjugator", "2"], False, lambda g: braid(g, 1, 2)),
}


@pytest.mark.parametrize("op", list(_TRANSFORM_CASES))
@pytest.mark.parametrize("fmt", ["json", "cycles"])
def test_transform_output_matches_library(op, fmt, tmp_path, capsys):
    flags, on_copy, call = _TRANSFORM_CASES[op]
    g = catalog("gww").graphs[0]
    if on_copy:
        g = copy_colour(g, 2)
    path = _graph_file(tmp_path, g)
    assert main(["transform", op, str(path), *flags, "--format", fmt]) == 0
    dumps = dumps_json if fmt == "json" else dumps_cycles
    assert capsys.readouterr().out == dumps(call(g))


@pytest.mark.parametrize(
    "first,second",
    [
        (["copy-color", "--color", "2"], ["omit-color", "--color", "4"]),
        (["add-color", "--sign", "D"], ["omit-color", "--color", "4"]),
        (["swap-signs", "--colors-list", "1"], ["swap-signs", "--colors-list", "1"]),
        (["braid", "--color", "1", "--conjugator", "2"], ["braid", "--color", "1", "--conjugator", "2"]),
    ],
)
def test_transform_round_trip_gives_back_the_input(first, second, tmp_path, capsys):
    path = _graph_file(tmp_path)
    assert main(["transform", first[0], str(path), *first[1:]]) == 0
    middle = tmp_path / "middle.json"
    middle.write_text(capsys.readouterr().out)
    assert middle.read_text() != path.read_text()
    assert main(["transform", second[0], str(middle), *second[1:]]) == 0
    assert capsys.readouterr().out == path.read_text()


@pytest.mark.parametrize(
    "args",
    [
        ["copy-color", "--color", "9"],
        ["braid", "--color", "9", "--conjugator", "1"],
        ["swap-signs", "--colors-list", "9"],
    ],
)
def test_transform_colour_out_of_range_exit_code(args, tmp_path, capsys):
    path = _graph_file(tmp_path)
    assert main(["transform", args[0], str(path), *args[1:]]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("flags,count", [([], "737"), (["--treelike"], "472")])
def test_enumerate_count_only_builds_no_graph(flags, count, monkeypatch, capsys):
    def refuse(self, i):
        raise AssertionError("a counted class was built as a graph")

    monkeypatch.setattr(enumeration.PackedClasses, "graph", refuse)
    args = ["enumerate", "--vertices", "4", "--colors", "3", "--count-only", *flags]
    assert main(args) == 0
    assert capsys.readouterr().out == count + "\n"
