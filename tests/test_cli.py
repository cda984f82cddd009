import functools
import json

import pytest

from looptrans import cli
from looptrans.cli import main
from looptrans.catalog import catalog
from looptrans.formats import dumps_json, parse_graph, parse_witness
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


def test_malformed_input_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"version": 3}')
    assert main(["check", str(bad), str(bad)]) == 2
    assert "error" in capsys.readouterr().err


def test_missing_file_exit_code(tmp_path, capsys):
    assert main(["check", str(tmp_path / "nope.json"), str(tmp_path / "nope.json")]) == 2


def test_census_row_output(capsys):
    assert main(["census", "--vertices", "2", "--colors", "3"]) == 0
    out = capsys.readouterr().out
    for token in ("classes=40", "(30)", "pairs=9", "(6)", "colour-classes=3", "(2)"):
        assert token in out


def test_census_treelike_flag(capsys):
    assert main(["census", "--vertices", "2", "--colors", "3", "--treelike"]) == 0
    out = capsys.readouterr().out
    assert "treelike classes=30" in out and "pairs=6" in out


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


def test_invariants_output(gww_files, capsys):
    a, _ = gww_files
    assert main(["invariants", str(a), "--max-word", "2", "--seed", "5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["block_count"] == 7
    assert doc["boundary_balance"] == [-1, -1, 1]
    assert doc["word_traces"]["1"] == -1
    assert doc["loopless_edges"] is None


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


def test_transform_substitute_plan(tmp_path, capsys):
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
