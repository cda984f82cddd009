"""Command-line surface.

Exit codes: 0 on success, 1 on a negative verdict (e.g. ``check`` deciding
no), 2 on malformed input or resource caps.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .algebra import ClosureCapExceeded
from .catalog import CATALOG_NAMES, catalog as load_catalog
from .enumeration import census, enumerate_classes, enumerate_packed
from .formats import (
    GraphFormatError,
    _unique_keys,
    dumps_cycles,
    dumps_json,
    dumps_witness,
    export_dot,
    parse_graph,
)
from .graph import LoopSignedGraph, validate
from .invariants import (
    DEFAULT_KRON_DIM,
    DEFAULT_MAX_WORD,
    det_probe,
    kron_probe,
    spectral_report,
    trace_profile,
)
from .reps import closure, pair_from_words, schreier_graph
from .transform import (
    SubstitutionPlan,
    add_colour,
    braid,
    copy_colour,
    cross,
    dualize,
    omit_colour,
    substitute,
    swap_loop_signs,
)
from .transplant import decide, verify_witness


class InputError(Exception):
    pass


def _load_graph(path: str) -> LoopSignedGraph:
    try:
        return parse_graph(Path(path).read_text())
    except GraphFormatError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _load_plan(path: str) -> SubstitutionPlan:
    """A substitution plan file: the host and substituent graph files, and
    the assignment as an object of objects of integer arrays; a key given
    twice in one object is refused."""
    try:
        doc = json.loads(Path(path).read_text(), object_pairs_hook=_unique_keys)
    except (json.JSONDecodeError, GraphFormatError) as exc:
        raise InputError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path}: top level must be a JSON object")
    for field in ("host", "substituent"):
        if not isinstance(doc.get(field), str):
            raise InputError(f"{path}: field {field!r}: expected a file name")
    assignment = doc.get("assignment")
    # type() rather than isinstance(): a JSON true is a bool, an int subclass
    if not isinstance(assignment, dict) or not all(
        isinstance(per_host, dict)
        and all(
            isinstance(vs, list) and all(type(v) is int for v in vs)
            for vs in per_host.values()
        )
        for per_host in assignment.values()
    ):
        raise InputError(
            f"{path}: field 'assignment': expected an object of objects of integer arrays"
        )
    return SubstitutionPlan.create(
        _load_graph(doc["host"]),
        _load_graph(doc["substituent"]),
        {
            int(chi): {int(c): vs for c, vs in per_host.items()}
            for chi, per_host in assignment.items()
        },
    )


_WRITERS = {"json": dumps_json, "cycles": dumps_cycles, "dot": export_dot}


def _emit_graph(g: LoopSignedGraph, fmt: str = "json") -> None:
    sys.stdout.write(_WRITERS[fmt](g))


def _cmd_check(args: argparse.Namespace) -> int:
    g1 = _load_graph(args.first)
    g2 = _load_graph(args.second)
    decision = decide(g1, g2, method=args.method, seed=args.seed)
    if decision.verdict:
        print("transplantable: yes")
        if decision.witness is not None and args.witness:
            Path(args.witness).write_text(dumps_witness(decision.witness))
            print(f"witness written to {args.witness}")
        return 0
    print("transplantable: no")
    if decision.certificate is not None:
        cert = decision.certificate
        word = ",".join(map(str, cert.word)) or "(empty)"
        print(f"certificate: word {word} has differing traces")
    return 1


def _cmd_invariants(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    profile = trace_profile(g, args.max_word)
    report = spectral_report(g)
    out = {
        "block_count": report.block_count,
        "boundary_balance": list(report.boundary_balance),
        "corner_traces": {
            f"{c1},{c2}": list(t) for (c1, c2), t in report.corner_traces
        },
        "loopless_edges": report.loopless_edges,
        "word_traces": {
            ",".join(map(str, w)): t for w, t in sorted(profile.items())
        },
        "kron_probe": list(
            kron_probe(g, args.kron_dim, args.kron_pow, args.seed)
        ),
        "det_probe": det_probe(g, args.seed),
    }
    json.dump(out, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def _report_progress(leaves: int, classes: int) -> None:
    print(f"leaves={leaves} classes={classes}", file=sys.stderr, flush=True)


def _cmd_census(args: argparse.Namespace) -> int:
    row = census(
        args.vertices,
        args.colors,
        regime=args.loops,
        quilts=args.quilts,
        threads=args.threads,
        progress=_report_progress if args.progress else None,
    )
    if args.treelike:
        print(
            f"V={row.vertices} C={row.colors} [{row.regime}] "
            f"treelike classes={row.treelike_count} "
            f"pairs={row.treelike_pair_count} "
            f"colour-classes={row.treelike_class_pair_count}"
        )
    else:
        line = (
            f"V={row.vertices} C={row.colors} [{row.regime}] "
            f"classes={row.class_count} ({row.treelike_count}) "
            f"pairs={row.pair_count} ({row.treelike_pair_count}) "
            f"colour-classes={row.class_pair_count} ({row.treelike_class_pair_count})"
        )
        if row.quilt_count is not None:
            line += f" quilts={row.quilt_count}"
        print(line)
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    if args.count_only:
        packed = enumerate_packed(args.vertices, args.colors, args.loops)
        print(int(packed.treelike().sum()) if args.treelike else len(packed))
        return 0
    stream = enumerate_classes(
        args.vertices, args.colors, args.loops, treelike_only=args.treelike
    )
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    count = 0
    for i, g in enumerate(stream, start=1):
        (outdir / f"graph_{i:07d}.json").write_text(dumps_json(g))
        count = i
    print(f"wrote {count} graphs to {outdir}")
    return 0


def _arg(*names: str, **kwargs: object) -> tuple[tuple[str, ...], dict[str, object]]:
    return names, kwargs


_COLOR = _arg("--color", type=int, required=True)

# The graph transforms in `transform --help` order: each subcommand's library
# call on the parsed graph and arguments, and the arguments its subparser
# takes between the positional graph and --format.
_TRANSFORMS = {
    "dual": (lambda g, args: dualize(g), ()),
    "copy-color": (lambda g, args: copy_colour(g, args.color), (_COLOR,)),
    "omit-color": (lambda g, args: omit_colour(g, args.color), (_COLOR,)),
    "swap-signs": (
        lambda g, args: swap_loop_signs(g, args.colors_list),
        (_arg("--colors-list", type=int, nargs="+", required=True),),
    ),
    "braid": (
        lambda g, args: braid(g, args.color, args.conjugator),
        (_COLOR, _arg("--conjugator", type=int, required=True)),
    ),
    "add-color": (
        lambda g, args: add_colour(g, args.sign),
        (_arg("--sign", choices=("D", "N"), required=True),),
    ),
    "cross": (lambda g, args: cross(g, _load_graph(args.second)), (_arg("second"),)),
}


def _cmd_transform(args: argparse.Namespace) -> int:
    if args.operation == "substitute":
        out = substitute(_load_plan(args.plan))
    else:
        out = _TRANSFORMS[args.operation][0](_load_graph(args.graph), args)
    _emit_graph(out, args.format)
    return 0


def _cmd_schreier(args: argparse.Namespace) -> int:
    gens_graph = _load_graph(args.generators)
    generators = list(gens_graph.adjacency)
    group = closure(generators)
    words = []
    for token in args.subgroup.split(","):
        token = token.strip()
        if token in ("e", ""):
            words.append(())
        else:
            words.append(tuple(int(ch) for ch in token))
    values = []
    for token in args.character.split(","):
        token = token.strip()
        if token in ("+", "1", "+1", "N"):
            values.append(1)
        elif token in ("-", "-1", "D"):
            values.append(-1)
        else:
            raise InputError(
                f"character value {token!r} is not one of +, 1, +1, N, -, -1, D"
            )
    pair = pair_from_words(group, words, values)
    _emit_graph(schreier_graph(group, generators, pair), args.format)
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    _emit_graph(_load_graph(args.graph), args.format)
    return 0


def _cmd_catalog(args: argparse.Namespace) -> int:
    try:
        entry = load_catalog(args.name)
    except KeyError as exc:
        raise InputError(str(exc)) from exc
    for i, g in enumerate(entry.graphs, start=1):
        err = validate(g)
        if err is not None:
            raise RuntimeError(err)
        print(f"# graph {i}")
        sys.stdout.write(dumps_cycles(g))
    if entry.witness is not None:
        print("# witness")
        sys.stdout.write(dumps_witness(entry.witness))
        ok = verify_witness(entry.graphs[0], entry.graphs[1], entry.witness)
        print(f"# witness verifies: {ok}")
    if entry.group_data is not None:
        data = entry.group_data
        print("# generators")
        for gen in data.generators:
            print(f"#   {gen.encode()}")
        print(f"# subgroup words: {[list(w) for w in data.subgroup_words]}")
        print(f"# character:      {list(data.character)}")
        print(f"# hat words:      {[list(w) for w in data.hat_subgroup_words]}")
        print(f"# hat character:  {list(data.hat_character)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="looptrans",
        description="Transplantability toolkit for loop-signed edge-coloured graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide transplantability of two graphs")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--witness", help="write the witness matrix to this file")
    p.add_argument("--method", choices=("group", "orbit"), default="orbit")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("invariants", help="fingerprint and spectral report")
    p.add_argument("graph")
    p.add_argument("--max-word", type=int, default=DEFAULT_MAX_WORD)
    p.add_argument("--kron-dim", type=int, default=DEFAULT_KRON_DIM)
    p.add_argument("--kron-pow", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("census", help="class and pair counts for one table row")
    p.add_argument("--vertices", type=int, required=True)
    p.add_argument("--colors", type=int, required=True)
    p.add_argument("--loops", choices=("mixed", "dirichlet", "neumann"), default="mixed")
    p.add_argument("--treelike", action="store_true")
    p.add_argument("--quilts", action="store_true")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument(
        "--progress",
        action="store_true",
        help="write running leaves/classes totals to stderr",
    )
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("enumerate", help="stream canonical isomorphism classes")
    p.add_argument("--vertices", type=int, required=True)
    p.add_argument("--colors", type=int, required=True)
    p.add_argument("--loops", choices=("mixed", "dirichlet", "neumann", "signless"), default="mixed")
    p.add_argument("--treelike", action="store_true")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--out", help="directory for one JSON file per class")
    group.add_argument("--count-only", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("transform", help="apply a generating transform")
    op = p.add_subparsers(dest="operation", required=True)
    for name, (_, extras) in _TRANSFORMS.items():
        q = op.add_parser(name)
        q.add_argument("graph")
        for names, kwargs in extras:
            q.add_argument(*names, **kwargs)
        q.add_argument("--format", choices=("json", "cycles"), default="json")
        q.set_defaults(func=_cmd_transform)
    q = op.add_parser("substitute")
    q.add_argument("plan", help="JSON plan: host, substituent, assignment")
    q.add_argument("--format", choices=("json", "cycles"), default="json")
    q.set_defaults(func=_cmd_transform)

    p = sub.add_parser("schreier", help="Schreier coset graph from group data")
    p.add_argument("--generators", required=True, help="graph file; colours are the generators")
    p.add_argument("--subgroup", required=True, help="comma-separated words, e.g. 'e,1,21211,2121'")
    p.add_argument(
        "--character", required=True,
        help="comma-separated values: +, 1, +1 or N for +1; -, -1 or D for -1",
    )
    p.add_argument("--format", choices=("json", "cycles"), default="json")
    p.set_defaults(func=_cmd_schreier)

    p = sub.add_parser("export", help="write a graph in dot or json form")
    p.add_argument("graph")
    p.add_argument("--format", choices=("dot", "json", "cycles"), default="dot")
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("catalog", help="print an embedded fixture")
    p.add_argument("name", choices=CATALOG_NAMES)
    p.set_defaults(func=_cmd_catalog)

    return parser


def _attach_dash_values(argv: list[str]) -> list[str]:
    """Write ``--character VALUE`` as ``--character=VALUE``.

    argparse takes a separate value that starts with '-' for an option, but a
    character such as ``-,+`` legitimately starts with a minus.
    """
    out: list[str] = []
    for token in argv:
        dash_value = token.startswith("-") and not token.startswith("--")
        if dash_value and out and out[-1] == "--character":
            out[-1] = f"--character={token}"
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_dash_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except (InputError, ClosureCapExceeded, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
