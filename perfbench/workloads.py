"""One benchmark workload in one fresh, single-threaded process.

    python3 perfbench/workloads.py --workload decide --seed 1 --seconds 30 --trace 0

prints one JSON object: set-up time, the metrics of every round, the
operations attempted and failed, and the verdict of the independent checker.
``perfbench/run.py`` starts this script and reports its result; see
``perfbench/README.md`` for the workloads and metrics.

A round interleaves all its phases chunk by chunk, so a slow period of the
host falls on every phase; a phase may take its items from what another
phase produced.  Every operation is one call of a phase function on one
item; its output is checked after the timed round by ``checker``, which
imports nothing from looptrans.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DATA = os.path.join(HERE, "data", "candidates.json")
COLORS = 3
CHUNKS = 8  # per pass
# Passes over the same inputs in one round.  A metric takes each input's
# median over the passes of the whole run.  On a shared host the fastest
# pass spreads more from run to run than the median: how often a call runs
# at the host's best speed differs between runs.  The census workload's round
# is its rows, once, spread over four passes of the other phases; a round of
# the others is one pass of everything.
PASSES = {"census": 4, "decide": 1, "derive": 1}
# The length of a round on a 2-CPU Xeon at 2.1 GHz.  A run makes --seconds
# over it rounds, at least one, whatever the host's speed: every run does
# the same work and takes each median over the same number of passes.
ROUND_S = {"census": 30.0, "decide": 9.0, "derive": 10.0}

WORKLOADS = ("census", "decide", "derive")


# ---------------------------------------------------------------- operations


def rows(g: Any) -> tuple[tuple[int, ...], ...]:
    """A graph in the checker's form: per colour, target times sign."""
    return tuple(tuple(t * s for t, s in zip(p.targets, p.signs)) for p in g.adjacency)


def matrix(t: Any) -> list[list[Any]]:
    return [list(r) for r in t.entries]


@dataclass
class Phase:
    """A named list of items; ``fn`` is called once on each.

    ``keys[i]`` names the input of ``items[i]``: a round goes over the same
    inputs in one or more passes, and a metric takes, per key, the median
    pass.  Keys stay the same from round to round, so that the median is
    taken over the whole run.
    A phase with a ``feed`` takes its items from another phase of the round:
    after each chunk of that phase, ``pick(key, item, output)`` turns each new
    output into a list of (key, item).
    """

    name: str
    items: list[Any]
    fn: Callable[[Any], Any]
    keys: list[Any] = field(default_factory=list)
    feed: tuple["Phase", Callable[[Any, Any, Any], list[tuple[Any, Any]]]] | None = None
    outputs: list[Any] = field(default_factory=list)
    times: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    pulled: int = 0

    def chunk(self, k: int, chunks: int) -> list[Any]:
        if self.feed is not None:
            source, pick = self.feed
            new = []
            start = self.pulled
            for key, item, out in zip(source.keys[start:], source.items[start:], source.outputs[start:]):
                if out is not None:
                    new += pick(key, item, out)
            self.pulled = len(source.outputs)
            self.keys += [k for k, _ in new]
            self.items += [x for _, x in new]
            return [x for _, x in new]
        n = len(self.items)
        return self.items[k * n // chunks : (k + 1) * n // chunks]


def run_round(phases: Sequence[Phase], chunks: int) -> float:
    """Interleave the phases chunk by chunk; time every call on its own.

    Garbage is collected before every chunk; what survives is frozen, so
    that neither the next collection nor the collector's runs inside timed
    calls walk the outputs the benchmark keeps.  Returns the seconds spent
    collecting.
    """
    gc_s = 0.0
    for k in range(chunks):
        for phase in phases:
            part = phase.chunk(k, chunks)
            if not part:
                continue
            start = time.perf_counter()
            gc.collect()
            gc.freeze()
            gc_s += time.perf_counter() - start
            for item in part:
                start = time.perf_counter()
                try:
                    out = phase.fn(item)
                except Exception as exc:  # a failed operation, counted
                    phase.times.append(time.perf_counter() - start)
                    phase.outputs.append(None)
                    phase.errors.append(f"{phase.name}: {type(exc).__name__}: {exc}")
                    continue
                phase.times.append(time.perf_counter() - start)
                phase.outputs.append(out)
    gc.unfreeze()
    return gc_s


@dataclass
class Ops:
    """Phase functions; each calls looptrans through module attributes."""

    lt: Any  # namespace of looptrans modules
    progress: Callable[[int, int], None] | None = None
    quotients: list[Any] = field(default_factory=list)

    def census(self, item: tuple[int, str, bool]) -> Any:
        vertices, regime, quilts = item
        self.quotients.clear()
        row, pairs = self.lt.enumeration.census_details(
            vertices, COLORS, regime, quilts=quilts, threads=1, progress=self.progress
        )
        return row, pairs, list(self.quotients)

    def check(self, pair: tuple[Any, Any]) -> Any:
        return self.lt.transplant.decide(pair[0], pair[1])

    def verdict(self, pair: tuple[Any, Any]) -> bool:
        return self.lt.transplant.transplantable(pair[0], pair[1])

    def group(self, pair: tuple[Any, Any]) -> Any:
        return self.lt.transplant.decide(pair[0], pair[1], method="group")

    def derive(self, op: tuple[str, Any, Any, Any, Any]) -> Any:
        """Build a derived pair, transport the witness and verify it."""
        kind, g1, g2, t, arg = op
        tf = self.lt.transform
        if kind == "swap":
            h1, h2 = tf.swap_loop_signs(g1, arg), tf.swap_loop_signs(g2, arg)
            w = tf.transport_dual_witness((g1, g2), t, arg)
        elif kind == "braid":
            c, conj = arg
            h1, h2 = tf.braid(g1, c, conj), tf.braid(g2, c, conj)
            w = tf.braid_conjugator(g2, c, conj) @ t @ tf.braid_conjugator(g1, c, conj)
        elif kind == "copy":
            h1, h2, w = tf.copy_colour(g1, arg), tf.copy_colour(g2, arg), t
        elif kind == "add":
            h1, h2, w = tf.add_colour(g1, arg), tf.add_colour(g2, arg), t
        elif kind == "omit":
            h1, h2, w = tf.omit_colour(g1, arg), tf.omit_colour(g2, arg), t
        elif kind == "substitute":
            sub, assignment = arg
            plan1 = tf.SubstitutionPlan.create(g1, sub, assignment)
            plan2 = tf.SubstitutionPlan.create(g2, sub, assignment)
            h1, h2 = tf.substitute(plan1), tf.substitute(plan2)
            w = tf.substitution_witness(plan1, t)
        elif kind == "cross":
            b, tb = arg
            h1, h2 = tf.cross(g1, b), tf.cross(g2, b)
            w = tf.cross_witness(t, tb)
        else:
            raise ValueError(f"unknown transform {kind!r}")
        return kind, h1, h2, w, self.lt.transplant.verify_witness(h1, h2, w)

    def character(self, pair: tuple[Any, Any]) -> Any:
        """Induced-character route and Schreier round trip on one pair."""
        g1, g2 = pair
        lt = self.lt
        union = lt.graph.disjoint_union([g1, g2])
        grp, subs = lt.reps.associated_pairs(union)
        if len(subs) != 2:
            raise ValueError(f"expected two components, got {len(subs)}")
        equal = lt.reps.characters_equal(grp, [subs[0]], [subs[1]])
        gens = [union.color(c) for c in range(1, union.colors + 1)]
        back = [lt.reps.schreier_graph(grp, gens, sub) for sub in subs]
        iso = [lt.graph.is_isomorphic(s, g) for s, g in zip(back, pair)]
        return equal, back, iso, grp.order


# ---------------------------------------------------------------- workloads


def _import() -> Any:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import looptrans.algebra as algebra
    import looptrans.enumeration as enumeration
    import looptrans.graph as graph
    import looptrans.reps as reps
    import looptrans.transform as transform
    import looptrans.transplant as transplant
    from looptrans.catalog import catalog

    return argparse.Namespace(
        algebra=algebra,
        enumeration=enumeration,
        graph=graph,
        reps=reps,
        transform=transform,
        transplant=transplant,
        catalog=catalog,
    )


def _from_rows(lt: Any, data: Sequence[Sequence[int]]) -> Any:
    perms = tuple(
        lt.algebra.SignedPerm(tuple(abs(x) for x in r), tuple(1 if x > 0 else -1 for x in r))
        for r in data
    )
    return lt.graph.LoopSignedGraph(len(data[0]), perms)


def _stratified(items: Sequence[Any], key: Callable[[Any], Any], n: int, rng: random.Random) -> list[Any]:
    """One item from each of n equal strata of the items sorted by key."""
    ordered = sorted(items, key=key)
    return [rng.choice(ordered[k * len(ordered) // n : (k + 1) * len(ordered) // n]) for k in range(n)]


def _transform_ops(lt: Any, bases: Sequence[tuple[Any, Any, Any]], kinds: set[str]) -> list[tuple]:
    """Every defined transform of each base pair among the given kinds."""
    tf = lt.transform
    ops: list[tuple] = []
    subsets = [(1,), (1, 2, 3)]
    for g1, g2, t in bases:
        colours = range(1, g1.colors + 1)
        if "dualize" in kinds and tf.sign_partition(g1, colours) is not None \
                and tf.sign_partition(g2, colours) is not None:
            ops.append(("swap", g1, g2, t, tuple(colours)))
        if "swap" in kinds:
            for sel in subsets:
                if max(sel) > g1.colors:
                    continue
                if tf.sign_partition(g1, sel) is not None and tf.sign_partition(g2, sel) is not None:
                    ops.append(("swap", g1, g2, t, sel))
        if "braid" in kinds:
            for c in colours:
                for conj in colours:
                    if c >= conj:
                        continue
                    try:
                        tf.braid_conjugator(g1, c, conj)
                        tf.braid_conjugator(g2, c, conj)
                    except tf.NotNormalizable:
                        continue
                    ops.append(("braid", g1, g2, t, (c, conj)))
        if "colour" in kinds:
            ops += [("copy", g1, g2, t, 1), ("add", g1, g2, t, "D"), ("omit", g1, g2, t, g1.colors)]
    return ops


def _substituents(lt: Any) -> tuple[Any, list[dict], Any, dict]:
    """A two-vertex substituent with three plans, and a three-vertex one."""
    build = lt.graph.LoopSignedGraph.build
    two = build(2, [([], {1: "N", 2: "N"}), ([(1, 2)], {}), ([], {1: "N", 2: "N"})])
    plans = [
        {1: {1: [1], 2: [2]}, 3: {3: [1]}},
        {1: {1: [1, 2]}, 3: {2: [1], 3: [2]}},
        {3: {1: [1], 3: [2]}},
    ]
    three = build(
        3,
        [
            ([], {1: "N", 2: "N", 3: "N"}),
            ([(1, 2)], {3: "N"}),
            ([(2, 3)], {1: "N"}),
        ],
    )
    return two, plans, three, {1: {1: [1], 2: [2], 3: [3]}}


@dataclass
class Workload:
    name: str
    seed: int
    lt: Any
    ops: Ops
    census_rows: list[tuple[int, str, bool]] = field(default_factory=list)
    state: dict[str, Any] = field(default_factory=dict)

    def round(self) -> list[Phase]:
        return getattr(self, f"_round_{self.name}")()

    def _phase(self, name: str, items: Sequence[Any], fn: Callable[[Any], Any],
               passes: int, rng: random.Random) -> Phase:
        """A phase over the items in ``passes`` passes, each in seeded order."""
        keyed = list(enumerate(items))
        order = [x for _ in range(passes) for x in rng.sample(keyed, len(keyed))]
        return Phase(name, [x for _, x in order], fn, keys=[k for k, _ in order])

    def _round_census(self) -> list[Phase]:
        # the rows run once, spread over the passes of the other phases
        return self._interleaved(census_passes=1)

    def _round_decide(self) -> list[Phase]:
        return self._interleaved(census_passes=PASSES["decide"])

    def _interleaved(self, census_passes: int) -> list[Phase]:
        """One round over the inputs made in set-up."""
        rng = random.Random(self.seed * 7919 + self.state["round"])
        n = PASSES[self.name]
        st = self.state
        phases = [
            self._phase("census", self.census_rows, self.ops.census, census_passes, rng),
            self._phase("check", st["pairs"], self.ops.check, n, rng),
            self._phase("verdict", st["pairs"], self.ops.verdict, n, rng),
            self._phase("group", st["group"], self.ops.group, n, rng),
            self._phase("derive", st["ops"], self.ops.derive, n, rng),
            self._phase("character", st["small_groups"], self.ops.character, n, rng),
        ]
        st["gc_s"] = run_round(phases, chunks=CHUNKS * n)
        return phases

    def _round_derive(self) -> list[Phase]:
        rng = random.Random(self.seed * 7919 + self.state["round"])
        n = PASSES["derive"]
        st = self.state
        census = self._phase("census", self.census_rows, self.ops.census, n, rng)
        derive = self._phase("derive", st["ops"], self.ops.derive, n, rng)
        char = self._phase("character", st["characters"], self.ops.character, n, rng)

        def built(key: Any, op: tuple, out: Any) -> list[tuple[Any, Any]]:
            return [(key, (out[1], out[2]))]

        def small_swap(key: Any, op: tuple, out: Any) -> list[tuple[Any, Any]]:
            return [(key, (out[1], out[2]))] if op[0] == "swap" and op[1].vertices == 4 else []

        check = Phase("check", [], self.ops.check, feed=(derive, built))
        verdict = Phase("verdict", [], self.ops.verdict, feed=(derive, built))
        group = Phase("group", [], self.ops.group, feed=(derive, small_swap))
        phases = [census, derive, char, check, verdict, group]
        self.state["gc_s"] = run_round(phases, chunks=CHUNKS * n)
        return phases


def setup(name: str, seed: int) -> Workload:
    """Import looptrans and build or read the workload's inputs."""
    lt = _import()
    w = Workload(name, seed, lt, Ops(lt))
    rng = random.Random(seed)
    if name in ("census", "decide"):
        with open(DATA) as f:
            data = json.load(f)
        counts = {v: sum(1 for p in data["pairs"] if p["v"] == v) for v in (6, 7)}
        if data.get("colors") != COLORS or counts != {6: 1035, 7: 160} or len(data["pairs"]) != 1195:
            raise SystemExit(f"{DATA}: expected 1035 V=6 and 160 V=7 pairs, got {counts}")
        pairs, orders = [], {}
        for p in data["pairs"]:
            pair = (_from_rows(lt, p["a"]), _from_rows(lt, p["b"]))
            pairs.append(pair)
            orders[id(pair)] = p.get("order", 0)
        tp = lt.transplant
        six = [p for p in pairs if p[0].vertices == 6]
        # the group and character routes' cost grows with the group order:
        # the census workload takes the group route on the 112 transplantable
        # V=6 pairs of the smallest groups (enough for a p90 with 11 beyond
        # it), and the character route and its transforms on the first 28
        small = []
        for p in sorted(six, key=lambda p: orders[id(p)]):
            if len(small) < 112 and tp.transplantable(*p):
                small.append(p)
        if name == "census":
            w.census_rows = [(6, "mixed", True), (8, "dirichlet", False), (8, "neumann", False)]
            w.state["pairs"] = six
            w.state["group"] = small
            w.state["small_groups"] = small[:28]
            bases = [(g1, g2, tp.decide(g1, g2).witness) for g1, g2 in small[:28]]
        else:
            w.census_rows = [(4, "mixed", False), (5, "mixed", False)]
            w.state["pairs"] = pairs
            sample = _stratified(six, lambda p: orders[id(p)], 30, rng)
            w.state["group"] = [p for p in pairs if p[0].vertices == 7] + sample
            w.state["small_groups"] = small[:24]
            bases = [(g1, g2, tp.decide(g1, g2).witness) for g1, g2 in pairs
                     if g1.vertices == 7 and tp.transplantable(g1, g2)]
        w.state["ops"] = _transform_ops(lt, bases, {"dualize", "colour"})
    elif name == "derive":
        w.census_rows = [(4, "mixed", False), (7, "neumann", False)]
        tp = lt.transplant
        mixed4 = lt.enumeration.census_details(4, COLORS, "mixed")[1]
        neumann7 = lt.enumeration.census_details(7, COLORS, "neumann")[1]
        bases = [(g1, g2, tp.decide(g1, g2).witness) for g1, g2 in mixed4]
        for entry in ("gww", "square-triangle"):
            e = lt.catalog(entry)
            bases.append((e.graphs[0], e.graphs[1], e.witness))
        crossing = [(g1, g2, tp.decide(g1, g2).witness) for g1, g2 in neumann7]
        small = list(lt.enumeration.enumerate_classes(2, COLORS, "neumann"))
        small += list(lt.enumeration.enumerate_classes(3, COLORS, "neumann"))
        two, plans, three, plan3 = _substituents(lt)
        ops = _transform_ops(lt, bases, {"swap", "braid", "colour"})
        for g1, g2, t in bases:
            if g1.colors == COLORS:
                ops.append(("substitute", g1, g2, t, (two, plans[len(ops) % len(plans)])))
        gww = bases[-2]
        for g1, g2, t in crossing + [gww]:
            ops.append(("substitute", g1, g2, t, (three, plan3)))
        for g1, g2, t in crossing:
            ops += [("cross", g1, g2, t, (b, lt.algebra.RatMatrix.identity(b.vertices))) for b in small]
        # the character route costs about 0.1 s a pair: every eighth V=4 pair
        # and both catalog pairs
        w.state["characters"] = [(g1, g2) for g1, g2, _ in bases[:-2:8] + bases[-2:]]
        w.state["ops"] = ops
    else:
        raise SystemExit(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    return w


# ---------------------------------------------------------------- metrics


def _pct(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: at least (1-q) of the values lie at or above it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 1))
    return ordered[int(rank) - 1]


def _phase_totals(phases: Sequence[Phase]) -> dict[str, list[float]]:
    """Calls, distinct inputs, and seconds of all passes, per phase."""
    return {p.name: [len(p.times), len(set(p.keys)), sum(p.times)] for p in phases}


def merge_times(times: dict[str, dict[Any, list[float]]], phases: Sequence[Phase]) -> None:
    """Per phase and input, the times of its passes so far."""
    for phase in phases:
        per_key = times.setdefault(phase.name, {})
        for key, t in zip(phase.keys, phase.times):
            per_key.setdefault(key, []).append(t)


def run_metrics(times: dict[str, dict[Any, list[float]]]) -> dict[str, float]:
    """Metrics over each input's median time."""
    med = {name: [statistics.median(ts) for ts in per_key.values()] for name, per_key in times.items()}

    def rate(name: str) -> float:
        return len(med[name]) / sum(med[name])

    check, group = med["check"], med["group"]
    return {
        "census_s": sum(med["census"]),
        "check_pairs_per_s": rate("check"),
        "check_p50_ms": 1e3 * _pct(check, 0.5),
        "check_p99_ms": 1e3 * _pct(check, 0.99),
        "verdict_pairs_per_s": rate("verdict"),
        "group_pairs_per_s": rate("group"),
        "group_p50_ms": 1e3 * _pct(group, 0.5),
        "group_p90_ms": 1e3 * _pct(group, 0.9),
        "derived_pairs_per_s": rate("derive"),
        "character_pairs_per_s": rate("character"),
    }


# ---------------------------------------------------------------- checking


class Certifier:
    """Runs the independent checker over every output; counts failures."""

    def __init__(self, checker: Any) -> None:
        self.ck = checker
        self.failures: list[str] = []
        self._seen: dict[tuple, bool] = {}

    def fail(self, what: str) -> None:
        self.failures.append(what)

    def witness(self, a: tuple, b: tuple, t: Any) -> bool:
        key = (a, b, t)
        if key not in self._seen:
            self._seen[key] = self.ck.witness_ok(a, b, matrix(t))
        return self._seen[key]

    def decision(self, g1: Any, g2: Any, d: Any) -> bool:
        """An output of ``decide`` carries a valid witness or certificate."""
        if d is None:
            return False
        a, b = rows(g1), rows(g2)
        key = (a, b, d.verdict, d.witness, d.certificate)
        if key in self._seen:
            return self._seen[key]
        if d.verdict:
            ok = d.witness is not None and self.witness(a, b, d.witness)
        else:
            c = d.certificate
            ok = c is not None and self.ck.certificate_ok(a, b, c.kind, c.word)
        self._seen[key] = ok
        return ok

    def phases(self, phases: Sequence[Phase], expect_yes: int | None) -> int:
        """Check one round; return the number of failed operations.

        ``expect_yes`` is the number of yes verdicts of the check phase;
        None means every checked pair must be transplantable.
        """
        by = {p.name: p for p in phases}
        failed = sum(len(p.errors) for p in phases)
        self.failures += [e for p in phases for e in p.errors]
        check = by["check"]
        verdicts: dict[tuple[int, int], bool] = {}
        for pair, d in zip(check.items, check.outputs):
            if d is None:
                continue
            verdicts[(id(pair[0]), id(pair[1]))] = d.verdict
            if not self.decision(pair[0], pair[1], d):
                failed += 1
                self.fail("check: output not certified")
        first = {}
        for key, d in zip(check.keys, check.outputs):
            if d is not None:
                first.setdefault(key, d.verdict)
        yes = sum(first.values())
        if yes != (len(first) if expect_yes is None else expect_yes):
            failed += 1
            self.fail(f"check: {yes} yes verdicts of {len(first)} inputs")
        for name in ("verdict", "group"):
            p = by[name]
            for pair, out in zip(p.items, p.outputs):
                if out is None:
                    continue
                v = out if name == "verdict" else out.verdict
                agree = verdicts.get((id(pair[0]), id(pair[1]))) == v
                if not agree or (name == "group" and not self.decision(pair[0], pair[1], out)):
                    failed += 1
                    self.fail(f"{name}: route disagrees or output not certified")
        for out in by["derive"].outputs:
            if out is None:
                continue
            kind, h1, h2, w, ok = out
            if not (ok and self.witness(rows(h1), rows(h2), w)):
                failed += 1
                self.fail(f"derive: transported witness of a {kind} pair fails")
        char = by["character"]
        for pair, out in zip(char.items, char.outputs):
            if out is None:
                continue
            equal, back, iso, _ = out
            ok = equal and all(i is not None for i in iso)
            for s, g in zip(back, pair):
                ok = ok and s.vertices == g.vertices
                ok = ok and self.ck.trace_table(rows(s)) == self.ck.trace_table(rows(g))
            if not ok:
                failed += 1
                self.fail("character: characters differ or Schreier graph differs")
        census = by["census"]
        for item, out in zip(census.items, census.outputs):
            if out is None:
                continue
            vertices, regime, quilts = item
            row, pairs, quotients = out
            counts = (row.class_count, row.treelike_count, row.pair_count,
                      row.treelike_pair_count, row.class_pair_count)
            ok = self.ck.census_ok(vertices, regime, counts) and len(pairs) == row.pair_count
            if quilts:
                ok = ok and self._quotients(pairs, quotients, row)
            if not ok:
                failed += 1
                self.fail(f"census: V={vertices} {regime} row {counts} or its quotients")
        return failed

    def _quotients(self, pairs: Sequence[Any], quotients: Sequence[tuple[str, Any]], row: Any) -> bool:
        key = {id(p): i for i, p in enumerate(pairs)}
        colour = next((cls for kind, cls in quotients if kind == "colour"
                       and sum(map(len, cls)) == len(pairs)), None)
        quilt = next((cls for kind, cls in quotients if kind == "quilt"), None)
        if colour is None or quilt is None or len(colour) != row.class_pair_count:
            return False
        if len(quilt) != row.quilt_count:
            return False
        as_keys = [[key.get(id(p)) for p in cls] for cls in colour]
        quilt_keys = [[key.get(id(p)) for p in cls] for cls in quilt]
        return self.ck.quotient_nested(as_keys, quilt_keys)


# ---------------------------------------------------------------- tracing


LAYER_SPANS = [
    # (owner, attribute, span name)
    ("enumeration", "census_details", "enumeration.census_details"),
    ("enumeration", "enumerate_packed", "enumeration.enumerate_packed"),
    ("enumeration", "find_pairs_packed", "enumeration.find_pairs_packed"),
    ("enumeration", "colour_classes", "enumeration.colour_classes"),
    ("enumeration", "quilt_classes", "enumeration.quilt_classes"),
    ("enumeration", "transplantable", "transplant.transplantable"),
    ("enumeration", "det_probe", "invariants.det_probe"),
    ("enumeration", "canonical_form", "graph.canonical_form"),
    ("enumeration", "braid", "transform.braid"),
    ("transplant", "transplantable", "transplant.transplantable"),
    ("transplant", "verify_witness", "transplant.verify_witness"),
    ("transplant", "intertwiner_space", "transplant.intertwiner_space"),
    ("transplant", "int_det", "algebra.int_det"),
    ("transform", "swap_loop_signs", "transform.swap_loop_signs"),
    ("transform", "transport_dual_witness", "transform.transport_dual_witness"),
    ("transform", "braid", "transform.braid"),
    ("transform", "braid_conjugator", "transform.braid_conjugator"),
    ("transform", "copy_colour", "transform.copy_colour"),
    ("transform", "add_colour", "transform.add_colour"),
    ("transform", "omit_colour", "transform.omit_colour"),
    ("transform", "cross", "transform.cross"),
    ("transform", "cross_witness", "transform.cross_witness"),
    ("transform", "substitute", "transform.substitute"),
    ("transform", "substitution_witness", "transform.substitution_witness"),
    ("reps", "associated_pairs", "reps.associated_pairs"),
    ("reps", "characters_equal", "reps.characters_equal"),
    ("reps", "schreier_graph", "reps.schreier_graph"),
    ("graph", "disjoint_union", "graph.disjoint_union"),
    ("graph", "is_isomorphic", "graph.is_isomorphic"),
]

# per-layer metric name -> unit, in the order BENCHMARK.json lists them
LAYER_METRICS = {
    "enumeration.enumerate_packed.self_s": "s",
    "enumeration.leaves": "count",
    "enumeration.classes": "count",
    "enumeration.canonical_yield": "ratio",
    "enumeration.hash_buckets": "count",
    "enumeration.candidate_pairs": "count",
    "enumeration.find_pairs_packed.self_s": "s",
    "invariants.det_probe.calls": "count",
    "invariants.det_probe.self_s": "s",
    "transplant.transplantable.calls": "count",
    "transplant.transplantable.self_s": "s",
    "transplant.transplantable.yield": "ratio",
    "enumeration.colour_classes.self_s": "s",
    "enumeration.quilt_classes.self_s": "s",
    "graph.canonical_form.calls": "count",
    "graph.canonical_form.self_s": "s",
    "enumeration.census_details.self_s": "s",
    "transform.braid.calls": "count",
    "transform.braid.self_s": "s",
    "transplant.decide.witness_s": "s",
    "transplant.intertwiner_space.calls": "count",
    "transplant.intertwiner_space.self_s": "s",
    "algebra.int_det.calls": "count",
    "algebra.int_det.self_s": "s",
    "transplant.witness_yield": "ratio",
    "transplant.decide.certificate_s": "s",
    "transplant.certificate_len.p50": "letters",
    "transplant.decide.group_s": "s",
    "transform.swap_loop_signs.calls": "count",
    "transform.swap_loop_signs.self_s": "s",
    "transform.cross.calls": "count",
    "transform.cross.self_s": "s",
    "transform.substitute.calls": "count",
    "transform.substitute.self_s": "s",
    "algebra.RatMatrix.matmul.calls": "count",
    "algebra.RatMatrix.matmul.self_s": "s",
    "transplant.verify_witness.calls": "count",
    "transplant.verify_witness.self_s": "s",
    "reps.associated_pairs.self_s": "s",
    "reps.group_order.sum": "count",
    "reps.characters_equal.self_s": "s",
    "reps.schreier_graph.self_s": "s",
    "graph.is_isomorphic.self_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.listed_self_s": "s",
    "trace.other_self_s": "s",
    "trace.remainder_s": "s",
    "trace.gc_s": "s",
}


def _decide_label(d: Any) -> str:
    if d.method == "group":
        return "transplant.decide.group"
    return "transplant.decide.witness" if d.verdict else "transplant.decide.certificate"


def traced_round(w: Workload) -> tuple[list[Phase], dict[str, float], Any]:
    """Run one round under the tracer and return its per-layer metrics."""
    from tracer import Tracer

    lt = w.lt
    tr = Tracer()
    counts = {"leaves": 0, "classes": 0, "buckets": 0, "candidates": 0,
              "true": 0, "group_order": 0, "witnesses": 0}
    cert_len: list[int] = []
    progress = {"leaves": 0, "classes": 0}

    def on_progress(leaves: int, classes: int) -> None:
        progress["leaves"], progress["classes"] = leaves, classes

    def on_census(args: tuple, result: Any) -> None:
        counts["leaves"] += progress["leaves"]
        counts["classes"] += progress["classes"]
        progress["leaves"] = progress["classes"] = 0

    def on_find(args: tuple, result: Any) -> None:
        import numpy as np

        _, sizes = np.unique(args[0].trace_hash, return_counts=True)
        sizes = sizes[sizes > 1]
        counts["buckets"] += int(len(sizes))
        counts["candidates"] += int((sizes * (sizes - 1) // 2).sum())

    def on_verdict(args: tuple, result: Any) -> None:
        counts["true"] += bool(result)

    def on_decide(args: tuple, d: Any) -> None:
        if d.method == "orbit" and d.verdict and d.witness is not None:
            counts["witnesses"] += 1
        if d.method == "orbit" and not d.verdict and d.certificate is not None:
            cert_len.append(len(d.certificate.word))

    def on_group(args: tuple, result: Any) -> None:
        counts["group_order"] += result[0].order

    hooks = {"enumeration.census_details": on_census, "enumeration.find_pairs_packed": on_find,
             "transplant.transplantable": on_verdict, "reps.associated_pairs": on_group}
    for owner, attr, name in LAYER_SPANS:
        tr.wrap(getattr(lt, owner), attr, name, on_call=hooks.get(name))
    tr.wrap(lt.transplant, "decide", "transplant.decide", label=_decide_label, on_call=on_decide)
    tr.wrap(lt.algebra.RatMatrix, "__matmul__", "algebra.RatMatrix.matmul")
    w.ops.progress = on_progress
    start = time.perf_counter()
    try:
        phases = w.round()
    finally:
        wall = time.perf_counter() - start
        tr.restore()
        w.ops.progress = None
    layers = tr.layers()

    def calls(name: str) -> float:
        return float(layers.get(name, (0, 0.0))[0])

    def self_s(name: str) -> float:
        return layers.get(name, (0, 0.0))[1]

    m: dict[str, float] = {}
    for metric in LAYER_METRICS:
        base, _, leaf = metric.rpartition(".")
        if leaf == "calls":
            m[metric] = calls(base)
        elif leaf == "self_s":
            m[metric] = self_s(base)
    m["transplant.decide.witness_s"] = self_s("transplant.decide.witness")
    m["transplant.decide.certificate_s"] = self_s("transplant.decide.certificate")
    m["transplant.decide.group_s"] = self_s("transplant.decide.group")
    m["enumeration.leaves"] = float(counts["leaves"])
    m["enumeration.classes"] = float(counts["classes"])
    m["enumeration.canonical_yield"] = counts["classes"] / counts["leaves"] if counts["leaves"] else 0.0
    m["enumeration.hash_buckets"] = float(counts["buckets"])
    m["enumeration.candidate_pairs"] = float(counts["candidates"])
    n_tp = calls("transplant.transplantable")
    m["transplant.transplantable.yield"] = counts["true"] / n_tp if n_tp else 0.0
    n_det = calls("algebra.int_det")
    m["transplant.witness_yield"] = counts["witnesses"] / n_det if n_det else 0.0
    m["transplant.certificate_len.p50"] = float(statistics.median(cert_len)) if cert_len else 0.0
    m["reps.group_order.sum"] = float(counts["group_order"])
    listed = {name for name in layers if f"{name}.self_s" in LAYER_METRICS}
    listed |= {"transplant.decide.witness", "transplant.decide.certificate", "transplant.decide.group"}
    m["trace.traced_wall_s"] = wall
    m["trace.listed_self_s"] = sum(layers[n][1] for n in listed if n in layers)
    m["trace.other_self_s"] = sum(v[1] for n, v in layers.items() if n not in listed)
    m["trace.remainder_s"] = wall - tr.top_level_s()
    m["trace.gc_s"] = w.state["gc_s"]
    return phases, m, tr


# ---------------------------------------------------------------- main


def main(argv: Sequence[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="file to write the traced run's spans to")
    args = ap.parse_args(argv)

    import checker

    problems = checker.self_test()
    if problems:
        print("checker self-test failed: " + "; ".join(problems), file=sys.stderr)
        return 1

    start = time.perf_counter()
    w = setup(args.workload, args.seed)
    setup_s = time.perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # the tap hands the quotient classes of each census row to the checker
    enum = w.lt.enumeration
    for kind, attr in (("colour", "colour_classes"), ("quilt", "quilt_classes")):
        def tap(pairs: Any, _fn: Any = getattr(enum, attr), _kind: str = kind) -> Any:
            out = _fn(pairs)
            w.ops.quotients.append((_kind, out))
            return out
        setattr(enum, attr, tap)

    certifier = Certifier(checker)
    # yes verdicts of the check phase: the V=6 row's 957 pairs among the
    # 1,035 V=6 candidates, 1,069 of the 1,195 candidates, every derived pair
    expect_yes = {"census": 957, "decide": 1069, "derive": None}[args.workload]
    rounds: list[dict[str, Any]] = []
    times: dict[str, dict[Any, list[float]]] = {}
    attempted = failed = 0
    check_s = 0.0
    per_layer: dict[str, float] = {}
    tracer = None
    for _ in range(max(1, round(args.seconds / ROUND_S[args.workload]))):
        w.state["round"] = len(rounds)
        t0 = time.perf_counter()
        phases = w.round()
        round_s = time.perf_counter() - t0
        merge_times(times, phases)
        this_round: dict[str, dict[Any, list[float]]] = {}
        merge_times(this_round, phases)
        rounds.append({"metrics": run_metrics(this_round), "round_s": round_s,
                       "gc_s": w.state["gc_s"], "phases": _phase_totals(phases)})
        attempted += sum(len(p.items) for p in phases)
        t0 = time.perf_counter()
        failed += certifier.phases(phases, expect_yes)
        check_s += time.perf_counter() - t0
        if args.trace:
            w.state["round"] = len(rounds)
            phases, per_layer, tracer = traced_round(w)
            attempted += sum(len(p.items) for p in phases)
            failed += certifier.phases(phases, expect_yes)
            per_layer["trace.untraced_wall_s"] = round_s
            per_layer["trace.overhead_s"] = per_layer["trace.traced_wall_s"] - round_s
            break
    if tracer is not None and args.spans:
        tracer.write(args.spans)

    metrics = run_metrics(times)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rounds": rounds,
        "metrics": metrics,
        "per_layer": {k: [per_layer[k], unit] for k, unit in LAYER_METRICS.items()} if args.trace else {},
        "attempted": attempted,
        "failed": failed,
        "failures": certifier.failures[:20],
        "checker_s": check_s,
        "samples": {p.name: len(set(p.keys)) for p in phases},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
