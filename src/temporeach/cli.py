"""Command-line surface: solve, generate, verify, and oracle subcommands with
line-stable machine-readable output.

Exit codes: 0 = yes/valid, 1 = no/invalid, 2 = error or refusal.  Text mode
prints fixed-order KEY value lines; ``--json`` mirrors the same fields.
"""

from __future__ import annotations

import json
import sys
from typing import Optional

import click

from . import ecc as eccmod
from . import testkit, treedp, twdp
from .limits import CapExceeded
from .reach import foremost_tree, max_reachability, reach_set
from .solvers import SolveResult, TrlpInstance, solve_trlp, solve_trp
from .tgraph import (
    FormatError,
    PerturbationError,
    TemporalGraph,
    apply_perturbation,
    parse_graph,
    parse_perturbation,
    serialize_graph,
    validate_relabelling,
)

EXIT_YES, EXIT_NO, EXIT_ERROR = 0, 1, 2

# Every click.echo here names file=sys.stdout.  Without it click caches a
# wrapper per stream in a WeakKeyDictionary whose value holds its key, so
# each in-process invocation (CliRunner) would keep its output buffer alive.


def _load_graph(path: str) -> TemporalGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read(), allow_headers=True)


def _emit(fields: list[tuple[str, object]], as_json: bool) -> None:
    if as_json:
        obj: dict[str, object] = {}
        for key, val in fields:
            k = key.lower()
            if k == "perturb":
                obj.setdefault("perturb", []).append(val)
            else:
                obj[k] = val
        click.echo(json.dumps(obj, sort_keys=True), file=sys.stdout)
    else:
        for key, val in fields:
            if isinstance(val, (list, tuple)):
                click.echo(f"{key} " + " ".join(str(x) for x in val), file=sys.stdout)
            else:
                click.echo(f"{key} {val}", file=sys.stdout)


def _result_fields(res: SolveResult) -> list[tuple[str, object]]:
    fields: list[tuple[str, object]] = [("ANSWER", "yes" if res.answer else "no")]
    if res.answer:
        fields.append(("SOURCE", res.source))
        if res.ecc_value is not None:
            fields.append(("ECC", res.ecc_value))
        fields.append(("REACH", res.reach_count))
        if res.perturbation is not None:
            for (u, v), old, new in res.perturbation.moved_records():
                fields.append(("PERTURB", [u, v, old, new]))
    fields.append(("STRATEGY", res.strategy))
    return fields


def _finish(res: SolveResult, as_json: bool) -> None:
    _emit(_result_fields(res), as_json)
    sys.exit(EXIT_YES if res.answer else EXIT_NO)


def _refuse(reason: str, as_json: bool) -> None:
    if as_json:
        click.echo(json.dumps({"refused": reason}), file=sys.stdout)
    else:
        click.echo(f"REFUSED {reason}", file=sys.stdout)
    sys.exit(EXIT_ERROR)


@click.group()
def main() -> None:
    """Exact temporal reachability and eccentricity under timing perturbations."""


@main.command()
@click.option("-g", "--graph", "graph_path", required=True, type=click.Path(exists=True))
@click.option("--delta", required=True, type=int)
@click.option("--zeta", required=True, type=int)
@click.option("--h", "h", required=True, type=int)
@click.option(
    "--strategy",
    default="auto",
    type=click.Choice(["auto", "degree", "bigzeta", "tree", "treewidth", "xp", "oracle"]),
)
@click.option("--decomp", "decomp_path", type=click.Path(exists=True))
@click.option("--json", "as_json", is_flag=True)
def trlp(graph_path, delta, zeta, h, strategy, decomp_path, as_json) -> None:
    """Can some vertex reach at least h vertices after at most zeta moves?"""
    try:
        g = _load_graph(graph_path)
        inst = TrlpInstance(g, delta, zeta, h)
        decomp = None
        if decomp_path:
            with open(decomp_path, "r", encoding="utf-8") as fh:
                decomp = twdp.parse_decomposition(fh.read())
        res = solve_trlp(inst, strategy=strategy, decomposition=decomp)
    except CapExceeded as exc:
        _refuse(str(exc), as_json)
    except (FormatError, PerturbationError, ValueError, twdp.DecompositionError) as exc:
        _refuse(str(exc), as_json)
    _finish(res, as_json)


@main.command()
@click.option("-g", "--graph", "graph_path", required=True, type=click.Path(exists=True))
@click.option("--delta", required=True, type=int)
@click.option("--h", "h", required=True, type=int)
@click.option("--json", "as_json", is_flag=True)
def trp(graph_path, delta, h, as_json) -> None:
    """Unlimited-count variant: every appearance may move by up to delta."""
    try:
        g = _load_graph(graph_path)
        res = solve_trp(g, delta, h)
    except (FormatError, ValueError) as exc:
        _refuse(str(exc), as_json)
    _finish(res, as_json)


@main.command()
@click.option("-g", "--graph", "graph_path", required=True, type=click.Path(exists=True))
@click.option("--source", required=True, type=int)
@click.option("--variant", required=True, type=click.Choice(["shortest", "fastest"]))
@click.option("-k", "--k", "k", required=True, type=int)
@click.option("--delta", required=True, type=int)
@click.option("--zeta", required=True, type=int)
@click.option("--json", "as_json", is_flag=True)
def ecc(graph_path, source, variant, k, delta, zeta, as_json) -> None:
    """Can a perturbation bring the source's eccentricity down to k?"""
    try:
        g = _load_graph(graph_path)
        inst = eccmod.EccInstance(g, source, k, delta, zeta, variant)
        res = eccmod.solve_ecc_perturbed(inst)
    except CapExceeded as exc:
        _refuse(str(exc), as_json)
    except (FormatError, ValueError) as exc:
        _refuse(str(exc), as_json)
    _finish(res, as_json)


@main.command()
@click.option("-g", "--graph", "graph_path", required=True, type=click.Path(exists=True))
@click.option("--source", type=int)
@click.option("--json", "as_json", is_flag=True)
def reach(graph_path, source, as_json) -> None:
    """Foremost arrivals from a source, or the best source without one."""
    try:
        g = _load_graph(graph_path)
    except FormatError as exc:
        _refuse(str(exc), as_json)
    if source is None:
        try:
            src, count = max_reachability(g)
        except ValueError as exc:
            _refuse(str(exc), as_json)
        _emit([("RMAX", count), ("SOURCE", src)], as_json)
        sys.exit(EXIT_YES)
    try:
        tree = foremost_tree(g, source)
    except ValueError as exc:
        _refuse(str(exc), as_json)
    fields: list[tuple[str, object]] = [("SOURCE", source), ("REACH", tree.count())]
    for v, a in enumerate(tree.arrival):
        fields.append(("ARRIVAL", [v, a if a is not None else "inf"]))
    _emit(fields, as_json)
    sys.exit(EXIT_YES)


@main.group()
def gen() -> None:
    """Instance generators."""


def _write_out(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False, file=sys.stdout)


@gen.command("domset")
@click.option("-g", "--graph", "graph_path", required=True, type=click.Path(exists=True))
@click.option("-r", required=True, type=int)
@click.option("-o", "--out", type=click.Path())
def gen_domset(graph_path, r, out) -> None:
    """Reduce a dominating-set question on a static graph (.tg labels ignored
    are not allowed; use `e u v` lines only as a static edge list)."""
    with open(graph_path, "r", encoding="utf-8") as fh:
        sg = _parse_static(fh.read())
    inst = testkit.domset_to_trlp(sg, r)
    text = serialize_graph(inst.graph) + (
        f"delta {inst.delta}\nzeta {inst.zeta}\nh {inst.h}\n"
    )
    _write_out(text, out)


def _parse_static(text: str) -> testkit.StaticGraph:
    n = None
    edges = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "n":
            n = int(parts[1])
        elif parts[0] == "e":
            u, v = int(parts[1]), int(parts[2])
            edges.append((min(u, v), max(u, v)))
        else:
            raise FormatError(line_no, f"unknown line kind {parts[0]!r}")
    if n is None:
        raise FormatError(0, "missing 'n' line")
    return testkit.StaticGraph(n, tuple(sorted(edges)))


@gen.command("sat-tsep")
@click.option("-f", "--formula", "cnf_path", required=True, type=click.Path(exists=True))
@click.option("-k", "--k", "k", default=4, type=int)
@click.option("--delta", default=1, type=int)
@click.option("-o", "--out", type=click.Path())
def gen_sat_tsep(cnf_path, k, delta, out) -> None:
    """Length-eccentricity gadget from a DIMACS CNF formula."""
    with open(cnf_path, "r", encoding="utf-8") as fh:
        f = testkit.parse_dimacs(fh.read())
    inst = testkit.sat_to_tsep(f, k, delta)
    _write_out(_ecc_instance_text(inst), out)


@gen.command("sat-tfaep")
@click.option("-f", "--formula", "cnf_path", required=True, type=click.Path(exists=True))
@click.option("-k", "--k", "k", default=2, type=int)
@click.option("--delta", default=1, type=int)
@click.option("-o", "--out", type=click.Path())
def gen_sat_tfaep(cnf_path, k, delta, out) -> None:
    """Duration-eccentricity gadget from a DIMACS CNF formula.

    -k is the duration bound under unit traversal time; the `k` line written
    is one less, in the last-minus-first convention that `ecc` uses.
    """
    with open(cnf_path, "r", encoding="utf-8") as fh:
        f = testkit.parse_dimacs(fh.read())
    inst = testkit.sat_to_tfaep(f, k, delta)
    _write_out(_ecc_instance_text(inst), out)


def _ecc_instance_text(inst: eccmod.EccInstance) -> str:
    return serialize_graph(inst.graph) + (
        f"delta {inst.delta}\nzeta {inst.zeta}\nk {inst.k}\n"
        f"source {inst.source}\nvariant {inst.variant}\n"
    )


@gen.command("random")
@click.option("--profile", required=True, type=click.Choice(list(testkit.PROFILES)))
@click.option("--seed", required=True, type=int)
@click.option("-o", "--out", type=click.Path())
def gen_random(profile, seed, out) -> None:
    """Seeded random micro instance."""
    inst = testkit.random_instance(seed, profile)
    text = serialize_graph(inst.graph) + (
        f"delta {inst.delta}\nzeta {inst.zeta}\nh {inst.h}\n"
    )
    _write_out(text, out)


@main.command()
@click.option("-g", "--graph", "graph_path", required=True, type=click.Path(exists=True))
@click.option("-p", "--perturbation", "pert_path", required=True, type=click.Path(exists=True))
@click.option("--source", required=True, type=int)
@click.option("--h", "h", type=int)
@click.option("--variant", type=click.Choice(["shortest", "fastest"]))
@click.option("-k", "--k", "k", type=int)
@click.option("--json", "as_json", is_flag=True)
def verify(graph_path, pert_path, source, h, variant, k, as_json) -> None:
    """Re-check a claimed certificate: bounds, then reach >= h or ecc <= k."""
    try:
        g = _load_graph(graph_path)
        with open(pert_path, "r", encoding="utf-8") as fh:
            p = parse_perturbation(fh.read())
        if not (0 <= source < g.n):
            raise ValueError(f"source {source} out of range")
        perturbed = apply_perturbation(g, p)
        moved = validate_relabelling(g, perturbed, p.delta)
    except (FormatError, PerturbationError, ValueError) as exc:
        _refuse(str(exc), as_json)
    fields: list[tuple[str, object]] = []
    ok = moved is not None and moved <= p.zeta
    reason = None if ok else "perturbation outside declared bounds"
    if ok and h is not None:
        count = len(reach_set(perturbed, source))
        fields.append(("REACH", count))
        if count < h:
            ok, reason = False, f"reach {count} below h={h}"
    elif ok and variant is not None and k is not None:
        val = eccmod.measure(perturbed, source, variant)
        fields.append(("ECC", val if val is not None else "inf"))
        if val is None or val > k:
            ok, reason = False, f"eccentricity above k={k}"
    elif ok:
        _refuse("need --h or (--variant and -k)", as_json)
    head = [("RESULT", "VALID" if ok else "INVALID")]
    if reason:
        head.append(("REASON", reason))
    _emit(head + fields, as_json)
    sys.exit(EXIT_YES if ok else EXIT_NO)


@main.group()
def oracle() -> None:
    """Brute-force ground truth (guarded by work caps)."""


@oracle.command("trlp")
@click.option("-g", "--graph", "graph_path", required=True, type=click.Path(exists=True))
@click.option("--delta", required=True, type=int)
@click.option("--zeta", required=True, type=int)
@click.option("--h", "h", required=True, type=int)
@click.option("--json", "as_json", is_flag=True)
def oracle_trlp_cmd(graph_path, delta, zeta, h, as_json) -> None:
    try:
        g = _load_graph(graph_path)
        res = testkit.oracle_trlp(TrlpInstance(g, delta, zeta, h))
    except CapExceeded as exc:
        _refuse(str(exc), as_json)
    except (FormatError, ValueError) as exc:
        _refuse(str(exc), as_json)
    _finish(res, as_json)


@oracle.command("ecc")
@click.option("-g", "--graph", "graph_path", required=True, type=click.Path(exists=True))
@click.option("--source", required=True, type=int)
@click.option("--variant", required=True, type=click.Choice(["shortest", "fastest"]))
@click.option("-k", "--k", "k", required=True, type=int)
@click.option("--delta", required=True, type=int)
@click.option("--zeta", required=True, type=int)
@click.option("--json", "as_json", is_flag=True)
def oracle_ecc_cmd(graph_path, source, variant, k, delta, zeta, as_json) -> None:
    try:
        g = _load_graph(graph_path)
        inst = eccmod.EccInstance(g, source, k, delta, zeta, variant)
        res = testkit.oracle_ecc(inst)
    except CapExceeded as exc:
        _refuse(str(exc), as_json)
    except (FormatError, ValueError) as exc:
        _refuse(str(exc), as_json)
    _finish(res, as_json)


if __name__ == "__main__":
    main()
