"""Command-line surface: solve, generate, verify, and oracle subcommands with
line-stable machine-readable output.

Exit codes: 0 = yes/valid, 1 = no/invalid, 2 = refusal (a REFUSED line),
usage error or internal error (a traceback on stderr).  Text mode prints
fixed-order KEY value lines; ``--json`` mirrors the same fields.

Every command is a ``_Command``, whose ``invoke`` is the one place that exits
and that decides how an exception leaves a command: a cap or an invalid input
refuses, click's own exceptions pass through, and anything else is an
internal error.
"""

from __future__ import annotations

import json
import sys
import traceback
from typing import Optional

import click

from . import ecc as eccmod
from . import testkit, treedp, twdp
from .limits import CapExceeded
from .reach import foremost_tree, max_reachability, reach_set
from .solvers import STRATEGIES, SolveResult, TrlpInstance, solve_trlp, solve_trp
from .tgraph import (
    FormatError,
    TemporalGraph,
    _parse_lines,
    apply_perturbation,
    parse_graph,
    parse_perturbation,
    serialize_graph,
)

EXIT_YES, EXIT_NO, EXIT_ERROR = 0, 1, 2

# every input file: a directory is a usage error (exit 2), not a traceback
_IN_FILE = click.Path(exists=True, dir_okay=False)

# Every click.echo here names file=sys.stdout.  Without it click caches a
# wrapper per stream in a WeakKeyDictionary whose value holds its key, so
# each in-process invocation (CliRunner) would keep its output buffer alive.


def _load_graph(path: str) -> TemporalGraph:
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse_graph(fh.read(), allow_headers=True)


def _emit(fields: list[tuple[str, object]], ok: bool, as_json: bool) -> int:
    """Print ``fields``; the exit code is 0 if ``ok`` (yes/valid), else 1."""
    if as_json:
        obj: dict[str, object] = {}
        for key, val in fields:
            k = key.lower()
            if k in ("perturb", "arrival"):
                obj.setdefault(k, []).append(val)
            else:
                obj[k] = val
        click.echo(json.dumps(obj, sort_keys=True), file=sys.stdout)
    else:
        lines = (
            f"{key} {' '.join(map(str, val)) if isinstance(val, (list, tuple)) else val}"
            for key, val in fields
        )
        click.echo("\n".join(lines), file=sys.stdout)
    return EXIT_YES if ok else EXIT_NO


def _answer(res: SolveResult, as_json: bool) -> int:
    """Print a solver's result; the exit code is 0 for a yes, 1 for a no."""
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
    return _emit(fields, res.answer, as_json)


class _Command(click.Command):
    """A command whose callback returns its exit code (None for 0).  Exiting
    here, not in the callback, keeps the callback's frame and the graphs in it
    out of the SystemExit traceback that an in-process caller (CliRunner) keeps."""

    def invoke(self, ctx: click.Context):
        try:
            sys.exit(super().invoke(ctx))
        except (click.ClickException, click.exceptions.Exit, click.Abort):
            raise
        except (CapExceeded, ValueError) as exc:
            if ctx.params.get("as_json"):
                click.echo(json.dumps({"refused": str(exc)}), file=sys.stdout)
            else:
                click.echo(f"REFUSED {exc}", file=sys.stdout)
        except Exception:  # an internal error exits 2, never 1, the code of a "no"
            traceback.print_exc()
        sys.exit(EXIT_ERROR)


class _Main(click.Group):
    command_class = _Command
    group_class = type  # so `gen` and `oracle` make _Command commands too


@click.group(cls=_Main)
def main() -> None:
    """Exact temporal reachability and eccentricity under timing perturbations."""


@main.command()
@click.option("-g", "--graph", "graph_path", required=True, type=_IN_FILE)
@click.option("--delta", required=True, type=int)
@click.option("--zeta", required=True, type=int)
@click.option("--h", "h", required=True, type=int)
@click.option("--strategy", default="auto", type=click.Choice(("auto", *STRATEGIES)))
@click.option("--decomp", "decomp_path", type=_IN_FILE)
@click.option("--json", "as_json", is_flag=True)
def trlp(graph_path, delta, zeta, h, strategy, decomp_path, as_json) -> int:
    """Can some vertex reach at least h vertices after at most zeta moves?"""
    inst = TrlpInstance(_load_graph(graph_path), delta, zeta, h)
    decomp = None
    if decomp_path:
        with open(decomp_path, "r", encoding="utf-8-sig") as fh:
            decomp = twdp.parse_decomposition(fh.read())
    return _answer(solve_trlp(inst, strategy=strategy, decomposition=decomp), as_json)


@main.command()
@click.option("-g", "--graph", "graph_path", required=True, type=_IN_FILE)
@click.option("--delta", required=True, type=int)
@click.option("--h", "h", required=True, type=int)
@click.option("--json", "as_json", is_flag=True)
def trp(graph_path, delta, h, as_json) -> int:
    """Unlimited-count variant: every appearance may move by up to delta."""
    return _answer(solve_trp(_load_graph(graph_path), delta, h), as_json)


@main.command()
@click.option("-g", "--graph", "graph_path", required=True, type=_IN_FILE)
@click.option("--source", required=True, type=int)
@click.option("--variant", required=True, type=click.Choice(["shortest", "fastest"]))
@click.option("-k", "--k", "k", required=True, type=int)
@click.option("--delta", required=True, type=int)
@click.option("--zeta", required=True, type=int)
@click.option("--json", "as_json", is_flag=True)
def ecc(graph_path, source, variant, k, delta, zeta, as_json) -> int:
    """Can a perturbation bring the source's eccentricity down to k?"""
    inst = eccmod.EccInstance(_load_graph(graph_path), source, k, delta, zeta, variant)
    return _answer(eccmod.solve_ecc_perturbed(inst), as_json)


@main.command()
@click.option("-g", "--graph", "graph_path", required=True, type=_IN_FILE)
@click.option("--source", type=int)
@click.option("--json", "as_json", is_flag=True)
def reach(graph_path, source, as_json) -> int:
    """Foremost arrivals from a source, or the best source without one."""
    g = _load_graph(graph_path)
    if source is None:
        src, count = max_reachability(g)
        fields: list[tuple[str, object]] = [("RMAX", count), ("SOURCE", src)]
    else:
        tree = foremost_tree(g, source)
        fields = [("SOURCE", source), ("REACH", tree.count())]
        for v, a in enumerate(tree.arrival):
            fields.append(("ARRIVAL", [v, a if a is not None else "inf"]))
    return _emit(fields, True, as_json)


@main.group()
def gen() -> None:
    """Instance generators."""


def _write_out(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False, file=sys.stdout)


def _write_trlp_instance(inst: TrlpInstance, out: Optional[str]) -> None:
    text = serialize_graph(inst.graph) + f"delta {inst.delta}\nzeta {inst.zeta}\nh {inst.h}\n"
    _write_out(text, out)


@gen.command("domset")
@click.option("-g", "--graph", "graph_path", required=True, type=_IN_FILE)
@click.option("-r", required=True, type=int)
@click.option("-o", "--out", type=click.Path())
def gen_domset(graph_path, r, out) -> None:
    """Reduce a dominating-set question on a static graph: an `n` line and
    `e u v` lines; any labels after `e u v` are ignored."""
    with open(graph_path, "r", encoding="utf-8-sig") as fh:
        sg = _parse_static(fh.read())
    _write_trlp_instance(testkit.domset_to_trlp(sg, r), out)


def _parse_static(text: str) -> testkit.StaticGraph:
    """An `n <count>` line, then `e u v` lines, each edge once in either
    orientation; fields after `e u v` are ignored."""
    n = None
    edges: set[tuple[int, int]] = set()
    for line_no, parts in _parse_lines(text):
        kind = parts[0]
        if kind not in ("n", "e"):
            raise FormatError(line_no, f"unknown line kind {kind!r}")
        need = 2 if kind == "n" else 3
        if len(parts) < need:
            raise FormatError(line_no, f"'{kind}' line too short")
        try:
            ids = [int(x) for x in parts[1:need]]
        except ValueError:
            raise FormatError(line_no, f"non-integer field on '{kind}' line") from None
        if kind == "n":
            if n is not None:
                raise FormatError(line_no, "repeated 'n' line")
            if ids[0] < 0:
                raise FormatError(line_no, "vertex count must be nonnegative")
            n = ids[0]
            continue
        if n is None:
            raise FormatError(line_no, "edge before 'n' line")
        u, v = sorted(ids)
        if u < 0 or v >= n:
            raise FormatError(line_no, f"vertex id out of range on edge ({u},{v})")
        if u == v:
            raise FormatError(line_no, f"self-loop on vertex {u}")
        if (u, v) in edges:
            raise FormatError(line_no, f"duplicate edge ({u},{v})")
        edges.add((u, v))
    if n is None:
        raise FormatError(0, "missing 'n' line")
    return testkit.StaticGraph(n, tuple(sorted(edges)))


@gen.command("sat-tsep")
@click.option("-f", "--formula", "cnf_path", required=True, type=_IN_FILE)
@click.option("-k", "--k", "k", default=4, type=int)
@click.option("--delta", default=1, type=int)
@click.option("-o", "--out", type=click.Path())
def gen_sat_tsep(cnf_path, k, delta, out) -> None:
    """Length-eccentricity gadget from a DIMACS CNF formula."""
    _write_gadget(cnf_path, testkit.sat_to_tsep, k, delta, out)


@gen.command("sat-tfaep")
@click.option("-f", "--formula", "cnf_path", required=True, type=_IN_FILE)
@click.option("-k", "--k", "k", default=2, type=int)
@click.option("--delta", default=1, type=int)
@click.option("-o", "--out", type=click.Path())
def gen_sat_tfaep(cnf_path, k, delta, out) -> None:
    """Duration-eccentricity gadget from a DIMACS CNF formula.

    -k is the duration bound under unit traversal time; the `k` line written
    is one less, in the last-minus-first convention that `ecc` uses.
    """
    _write_gadget(cnf_path, testkit.sat_to_tfaep, k, delta, out)


def _write_gadget(cnf_path, reduction, k, delta, out) -> None:
    with open(cnf_path, "r", encoding="utf-8-sig") as fh:
        inst = reduction(testkit.parse_dimacs(fh.read()), k, delta)
    text = serialize_graph(inst.graph) + (
        f"delta {inst.delta}\nzeta {inst.zeta}\nk {inst.k}\n"
        f"source {inst.source}\nvariant {inst.variant}\n"
    )
    _write_out(text, out)


@gen.command("random")
@click.option("--profile", required=True, type=click.Choice(list(testkit.PROFILES)))
@click.option("--seed", required=True, type=int)
@click.option("-o", "--out", type=click.Path())
def gen_random(profile, seed, out) -> None:
    """Seeded random micro instance."""
    inst = testkit.random_instance(seed, profile)
    _write_trlp_instance(inst, out)


@main.command()
@click.option("-g", "--graph", "graph_path", required=True, type=_IN_FILE)
@click.option("-p", "--perturbation", "pert_path", required=True, type=_IN_FILE)
@click.option("--source", required=True, type=int)
@click.option("--h", "h", type=int)
@click.option("--variant", type=click.Choice(["shortest", "fastest"]))
@click.option("-k", "--k", "k", type=int)
@click.option("--json", "as_json", is_flag=True)
def verify(graph_path, pert_path, source, h, variant, k, as_json) -> int:
    """Re-check a claimed certificate: bounds, then reach >= h or ecc <= k."""
    g = _load_graph(graph_path)
    with open(pert_path, "r", encoding="utf-8-sig") as fh:
        p = parse_perturbation(fh.read())
    if not (0 <= source < g.n):
        raise ValueError(f"source {source} out of range")
    if h is not None and not (1 <= h <= g.n):
        raise ValueError(f"h must be in [1, n], got {h}")
    if h is None and k is not None and k < 0:
        raise ValueError("k must be nonnegative")
    perturbed = apply_perturbation(g, p)
    fields: list[tuple[str, object]] = []
    ok, reason = True, None
    if h is not None:
        count = len(reach_set(perturbed, source))
        fields.append(("REACH", count))
        if count < h:
            ok, reason = False, f"reach {count} below h={h}"
    elif variant is not None and k is not None:
        val = eccmod.measure(perturbed, source, variant)
        fields.append(("ECC", val if val is not None else "inf"))
        if val is None or val > k:
            ok, reason = False, f"eccentricity above k={k}"
    else:
        raise ValueError("need --h or (--variant and -k)")
    head = [("RESULT", "VALID" if ok else "INVALID")]
    if reason:
        head.append(("REASON", reason))
    return _emit(head + fields, ok, as_json)


@main.group()
def oracle() -> None:
    """Brute-force ground truth (guarded by work caps)."""


@oracle.command("trlp")
@click.option("-g", "--graph", "graph_path", required=True, type=_IN_FILE)
@click.option("--delta", required=True, type=int)
@click.option("--zeta", required=True, type=int)
@click.option("--h", "h", required=True, type=int)
@click.option("--json", "as_json", is_flag=True)
def oracle_trlp_cmd(graph_path, delta, zeta, h, as_json) -> int:
    inst = TrlpInstance(_load_graph(graph_path), delta, zeta, h)
    return _answer(testkit.oracle_trlp(inst), as_json)


@oracle.command("ecc")
@click.option("-g", "--graph", "graph_path", required=True, type=_IN_FILE)
@click.option("--source", required=True, type=int)
@click.option("--variant", required=True, type=click.Choice(["shortest", "fastest"]))
@click.option("-k", "--k", "k", required=True, type=int)
@click.option("--delta", required=True, type=int)
@click.option("--zeta", required=True, type=int)
@click.option("--json", "as_json", is_flag=True)
def oracle_ecc_cmd(graph_path, source, variant, k, delta, zeta, as_json) -> int:
    inst = eccmod.EccInstance(_load_graph(graph_path), source, k, delta, zeta, variant)
    return _answer(testkit.oracle_ecc(inst), as_json)


if __name__ == "__main__":
    main()
