"""The four workloads: each is a fixed list of temporeach CLI calls on inputs
made from the seed, with a check per call against the reference checks and
the expected answers.

``build(name, seed, workdir, expected)`` writes the ``.tg`` inputs into
``workdir`` and returns the operation list.  An operation's check runs after
the timed pass; it raises ``OpFailed`` for a refusal, an exception or an
unexpected STRATEGY line, and ``reference.CheckFailed`` for a wrong answer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import instances
import reference as ref
from instances import Graph

WORKLOADS = ("reach-wide", "xp-enum", "oracle", "dp-shifted")
COMMANDS = ("reach", "trp", "trlp", "ecc", "verify")


class OpFailed(RuntimeError):
    """The call refused, raised, or answered through another strategy."""


@dataclass
class Output:
    exit_code: int
    lines: list[list[str]]
    error: Optional[str] = None

    def get(self, key: str) -> Optional[list[str]]:
        return next((parts[1:] for parts in self.lines if parts[0] == key), None)

    def num(self, key: str) -> int:
        val = self.get(key)
        if not val:
            raise ref.CheckFailed(f"no {key} line")
        return int(val[0])

    def moves(self) -> list[tuple[int, int, int, int]]:
        return [tuple(int(x) for x in parts[1:]) for parts in self.lines if parts[0] == "PERTURB"]


@dataclass
class Op:
    command: str
    argv: list  # a callable item is resolved from the earlier outputs
    check: Callable[[Output, dict], None]
    key: str = ""
    # untimed; writes inputs that depend on an earlier call's output
    prepare: Optional[Callable[[dict], None]] = None


@dataclass
class Ctx:
    workdir: Path
    ops: list[Op] = field(default_factory=list)

    def write(self, name: str, g: Graph) -> str:
        path = self.workdir / f"{name}.tg"
        path.write_text(g.tg())
        return str(path)

    def add(self, command: str, args: list, check, key: str = "", prepare=None) -> None:
        argv = [command] + [a if callable(a) else str(a) for a in args]
        self.ops.append(Op(command, argv, check, key or f"op{len(self.ops)}", prepare))


# ---------------------------------------------------------------------------
# checks


def expect(out: Output, yes: bool, strategy: Optional[str]) -> None:
    """Refusal, exception and strategy first, then the yes/no answer."""
    if out.error:
        raise OpFailed(out.error)
    if out.exit_code == 2 or out.get("REFUSED") is not None:
        raise OpFailed(f"refused: {' '.join(out.get('REFUSED') or [])}")
    if strategy is not None and out.get("STRATEGY") != [strategy]:
        raise OpFailed(f"STRATEGY {out.get('STRATEGY')}, expected {strategy}")
    if out.exit_code != (0 if yes else 1):
        raise ref.CheckFailed(f"exit code {out.exit_code}, expected {'yes' if yes else 'no'}")
    if strategy is not None and out.get("ANSWER") != ["yes" if yes else "no"]:
        raise ref.CheckFailed(f"ANSWER {out.get('ANSWER')}")


def equal(what: str, got, want) -> None:
    if got != want:
        raise ref.CheckFailed(f"{what} {got}, expected {want}")


def check_best_reach(g: Graph, counts: list[int]):
    """`reach` without a source: RMAX and the smallest source attaining it."""
    best, src = ref.best_source(counts)

    def check(out: Output, _outs) -> None:
        expect(out, True, None)
        equal("RMAX", out.num("RMAX"), best)
        equal("SOURCE", out.num("SOURCE"), src)

    return check


def check_trlp(g: Graph, delta: int, zeta: Optional[int], h: int, yes: bool, strategy: str,
               reach: Optional[int] = None, source: Optional[int] = None):
    """A yes must carry a valid certificate whose reference reach is REACH;
    ``reach`` also pins that value (the optimum, or the best trp reach) and
    ``source`` the smallest source attaining h."""

    def check(out: Output, _outs) -> None:
        expect(out, yes, strategy)
        if not yes:
            return
        src = out.num("SOURCE")
        if source is not None:
            equal("SOURCE", src, source)
        count = ref.check_certificate(g, delta, zeta, out.moves(), src, h)
        equal("REACH", out.num("REACH"), count)
        if reach is not None:
            equal("REACH", count, reach)

    return check


def check_trp(g: Graph, delta: int, h: int, counts: list[int]):
    best, src = ref.best_source(counts)
    return check_trlp(g, delta, None, h, best >= h, "trp", best, src)


def check_degree(g: Graph):
    """trlp with h <= max degree + 1: a highest-degree vertex, no moves."""
    degree = [0] * g.n
    for u, v in g.edges:
        degree[u] += 1
        degree[v] += 1

    def check(out: Output, _outs) -> None:
        expect(out, True, "degree")
        src = out.num("SOURCE")
        equal("degree of SOURCE", degree[src], max(degree))
        equal("PERTURB lines", out.moves(), [])
        equal("REACH", out.num("REACH"), ref.reach_count(g, src))

    return check


def check_ecc(g: Graph, source: int, variant: str, k: int, delta: int, zeta: int, yes: bool, strategy: str, value=None):
    measure = ref.hop_ecc if variant == "shortest" else ref.duration_ecc

    def check(out: Output, _outs) -> None:
        expect(out, yes, strategy)
        if not yes:
            return
        equal("SOURCE", out.num("SOURCE"), source)
        got = measure(ref.perturbed(g, ref.check_moves(g, delta, zeta, out.moves())), source)
        if got is None or got > k:
            raise ref.CheckFailed(f"certificate gives eccentricity {got} > k={k}")
        equal("ECC", out.num("ECC"), got)
        if value is not None:
            equal("ECC", got, value)

    return check


def write_certificate(ctx: Ctx, name: str, from_key: str, delta: int, zeta: Optional[int]):
    """prepare-hook: the PERTURB lines of an earlier yes as a perturbation file."""
    path = ctx.workdir / f"{name}.p"

    def prepare(outs: dict) -> None:
        moves = outs[from_key].moves()
        if outs[from_key].exit_code != 0:
            raise OpFailed(f"{from_key} gave no certificate to verify")
        z = len(moves) if zeta is None else zeta
        lines = [f"delta {delta}", f"zeta {z}"] + [f"p {u} {v} {a} {b}" for u, v, a, b in moves]
        path.write_text("\n".join(lines) + "\n")

    return str(path), prepare


def verify_reach(ctx: Ctx, g: Graph, gpath: str, from_key: str, delta: int, zeta: Optional[int], h: int) -> None:
    """`verify --h` of an earlier trlp/trp certificate."""
    ppath, prepare = write_certificate(ctx, f"{from_key}-cert", from_key, delta, zeta)

    def check(out: Output, outs) -> None:
        expect(out, True, None)
        equal("RESULT", out.get("RESULT"), ["VALID"])
        prior = outs[from_key]
        equal("REACH", out.num("REACH"), ref.reach_count(ref.perturbed(g, ref.check_moves(g, delta, zeta, prior.moves())), prior.num("SOURCE")))

    source = lambda outs: outs[from_key].num("SOURCE")
    ctx.add("verify", ["-g", gpath, "-p", ppath, "--source", source, "--h", h], check, prepare=prepare)


def verify_ecc(ctx: Ctx, g: Graph, gpath: str, from_key: str, source: int, k: int, delta: int, zeta: int) -> None:
    """`verify --variant shortest -k` of an earlier ecc certificate."""
    ppath, prepare = write_certificate(ctx, f"{from_key}-cert", from_key, delta, zeta)

    def check(out: Output, outs) -> None:
        expect(out, True, None)
        equal("RESULT", out.get("RESULT"), ["VALID"])
        pg = ref.perturbed(g, ref.check_moves(g, delta, zeta, outs[from_key].moves()))
        equal("ECC", out.num("ECC"), ref.hop_ecc(pg, source))

    ctx.add("verify", ["-g", gpath, "-p", ppath, "--source", source, "--variant", "shortest", "-k", k], check, prepare=prepare)


def large_delta_ecc(ctx: Ctx, g: Graph, gpath: str, source: int) -> None:
    """With delta >= lifetime and zeta >= n-1 the minimum hop eccentricity is
    the breadth-first one, reached by re-timing a BFS tree level by level."""
    k = ref.static_ecc(g, source)
    big = max(g.lifetime, k)
    ctx.add(
        "ecc",
        ["-g", gpath, "--source", source, "--variant", "shortest", "-k", k, "--delta", big, "--zeta", g.n - 1],
        check_ecc(g, source, "shortest", k, big, g.n - 1, True, "large-delta", k),
    )


def side_calls(ctx: Ctx, g: Graph, gpath: str, delta: int, source: int) -> None:
    """Cheap reach, trp and large-delta ecc calls on a graph, so that every
    workload reports every command."""
    ctx.add("reach", ["-g", gpath], check_best_reach(g, ref.reach_counts(g)))
    counts = ref.reach_counts(g, delta)
    ctx.add("trp", ["-g", gpath, "--delta", delta, "--h", max(counts)], check_trp(g, delta, max(counts), counts))
    large_delta_ecc(ctx, g, gpath, source)


# ---------------------------------------------------------------------------
# workloads


def reach_wide(ctx: Ctx, seed: int, _expected: dict) -> None:
    g = instances.reach_wide_graph(seed)
    path = ctx.write("wide", g)
    ctx.add("reach", ["-g", path], check_best_reach(g, ref.reach_counts(g)))
    w1 = ref.reach_counts(g, 1)
    ctx.add("trp", ["-g", path, "--delta", 1, "--h", max(w1)], check_trp(g, 1, max(w1), w1))
    # h is the best delta-5 reach, not n: some seeds' graphs cannot reach
    # every vertex, and a no would leave verify without a certificate
    w5 = ref.reach_counts(g, 5)
    ctx.add("trp", ["-g", path, "--delta", 5, "--h", max(w5)], check_trp(g, 5, max(w5), w5), key="trp5")
    verify_reach(ctx, g, path, "trp5", 5, None, max(w5))
    ctx.add("trlp", ["-g", path, "--delta", 1, "--zeta", 1, "--h", 3], check_degree(g))
    large_delta_ecc(ctx, g, path, 0)


def _pool_entry(expected: dict, workload: str, i: int, g: Graph) -> dict:
    entry = expected[workload][i]
    if entry["fingerprint"] != g.fingerprint():
        raise SystemExit(f"{workload} instance {i} changed; remake expected.json with perfbench/expected.py")
    return entry


def xp_enum(ctx: Ctx, seed: int, expected: dict) -> None:
    rng = random.Random(f"xp-enum:{seed}")
    d, z = instances.XP_DELTA, instances.XP_ZETA
    for i, base in enumerate(instances.xp_pool()):
        entry = _pool_entry(expected, "xp-enum", i, base)
        opt = entry["opt"]
        perm = instances.permutation(rng, base.n, entry["winners"])
        g = base.relabel(perm)
        path = ctx.write(f"xp{i}", g)
        key = f"xp{i}-yes"
        ctx.add("trlp", ["-g", path, "--delta", d, "--zeta", z, "--h", opt], check_trlp(g, d, z, opt, True, "xp", opt, 0), key=key)
        ctx.add("trlp", ["-g", path, "--delta", d, "--zeta", z, "--h", opt + 1], check_trlp(g, d, z, opt + 1, False, "xp"))
        verify_reach(ctx, g, path, key, d, z, opt)
        side_calls(ctx, g, path, d, perm[0])


def oracle(ctx: Ctx, _seed: int, expected: dict) -> None:
    """Fixed inputs: see instances.py for why these are not renumbered."""
    from temporeach.testkit import CnfFormula, sat_to_tfaep, sat_to_tsep

    gadgets = [(f, sat_to_tsep(CnfFormula(*f), 4, 1)) for f in instances.TSEP_FORMULAS]
    gadgets += [(f, sat_to_tfaep(CnfFormula(*f), 2, 1)) for f in instances.TFAEP_FORMULAS]
    verified = False
    for i, (formula, inst) in enumerate(gadgets):
        g, src = Graph(inst.graph.n, inst.graph.edges, inst.graph.labels), inst.source
        sat = ref.brute_sat(*formula)
        path = ctx.write(f"gadget{i}", g)
        key = f"gadget{i}"
        args = ["-g", path, "--source", src, "--variant", inst.variant, "-k", inst.k, "--delta", inst.delta, "--zeta", inst.zeta]
        ctx.add("ecc", args, check_ecc(g, src, inst.variant, inst.k, inst.delta, inst.zeta, sat, "exhaustive"), key=key)
        if sat and inst.variant == "shortest" and not verified:
            verify_ecc(ctx, g, path, key, src, inst.k, inst.delta, inst.zeta)
            verified = True
    g = instances.xp_pool()[0]
    opt = _pool_entry(expected, "xp-enum", 0, g)["opt"]
    path = ctx.write("trlp", g)
    d, z = instances.XP_DELTA, instances.XP_ZETA
    for h, yes in ((opt, True), (opt + 1, False)):
        ctx.add(
            "trlp",
            ["-g", path, "--delta", d, "--zeta", z, "--h", h, "--strategy", "oracle"],
            check_trlp(g, d, z, h, yes, "oracle", opt if yes else None),
            key=f"oracle-trlp-{h}",
        )
    verify_reach(ctx, g, path, f"oracle-trlp-{opt}", d, z, opt)
    side_calls(ctx, g, path, d, 0)


def dp_shifted(ctx: Ctx, seed: int, expected: dict) -> None:
    rng = random.Random(f"dp-shifted:{seed}")
    for i, case in enumerate(instances.dp_pool()):
        entry = _pool_entry(expected, "dp-shifted", i, case.graph)
        h, yes = entry["h"], entry["h"] <= entry["opt"]
        perm = list(range(case.graph.n))
        if case.renumbered:
            perm = instances.permutation(rng, case.graph.n, entry["winners"])
        g = case.graph.relabel(perm)
        shifted = g.shift(case.shift)
        for tag, graph in (("base", g), ("shifted", shifted)):
            path = ctx.write(f"{case.name}-{tag}", graph)
            key = f"{case.name}-{tag}"
            # the same question on both copies: the answers must agree
            ctx.add(
                "trlp",
                ["-g", path, "--delta", case.delta, "--zeta", case.zeta, "--h", h],
                check_trlp(graph, case.delta, case.zeta, h, yes, case.strategy, source=min(perm[w] for w in entry["winners"]) if yes else None),
                key=key,
            )
        for tag, graph in (("base", g), ("shifted", shifted)):
            if yes:
                path = str(ctx.workdir / f"{case.name}-{tag}.tg")
                verify_reach(ctx, graph, path, f"{case.name}-{tag}", case.delta, case.zeta, h)
        side_calls(ctx, g, str(ctx.workdir / f"{case.name}-base.tg"), case.delta, perm[0])


BUILDERS = {"reach-wide": reach_wide, "xp-enum": xp_enum, "oracle": oracle, "dp-shifted": dp_shifted}


def build(name: str, seed: int, workdir: Path, expected: dict) -> list[Op]:
    ctx = Ctx(workdir)
    BUILDERS[name](ctx, seed, expected)
    return ctx.ops
