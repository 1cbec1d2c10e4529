"""Shifting every label of a graph whose labels are all >= delta+1 up by s
changes nothing the DPs see: ``compress_time`` gives the same labels, so the
forced tree and treewidth strategies give the same answers, sources, counts
and certificates (their times moved by s), on the same time axis and after
the same work.  ``trp`` and forced ``xp`` give the same results after the
same reach sweeps: at delta >= n every window run is longer than n - 1
layers, and ``reach_counts`` sweeps each stretch of unchanged active edges
in at most n - 1 of them, wherever it lies."""

import itertools
from dataclasses import replace

from temporeach import reach, treedp, twdp
from temporeach.solvers import TrlpInstance, solve_trlp, solve_trp
from temporeach.testkit import random_instance
from temporeach.tgraph import compress_time, parse_graph

SHIFTS = (1, 5, 10**9)

# perfbench's dp-shifted "cycle6-yes" graph, which it asks at delta 1 too
CYCLE6 = parse_graph("n 6\ne 0 1 6\ne 0 5 4\ne 1 2 2\ne 2 3 4\ne 3 4 3\ne 4 5 6\n")


def shifted(g, s):
    return g._relabelled(tuple(tuple(t + s for t in ts) for ts in g.labels))


def run(inst, strategy, monkeypatch):
    """The forced strategy's result, with its work: the treewidth DP's
    horizon and candidate count, the tree DP's tables and their widths, or
    the layers of each reach sweep that ``trp`` or XP makes."""
    work = []
    with monkeypatch.context() as m:
        if strategy in ("trp", "xp"):
            sweep = reach._sweep
            m.setattr(reach, "_sweep", lambda fwd, layers, masked: work.append(len(layers)) or sweep(fwd, layers, masked))
            if strategy == "trp":
                return solve_trp(inst.graph, inst.delta, inst.h), work
            return solve_trlp(inst, "xp"), work
        if strategy == "treewidth":
            class Ctx(twdp._Ctx):
                def __init__(self, *args):
                    super().__init__(*args)
                    work.append(self)

            m.setattr(twdp, "_Ctx", Ctx)
            res = solve_trlp(inst, strategy)
            return res, [(ctx.horizon, ctx.candidates) for ctx in work]
        table = treedp._table

        def recorded(inst, tables, v, parent):
            out = table(inst, tables, v, parent)
            work.append((v, parent, len(out[0])))
            return out

        m.setattr(treedp, "_table", recorded)
        return solve_trlp(inst, strategy), work


def unshift(res, s):
    if res.perturbation is None:
        return res
    records = tuple((e, old - s, new - s) for e, old, new in res.perturbation.records)
    return replace(res, perturbation=replace(res.perturbation, records=records))


def cases():
    """(graph, delta, strategies): seeded trees and width-<=2 graphs with at
    most seven time-edges, their labels raised by delta so that all are
    >= delta+1, and the dp-shifted cycle."""
    yield CYCLE6, 1, ("treewidth",)
    for profile, count, strategies in (
        ("tree", 8, ("tree", "treewidth")), ("treewidth2", 5, ("treewidth",))
    ):
        seeds = (seed for seed in itertools.count()
                 if random_instance(seed, profile).graph.num_time_edges() <= 7)
        for seed in itertools.islice(seeds, count):
            delta = seed % 3
            yield shifted(random_instance(seed, profile).graph, delta), delta, strategies


def test_shifted_labels_change_nothing(monkeypatch):
    for g, delta, strategies in cases():
        for s in SHIFTS:
            assert compress_time(shifted(g, s), delta)[0].labels == compress_time(g, delta)[0].labels
        for zeta, h, strategy in itertools.product(range(3), range(1, g.n + 1), strategies):
            base = run(TrlpInstance(g, delta, zeta, h), strategy, monkeypatch)
            for s in SHIFTS:
                res, work = run(TrlpInstance(shifted(g, s), delta, zeta, h), strategy, monkeypatch)
                assert (unshift(res, s), work) == base, (g, delta, zeta, h, strategy, s)


# the path of the large-label trp probe, its labels scaled down
PATH3 = parse_graph("n 3\ne 0 1 40\ne 1 2 20\n")


def wide_cases():
    """(graph, delta): the path at delta 20 and seeded trees and width-<=2
    graphs with at most six time-edges at delta n and 2n, each with its
    labels raised by delta, so that all are >= delta+1."""
    yield shifted(PATH3, 20), 20
    for profile in ("tree", "treewidth2"):
        seeds = (seed for seed in itertools.count()
                 if random_instance(seed, profile).graph.num_time_edges() <= 6)
        for seed in itertools.islice(seeds, 3):
            g = random_instance(seed, profile).graph
            delta = g.n * (1 + seed % 2)
            yield shifted(g, delta), delta


def test_shifted_labels_change_no_reach_sweep(monkeypatch):
    for g, delta in wide_cases():
        for h, (strategy, zeta) in itertools.product(range(1, g.n + 1), (("trp", 0), ("xp", 0), ("xp", 2))):
            base = run(TrlpInstance(g, delta, zeta, h), strategy, monkeypatch)
            for s in SHIFTS:
                res, work = run(TrlpInstance(shifted(g, s), delta, zeta, h), strategy, monkeypatch)
                assert (unshift(res, s), work) == base, (g, delta, zeta, h, strategy, s)
    # the path's runs [20, 60] and [40, 80] make three stretches of two
    # layers each, where one layer per window time would make 61
    res, work = run(TrlpInstance(shifted(PATH3, 20), 20, 0, 3), "trp", monkeypatch)
    assert res.answer and work == [6]
