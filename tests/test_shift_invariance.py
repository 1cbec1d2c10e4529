"""Shifting every label of a graph whose labels are all >= delta+1 up by s
changes nothing the DPs see: ``compress_time`` gives the same labels, so the
forced tree and treewidth strategies give the same answers, sources, counts
and certificates (their times moved by s), on the same time axis and after
the same work."""

import itertools
from dataclasses import replace

from temporeach import treedp, twdp
from temporeach.solvers import TrlpInstance, solve_trlp
from temporeach.testkit import random_instance
from temporeach.tgraph import compress_time, parse_graph

SHIFTS = (1, 5, 10**9)

# perfbench's dp-shifted "cycle6-yes" graph, which it asks at delta 1 too
CYCLE6 = parse_graph("n 6\ne 0 1 6\ne 0 5 4\ne 1 2 2\ne 2 3 4\ne 3 4 3\ne 4 5 6\n")


def shifted(g, s):
    return g._relabelled(tuple(tuple(t + s for t in ts) for ts in g.labels))


def run(inst, strategy, monkeypatch):
    """The forced strategy's result, with its work: the treewidth DP's
    horizon and candidate count, or the tree DP's tables and their widths."""
    work = []
    with monkeypatch.context() as m:
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
