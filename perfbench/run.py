"""Run one temporeach benchmark workload and print its metrics.

    python3 perfbench/run.py --workload xp-enum --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

The workload's CLI calls run in this process through click's test runner,
one pass after another, until ``--seconds`` would be exceeded (at least one
pass).  Each call is timed alone; the answers are checked after the pass,
outside the timed region.  Module-level caches of temporeach are emptied
between passes, as a fresh CLI process would have them, and the garbage
collector runs before each call (untimed) with the benchmark's own objects
frozen, so that a collection the benchmark's data provoked is not charged
to the program.

Times are reported at a reference machine speed: each call's wall time is
scaled by a speed probe timed just before and after it (see speed.py), and
the human-readable lines also show the unscaled wall-time medians.

``--trace 0`` reports the end-to-end metrics (medians over passes);
``--trace 1`` alternates untraced and traced passes and reports per-layer
self times and counts per pass, and writes the spans to
``.perfbench/trace-<workload>-<seed>.json``.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5

END_TO_END = [
    ("solve_s", "s"), ("reach_s", "s"), ("trp_s", "s"), ("trlp_s", "s"), ("ecc_s", "s"),
    ("verify_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
]


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def measure_setup() -> tuple[float, float]:
    """Median start-up of a fresh interpreter running the CLI's --help,
    scaled and wall."""
    def start_cli() -> None:
        subprocess.run(
            [sys.executable, "-m", "temporeach.cli", "--help"],
            env=program_env(), cwd=ROOT, stdout=subprocess.DEVNULL, check=True, timeout=120,
        )

    clock = speed.Clock()
    for _ in range(SETUP_REPEATS):
        clock.call("setup", start_cli)
    return statistics.median(t for _, t in clock.scaled), statistics.median(t for _, t in clock.wall)


def clear_program_caches() -> None:
    for name, mod in list(sys.modules.items()):
        if name.startswith("temporeach"):
            for obj in list(vars(mod).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def run_pass(ops, runner, main, tracer=None):
    """Invoke every operation once; returns per-command scaled seconds, wall
    seconds, and the outputs."""
    from workloads import COMMANDS, Output

    clock = speed.Clock()
    outs = {}
    for op in ops:
        try:
            if op.prepare:
                op.prepare(outs)
            argv = [str(a(outs)) if callable(a) else a for a in op.argv]
        except Exception as exc:  # an earlier call's output was unusable
            outs[op.key] = Output(2, [], f"no input for this call: {exc!r}")
            continue
        gc.collect()
        if tracer is None:
            res = clock.call(op.command, runner.invoke, main, argv)
        else:
            res = clock.call(op.command, tracer.run, "cli", runner.invoke, main, argv)
        error = None
        if res.exception is not None and not isinstance(res.exception, SystemExit):
            error = "".join(traceback.format_exception(res.exception)).strip().splitlines()[-1]
        outs[op.key] = Output(res.exit_code, [ln.split() for ln in res.stdout.splitlines() if ln.strip()], error)
    scaled, wall = dict.fromkeys(COMMANDS, 0.0), dict.fromkeys(COMMANDS, 0.0)
    for (cmd, t), (_, w) in zip(clock.scaled, clock.wall):
        scaled[cmd] += t
        wall[cmd] += w
    return scaled, wall, outs


def check_pass(ops, outs, log) -> tuple[int, int]:
    """(failed operations, wrong answers) of one pass."""
    from reference import CheckFailed

    failed = wrong = 0
    for op in ops:
        try:
            op.check(outs[op.key], outs)
        except CheckFailed as exc:
            failed += 1
            wrong += 1
            log.append(f"WRONG {' '.join(map(str, op.argv))}: {exc}")
        except Exception as exc:  # refusal, exception, strategy, unparsable output
            failed += 1
            log.append(f"FAILED {' '.join(map(str, op.argv))}: {exc}")
    return failed, wrong


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    sys.path.insert(0, str(SRC))
    os.environ.pop("TEMPOREACH_CAP", None)  # the default work caps are part of the workloads
    import temporeach
    from click.testing import CliRunner
    from temporeach.cli import main

    if not Path(temporeach.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"temporeach imported from {temporeach.__file__}, not from {SRC}")
    import tracing
    import workloads

    setup_s, setup_wall = measure_setup()
    expected = json.loads((HERE / "expected.json").read_text())
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        ops = workloads.build(name, seed, workdir, expected)
        gc.collect()
        gc.freeze()
        runner = CliRunner()
        tracer = tracing.Tracer() if trace else None
        passes = []  # (traced, per-command scaled seconds, per-command wall seconds, pass wall time)
        failed = wrong = 0
        log: list[str] = []
        deadline = time.perf_counter() + seconds
        while True:
            traced = trace and len(passes) % 2 == 1
            clear_program_caches()
            t0 = time.perf_counter()
            if traced:
                tracer.install()
                try:
                    times, walls, outs = run_pass(ops, runner, main, tracer)
                finally:
                    tracer.uninstall()
            else:
                times, walls, outs = run_pass(ops, runner, main)
            f, w = check_pass(ops, outs, log)
            failed, wrong = failed + f, wrong + w
            passes.append((traced, times, walls, time.perf_counter() - t0))
            print(
                f"pass {len(passes)}{' traced' if traced else ''}: {sum(times.values()):.4f} s scaled, "
                f"{sum(walls.values()):.4f} s wall",
                file=sys.stderr,
            )
            typical = statistics.median(p[3] for p in passes)
            if len(passes) >= (2 if trace else 1) and time.perf_counter() + typical > deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in log[:20]:
        print(line, file=sys.stderr)

    def median_solve(traced: bool, column: int = 1) -> float:
        return statistics.median(sum(p[column].values()) for p in passes if p[0] == traced)

    if trace:
        n_traced = sum(1 for p in passes if p[0])
        metrics = tracer.layer_metrics(n_traced)
        metrics["trace.solve_s"] = median_solve(True)
        metrics["trace.overhead_s"] = median_solve(True) - median_solve(False)
        units = dict(tracing.per_layer_names())
        tracer.write(OUT / f"trace-{name}-{seed}.json", {"workload": name, "seed": seed, "traced_passes": n_traced})
    else:
        metrics = {"solve_s": median_solve(False)}
        wall = {"solve_s": median_solve(False, 2), "setup_s": setup_wall}
        for cmd in workloads.COMMANDS:
            metrics[f"{cmd}_s"] = statistics.median(p[1][cmd] for p in passes)
            wall[f"{cmd}_s"] = statistics.median(p[2][cmd] for p in passes)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = dict(END_TO_END)
        for key, val in wall.items():
            print(f"wall {key:<35} {val:.6g} s", file=sys.stderr)
    return {
        "correct": wrong == 0,
        "attempted": len(ops) * len(passes),
        "failed": failed,
        "passes": len(passes),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_all(args) -> dict:
    """Every workload in its own fresh process; metrics keyed workload.metric."""
    from workloads import WORKLOADS

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        if proc.returncode != 0:
            raise SystemExit(f"{name} exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for key, val in result["metrics"].items():
            summary["metrics"][f"{name}.{key}"] = val
    return summary


def main() -> None:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "temporeach" / "cli.py").is_file():
        print(f"perfbench: no temporeach sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for key, m in result["metrics"].items():
        print(f"{key:<40} {m['value']:.6g} {m['unit']}")
    print(f"passes {result.pop('passes', '-')}  attempted {result['attempted']}  failed {result['failed']}  correct {result['correct']}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
