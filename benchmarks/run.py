"""Benchmark entry point.

    python3 benchmarks/run.py --workload compile|lp-check|cli --seed N \
        --seconds S --trace 0|1 [--size small]

Run from the root of a checkout.  One client, one operation at a time, no
threads: a run makes a fixed number of whole passes over the workload, S
divided by the workload's nominal pass time (at least one), so every run
attempts the same operations.  Times are reference seconds: wall time
scaled by a calibration loop run next to each operation (see passes.py).
The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; with --trace 0 the metrics are the end-to-end ones,
with --trace 1 the per-layer ones (spans are then also written to
.bench_out/trace-<workload>-seed<N>.jsonl).  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
# reference seconds of one whole pass at full size; a run makes
# max(1, seconds // NOMINAL_PASS_S) passes
NOMINAL_PASS_S = {"compile": 15, "lp-check": 28, "cli": 10}

END_TO_END = {  # name -> unit
    "pass_s": "s",
    "build_s": "s",
    "ok_rate": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "grammar_size_bits": "bits",
}

# Per-layer metrics.  A name ending in _s is the summed self time of the
# spans named without that suffix; the others are counts or ratios.
PER_LAYER = {
    "graph.parse_s": "s",
    "decomp.tree_s": "s",
    "decomp.yield_s": "s",
    "decomp.path_s": "s",
    "decomp.width": "count",
    "annotate.enumerate_s": "s",
    "annotate.bags": "count",
    "annotate.survival": "ratio",
    "grammar.build_s": "s",
    "grammar.join_pairs": "count",
    "grammar.join_yield": "ratio",
    "grammar.rules": "count",
    "grammar.variables": "count",
    "grammar.sharing": "ratio",
    "grammar.regular_build_s": "s",
    "grammar.count_s": "s",
    "grammar.enum_s": "s",
    "grammar.member_s": "s",
    "grammar.json_s": "s",
    "grammar.erase_s": "s",
    "polytope.ef_s": "s",
    "polytope.check_s": "s",
    "polytope.check_point_median_s": "s",
    "polytope.check_point_max_s": "s",
    "polytope.lp_io_s": "s",
    "polytope.lp_check_s": "s",
    "polytope.verdict_s": "s",
    "polytope.rows": "count",
    "polytope.cols": "count",
    "polytope.single_rule_share": "ratio",
    "polytope.lp_nonzeros": "count",
    "oracle.auts_s": "s",
    "cli.startup_s": "s",
    "cli.build_s": "s",
    "cli.build_path_s": "s",
    "cli.embed_s": "s",
    "cli.stats_s": "s",
    "cli.count_s": "s",
    "cli.enum_s": "s",
    "cli.member_s": "s",
    "cli.lift_s": "s",
    "cli.check_s": "s",
    "cli.validate_s": "s",
    "cli.errors_s": "s",
    "trace.overhead_s": "s",
    "clock.calibration_ms": "ms",
}

RATIOS = {  # per-layer ratio -> (numerator count, denominator count)
    "annotate.survival": ("grammar.kept_bags", "annotate.bags"),
    "grammar.join_yield": ("grammar.join_links", "grammar.join_pairs"),
    "grammar.sharing": ("grammar.trees", "grammar.rules"),
    "polytope.single_rule_share": ("polytope.single_rule_vars", "grammar.variables"),
}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["compile", "lp-check", "cli"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "small"], default="full",
                   help="small: the smoke test's reduced corpus")
    return p.parse_args(argv)


def _import_in_fresh_process(src: Path) -> None:
    """Interpreter start-up plus `import autgrammar`, as every CLI user pays."""
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", "import autgrammar"], env=env, check=True)


def _unit_medians(results) -> dict:
    """Each timed operation's median over every sample of the given passes."""
    samples: dict = {}
    for r in results:
        for key, ts in r.units.items():
            samples.setdefault(key, []).extend(ts)
    return {key: statistics.median(ts) for key, ts in samples.items()}


def _per_layer(tracer, pid: str, traced, untraced, oracle_setup_s: float) -> dict:
    """Per-layer metrics from the traced pass `pid`.  Span times are wall
    seconds scaled to reference seconds by the factor the pass's timed
    operations were scaled by as a whole."""
    from passes import CALIBRATION_REF_S

    scale = traced.wall / sum(sum(ts) for ts in traced.walls.values())
    self_times = {k: v * scale for k, v in tracer.self_times(pid).items()}
    counts = traced.counts
    out = {}
    for name in PER_LAYER:
        if name in RATIOS:
            num, den = RATIOS[name]
            out[name] = counts.get(num, 0) / counts[den] if counts.get(den) else 0.0
        elif name.endswith("_s"):
            out[name] = self_times.get(name[:-2], 0.0)
        else:
            out[name] = counts.get(name, 0)
    out["oracle.auts_s"] += oracle_setup_s * scale
    out["polytope.verdict_s"] = sum(out[f"polytope.{n}_s"] for n in ("ef", "check", "lp_io", "lp_check"))
    points = [d * scale for d in tracer.durations(pid, "polytope.check")]
    out["polytope.check_point_median_s"] = statistics.median(points) if points else 0.0
    out["polytope.check_point_max_s"] = max(points, default=0.0)
    # summed per operation: traced median minus untraced median
    on, off = _unit_medians([traced]), _unit_medians(untraced)
    out["trace.overhead_s"] = sum(on[k] - off[k] for k in on.keys() & off.keys())
    out["clock.calibration_ms"] = CALIBRATION_REF_S / scale * 1000
    return out


def main(argv=None) -> int:
    args = _parse_args(argv)
    src = ROOT / "src"
    if not (src / "autgrammar" / "__init__.py").is_file():
        print(f"error: no library at {src / 'autgrammar'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]

    from cli_session import Cli
    from inproc import Compile, LpCheck
    from passes import Clock, PassResult
    from spans import Tracer

    workload_class = {"compile": Compile, "lp-check": LpCheck, "cli": Cli}[args.workload]
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        clock = Clock()
        setup_times = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(work, ignore_errors=True)
            with clock.timed() as setup:
                work.mkdir(parents=True)
                workload = workload_class(args.size == "small", args.seed, work)
                state = workload.setup()
                _import_in_fresh_process(src)
            setup_times.append(setup.value)

        tracer = Tracer(enabled=True)
        quiet = Tracer(enabled=False)
        # a traced run makes one untraced and then one traced pass
        n_passes = 2 if args.trace else max(1, int(args.seconds // NOMINAL_PASS_S[args.workload]))
        passes = []  # (pass id, traced?, PassResult, calibration times)
        for i in range(n_passes):
            pid = f"pass-{i}"
            traced = bool(args.trace) and i == 1
            tr = tracer if traced else quiet
            tr.pass_id = pid
            res = PassResult()
            first_sample = len(clock.samples)
            workload.run_pass(state, tr, clock, res)
            passes.append((pid, traced, res, clock.samples[first_sample:]))
            wall = sum(sum(ts) for ts in res.walls.values())
            cal = statistics.median(passes[-1][3])
            print(f"{pid}{' traced' if traced else ''}: {res.wall:.3f} reference s timed "
                  f"({wall:.3f} wall s, calibration median {cal * 1000:.3f} ms), "
                  f"{res.attempted} ops, {res.failed} failed", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = [r for _, t, r, _ in passes if not t]
    results = [r for _, _, r, _ in passes]
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    wrong = sum(r.wrong for r in results)
    for note in [n for r in results for n in r.notes][:20]:
        print(note, file=sys.stderr)

    if args.trace:
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
        pid, _, traced_res, _ = passes[1]
        values = _per_layer(tracer, pid, traced_res, untraced, workload.oracle_s)
        units = PER_LAYER
    else:
        medians = _unit_medians(untraced)
        build_keys = set().union(*(r.build_keys for r in untraced))
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        values = {
            "pass_s": sum(medians.values()),
            "build_s": sum(v for k, v in medians.items() if k in build_keys),
            "ok_rate": 1 - failed / attempted,
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
            "setup_s": statistics.median(setup_times),
            "grammar_size_bits": untraced[0].size_bits,
        }
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
