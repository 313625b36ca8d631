"""The bicoh benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload euler --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; bicoh is imported from its `src/`.  Every
repetition runs in a fresh process, single-threaded (BICOH_THREADS unset,
so at its default 1), so the global caches of bicoh never carry over.

--trace 0 repeats the workload until --seconds are spent (at least
MIN_REPS times) and reports the median wall time of the computation,
the median set-up time over SETUP_SPAWNS extra spawns plus one per
repetition (both rescaled to a reference CPU speed, see worker.py), and
the median peak resident set.  --trace 1 runs it once
untraced and once traced (more pairs if --seconds allow), and reports
the per-layer metrics of the first traced run, with the difference of the
median wall times as the tracing overhead.

The last line of stdout is the result object; the lines before it give
each metric with its unit, the operation counts and any failures.  An
operation is one `bicoh.cli.main` call; it fails on a non-zero exit, an
exception, a referee mismatch or the per-operation time limit, and a
repetition stopped from outside counts all its operations as failed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_REPS = 3
SETUP_SPAWNS = 5
RUN_LIMIT_S = 170.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {"calls": "count", "self_s": "s", "cache_hit_ratio": "ratio",
                   "nf_zero_ratio": "ratio", "cpu_over_wall": "ratio",
                   "overhead_s": "s"}


def per_layer_unit(name):
    return PER_LAYER_UNITS.get(name.rsplit(".", 1)[-1], "count")


class Runner:
    """Spawns workers for one workload and seed, and tallies their ops."""

    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.start = time.monotonic()
        self.attempted = self.failed = 0
        self.failures = []
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("BICOH_THREADS", "PYTHONPATH")}
        self.spawns = 0

    def elapsed(self):
        return time.monotonic() - self.start

    def spawn(self, trace=0, setup_only=False):
        """Run one worker to completion; its result dict."""
        self.spawns += 1
        workdir = self.workdir / f"rep{self.spawns}"
        workdir.mkdir()
        out = workdir / "result.json"
        argv = [sys.executable, str(HERE / "worker.py"),
                "--workload", self.workload, "--seed", str(self.seed),
                "--workdir", str(workdir), "--out", str(out),
                "--trace", str(trace)]
        if setup_only:
            argv.append("--setup-only")
        timeout = RUN_LIMIT_S - self.elapsed()
        spawned = time.monotonic()
        argv += ["--spawned", repr(spawned)]
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=self.env, timeout=timeout,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True)
            stopped = None if proc.returncode == 0 else (
                f"worker exited with {proc.returncode}: "
                f"{proc.stderr.strip()[-500:]}")
        except subprocess.TimeoutExpired:
            stopped = f"worker stopped after {timeout:.0f} s"
        if not out.exists():
            raise RuntimeError(stopped or "worker wrote no result")
        result = json.loads(out.read_text(encoding="utf-8"))
        shutil.rmtree(workdir)
        if stopped is not None:
            result.update(failed=result["attempted"], failures=[stopped])
            result.pop("wall_s", None)
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.failures += result["failures"]
        return result


def measure(runner, seconds):
    """End-to-end metrics, and a note on the spread of the repetitions."""
    setups = [runner.spawn(setup_only=True) for _ in range(SETUP_SPAWNS)]
    reps = []
    longest = 0.0
    while len(reps) < MIN_REPS or runner.elapsed() + longest <= seconds:
        if runner.elapsed() + longest > RUN_LIMIT_S - 5:
            break
        begun = runner.elapsed()
        reps.append(runner.spawn())
        longest = max(longest, runner.elapsed() - begun)
    setups += reps
    timed = [r for r in reps if "wall_s" in r]
    if not timed:
        return {}, f"{len(reps)} repetitions, none finished"
    note = (f"{len(timed)} repetitions, wall_s "
            + " ".join(f"{r['scaled_wall_s']:.3f}" for r in timed)
            + " (unscaled " + " ".join(f"{r['wall_s']:.3f}" for r in timed)
            + f"); {len(setups)} set-ups, unscaled setup_s median "
            + f"{statistics.median(r['setup_s'] for r in setups):.3f}")
    return {
        "wall_s": statistics.median(r["scaled_wall_s"] for r in timed),
        "setup_s": statistics.median(r["scaled_setup_s"] for r in setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
    }, note


def trace(runner, seconds):
    """Pairs of an untraced and a traced repetition while time remains;
    the per-layer metrics come from the first traced one."""
    plain, traced = [], []
    longest = 0.0
    while not traced or runner.elapsed() + longest <= seconds:
        begun = runner.elapsed()
        plain.append(runner.spawn())
        traced.append(runner.spawn(trace=1))
        longest = max(longest, runner.elapsed() - begun)
    if any("wall_s" not in r for r in plain + traced):
        return {}, f"{len(plain)} pairs, not all finished"
    metrics = dict(traced[0]["layers"])
    metrics["runtime.cpu_over_wall"] = traced[0]["cpu_over_wall"]
    metrics["trace.overhead_s"] = (
        statistics.median(r["scaled_wall_s"] for r in traced)
        - statistics.median(r["scaled_wall_s"] for r in plain))
    return metrics, f"{len(plain)} untraced and {len(traced)} traced repetitions"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bicoh" / "__init__.py").is_file():
        sys.exit(f"error: no bicoh sources under {ROOT / 'src'}")
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_root))
    try:
        runner = Runner(args.workload, args.seed, workdir)
        if args.trace:
            values, note = trace(runner, args.seconds)
            units = {name: per_layer_unit(name) for name in values}
        else:
            values, note = measure(runner, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in sorted(values)}
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    error_rate = runner.failed / runner.attempted if runner.attempted else 1.0
    print(f"{args.workload} error_rate = {error_rate:.6g} ratio "
          f"({runner.failed} failed of {runner.attempted} ops)")
    print(f"{args.workload} {note}")
    for failure in runner.failures:
        print(f"failed: {failure}")
    print(json.dumps({"correct": runner.failed == 0 and bool(values),
                      "attempted": max(runner.attempted, 1),
                      "failed": runner.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
