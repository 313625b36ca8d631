"""One repetition of a workload in a fresh process.

Set-up is everything from the spawn (whose CLOCK_MONOTONIC time the parent
passes in) until the inputs are on disk: interpreter start, `import
bicoh`, input generation and writing the `.mod` files.  Then each
operation runs through `bicoh.cli.main` with stdout captured, under a
per-operation time limit; the referees run after the timed region.  The
result is written as JSON to --out, once right after set-up (so a process
stopped from outside still counts its operations as attempted) and again
at the end.

On a shared host the throughput of one CPU swings by up to 2x within
seconds as other tenants come and go.  So a speed probe, a fixed piece of
work timed in this process, rescales both times to the reference speed
PROBE_REF_S: while the operations run it interrupts them every
PROBE_EVERY_S of CPU time, and `scaled_wall_s` is the wall time minus the
probes, each stretch rescaled by the probe that sampled it; right after
set-up a burst of SETUP_PROBES probes rescales `scaled_setup_s`.
"""

import argparse
import contextlib
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path

OP_LIMIT_S = 60.0
PROBE_EVERY_S = 0.05
PROBE_REF_S = 0.0008
SETUP_PROBES = 25
ROOT = Path(__file__).resolve().parents[1]
_EXPONENTS = [(i % 5, i % 3, i % 7, i % 2) for i in range(64)]


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout


class Probe:
    """A fixed piece of work shaped like bicoh's two kinds of code, timed
    on each call: polynomial arithmetic in pure Python (exponent tuples
    added, dict updates, arithmetic mod p) and a few numpy elimination
    steps.  numpy is imported on creation, after set-up is timed, so that
    set-up counts numpy only if bicoh imports it."""

    def __init__(self):
        import numpy
        self.outer = numpy.outer
        self.matrix = numpy.arange(48 * 48, dtype=numpy.int64).reshape(
            48, 48) * 7919 % 32003
        self.times = []

    def __call__(self, *signal_args):
        begun = time.perf_counter()
        terms = {}
        for i in range(300):
            mono = tuple(a + b for a, b in zip(_EXPONENTS[i & 63],
                                               _EXPONENTS[(i * 7) & 63]))
            terms[mono] = (terms.get(mono, 0) + i * 31) % 32003
        a = self.matrix.copy()
        for r in range(8):
            a[r + 1:] = (a[r + 1:] - self.outer(a[r + 1:, r], a[r])) % 32003
        self.times.append(time.perf_counter() - begun)

    def speed(self):
        """Mean speed over the probes, as a multiple of the reference
        speed; 1 if none ran."""
        if not self.times:
            return 1.0
        return sum(PROBE_REF_S / t for t in self.times) / len(self.times)


def _write(path, result):
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(result), encoding="utf-8")
    tmp.replace(path)


def run_op(cli, argv):
    """(stdout, failure reason or None) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except OpTimeout:
        return None, f"over the {OP_LIMIT_S:g} s per-op limit"
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return None, f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    if code != 0:
        return None, f"exit code {code}: {err.getvalue().strip()[:200]}"
    return out.getvalue(), None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import bicoh.cli
    import bicoh.cohomology
    if not Path(bicoh.__file__).resolve().is_relative_to(src):
        sys.exit(f"bicoh imported from {bicoh.__file__}, not {src}")
    import workloads

    workload = workloads.build(args.workload, args.seed, args.workdir)
    reference = workloads.reference(args.workload)
    setup = time.monotonic() - args.spawned
    probe = Probe()
    for _ in range(SETUP_PROBES):
        probe()
    result = {"setup_s": setup, "scaled_setup_s": setup * probe.speed(),
              "attempted": len(workload.ops), "failed": len(workload.ops),
              "failures": ["stopped before the operations finished"]}
    if args.setup_only:
        result.update(attempted=0, failed=0, failures=[])
        _write(args.out, result)
        return
    _write(args.out, result)

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    signal.signal(signal.SIGALRM, _on_alarm)
    probe = Probe()
    signal.signal(signal.SIGPROF, probe)
    outputs, reasons = [], {}
    wall0, cpu0 = time.perf_counter(), time.process_time()
    signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)
    for index, argv in enumerate(workload.ops):
        stdout, reason = run_op(bicoh.cli, argv)
        outputs.append(stdout)
        if reason is not None:
            reasons[index] = reason
    signal.setitimer(signal.ITIMER_PROF, 0)
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    scaled_wall = (wall - sum(probe.times)) * probe.speed()
    if tracer is not None:
        tracer.uninstall()

    for index, reason in workload.check(outputs, reference).items():
        reasons.setdefault(index, reason)
    result.update(
        wall_s=wall,
        scaled_wall_s=scaled_wall,
        cpu_over_wall=cpu / wall,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        failed=len(reasons),
        failures=[f"op {i} ({' '.join(workload.ops[i][:3])}): {reasons[i]}"
                  for i in sorted(reasons)])
    if tracer is not None:
        result["layers"] = tracer.metrics(bicoh.cohomology)
    _write(args.out, result)


if __name__ == "__main__":
    main()
