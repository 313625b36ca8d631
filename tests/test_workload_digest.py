"""The printed output of the benchmark workloads, pinned by one digest.

Every operation of the four `perfbench` workloads runs in-process through
`cli.main` at seeds 3 and 5, with the workload builders read only (as in
test_cache_inventory).  The SHA-256 covers each operation's exit code and
stdout, with the input directory replaced by a fixed token, and then the
CSV files the operations wrote, in name order.  A change to the engine
that alters any printed number changes it."""

import contextlib
import hashlib
import io
import sys
from pathlib import Path

from bicoh import cli

# the benchmark's workload builders, read only
sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

SEEDS = (3, 5)
DIGEST = "0c76762731e5dc0ba3a67b12028bb4f6ae2cf759ec338698242500a1efd02284"


def _workload_digest(root):
    h = hashlib.sha256()
    for seed in SEEDS:
        for name in workloads.NAMES:
            workdir = root / f"{name}{seed}"
            workdir.mkdir()
            workload = workloads.build(name, seed, workdir)
            for op in workload.ops:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.main(op)
                text = out.getvalue().replace(str(workdir), "<dir>")
                h.update(f"{name} {seed} {code}\n{text}".encode())
            for path in sorted(workdir.glob("*.csv")):
                h.update(path.name.encode() + b"\n" + path.read_bytes())
    return h.hexdigest()


def test_workload_outputs_are_pinned(tmp_path):
    assert _workload_digest(tmp_path) == DIGEST
