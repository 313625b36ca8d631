import contextlib
import importlib
import io
import pkgutil
import sys
from pathlib import Path

import bicoh
from bicoh import cli
from bicoh.cohomology import (
    cech_oracle,
    ext_table,
    local_coh_table,
    oracle_table,
)
from bicoh.fixtures import gencm_fixture, standard_ring
from bicoh.resolution import free_presentation, hilbert_table, profile
from bicoh.tables import Window
from test_cohomology import ext_into_dim

# the benchmark's workload builders, read only
sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


def _submodules():
    for info in pkgutil.iter_modules(bicoh.__path__):
        yield info.name, importlib.import_module(f"bicoh.{info.name}")


def _caches():
    """{"module.function": function} of every lru_cache defined in a bicoh
    submodule."""
    return {f"{name}.{attr}": obj for name, module in _submodules()
            for attr, obj in vars(module).items()
            if hasattr(obj, "cache_info")
            and getattr(obj, "__module__", None) == module.__name__}


def test_process_wide_caches_are_inventoried():
    # a new lru_cache must join the inventory of the process-wide caches
    # rather than slip in.  ext_presentation has none: a suite that reads
    # one D_u twice keeps it, and no workload reads one Ext module in two
    # calls.  hilbert_dim is the restrict+rank referee of
    # the initial-module dimensions: no table reads it, but the benchmark's
    # tracer test does
    assert set(_caches()) == {"resolution.initial_module",
                              "resolution.resolve", "resolution.hilbert_dim",
                              "strands.strand"}


def test_every_cache_earns_hits_on_a_workload(tmp_path):
    # each benchmark workload at seed 5, its operations run in-process
    # through cli.main from empty caches: every cache but hilbert_dim, which
    # no table reads (it is kept for the benchmark's tracer test), has a
    # hit on some workload
    caches = _caches()
    hits = dict.fromkeys(caches, 0)
    for name in workloads.NAMES:
        (tmp_path / name).mkdir()
        workload = workloads.build(name, 5, tmp_path / name)
        for cache in caches.values():
            cache.cache_clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert [cli.main(op) for op in workload.ops] == \
                [0] * len(workload.ops), name
        for key, cache in caches.items():
            hits[key] += cache.cache_info().hits
    assert {key for key, n in hits.items() if not n} == \
        {"resolution.hilbert_dim"}, hits


def test_no_module_level_container_grows():
    # a hand-rolled cache is a module-level dict, list or set that fills
    # up as modules are computed; the entry points must leave every such
    # container of every bicoh submodule at its size
    def sizes():
        return {f"{name}.{attr}": len(obj)
                for name, module in _submodules()
                for attr, obj in vars(module).items()
                if not attr.startswith("__")
                and isinstance(obj, (dict, list, set))}

    # a prime that no other test uses keeps every presentation fresh
    M = gencm_fixture(standard_ring(13))
    window = Window(-1, 1, -1, 1)
    before = sizes()
    hilbert_table(M, window)
    for j in range(5):
        ext_table(M, j, window)
    for theory in ("P", "Q", "R+"):
        local_coh_table(M, theory, 1, window)
    for theory in ("P", "Q", "R+"):
        cech_oracle(M, theory, 1, (0, 0))
        oracle_table(M, theory, 1, window)
    # the Hom builder reads the initial module's tables and keeps nothing;
    # the oracle calls above are what run it.  ext_into_dim builds its maps
    # with a test-local builder, and resolves M and reads the initial
    # module of S
    S = free_presentation(M.ring, [(0, 0)])
    for j in range(3):
        ext_into_dim(M, S, j, (0, 0))
    profile(M)
    assert sizes() == before
