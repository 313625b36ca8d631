import importlib
import pkgutil

import bicoh
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


def _submodules():
    for info in pkgutil.iter_modules(bicoh.__path__):
        yield info.name, importlib.import_module(f"bicoh.{info.name}")


def test_process_wide_caches_are_inventoried():
    # every lru_cache defined in a bicoh submodule; a new one must join
    # the inventory of the process-wide caches rather than slip in.
    # hilbert_dim is the restrict+rank referee of the initial-module
    # dimensions: no table reads it, but the benchmark's tracer test does
    found = set()
    for name, module in _submodules():
        for attr, obj in vars(module).items():
            if (hasattr(obj, "cache_info")
                    and getattr(obj, "__module__", None) == module.__name__):
                found.add(f"{name}.{attr}")
    assert found == {"resolution.initial_module", "resolution.resolve",
                     "resolution.ext_presentation", "resolution.hilbert_dim",
                     "strands.x_strand", "strands.y_strand"}


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
    # the Hom builder reads the initial module's tables and keeps nothing
    S = free_presentation(M.ring, [(0, 0)])
    for j in range(3):
        ext_into_dim(M, S, j, (0, 0))
    profile(M)
    assert sizes() == before
