import importlib
import pkgutil

import bicoh


def test_process_wide_caches_are_the_inventoried_five():
    # every lru_cache defined in a bicoh submodule; a new one must join
    # the inventory of the process-wide caches rather than slip in
    found = set()
    for info in pkgutil.iter_modules(bicoh.__path__):
        module = importlib.import_module(f"bicoh.{info.name}")
        for name, obj in vars(module).items():
            if (hasattr(obj, "cache_info")
                    and getattr(obj, "__module__", None) == module.__name__):
                found.add(f"{info.name}.{name}")
    assert found == {"resolution.hilbert_dim", "resolution.resolve",
                     "resolution.ext_presentation", "strands.x_strand",
                     "strands.y_strand"}
