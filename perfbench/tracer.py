"""Outside-in tracer: spans around the public functions of bicoh's layers.

`Tracer.install` wraps every public function defined in a layer module and
replaces each binding of it that bicoh holds: module attributes (so
`rank_of_array` imported by name into `resolution` and `cohomology` is
counted there too, as is `resolve` in `cohomology`, `checks`, `tame` and
`cli`) and values of module-level dicts (the suite table of `cli`).  Calls
through the defining module are covered as well, since functions look
their globals up at call time.

Spans are aggregated as they close: per function a call count, the number
of `lru_cache` hits (which are not counted as calls), total and self time.
Self time is a span's duration minus the time of the spans it encloses.
The span stack is not shared between threads, so trace single-threaded
runs only.
"""

import functools
import inspect
import sys
import time

LAYERS = ("linalg", "groebner", "resolution", "strands", "cohomology",
          "checks", "cli", "modfile", "runtime")

# The caches of cohomology, read from cache_info() for its hit ratio.
COHOMOLOGY_CACHES = ("_strand_ext_dim", "_relation_gb", "_std_basis",
                     "_var_mult_matrix")
SMALL_ENTRIES, LARGE_ENTRIES = 64, 4096


class FunctionStats:
    __slots__ = ("calls", "hits", "self_s", "total_s")

    def __init__(self):
        self.calls = self.hits = 0
        self.self_s = self.total_s = 0.0


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []          # open spans: [name, start, child time]
        self.stats = {}          # "layer.function" -> FunctionStats
        self.counters = {
            "nf_in_buchberger": 0, "nf_zero_in_buchberger": 0,
            "basis_size_max": 0, "calls_le64": 0, "calls_le4096": 0,
            "calls_gt4096": 0, "elim_ops": 0, "cells_checked": 0,
            "parallel_items": 0,
        }
        self.originals = {}      # "layer.function" -> unwrapped function
        self._patches = []       # (container, key, original)
        self._observers = {
            "groebner.buchberger": self._see_basis,
            "groebner.normal_form": self._see_normal_form,
            "linalg.rank_of_array": self._see_rank,
            "linalg.kernel_of_array": self._see_kernel,
        }

    # -- spans -------------------------------------------------------------

    def open(self, name):
        self.stack.append([name, self.clock(), 0.0])

    def close(self, hit=False):
        name, start, child = self.stack.pop()
        duration = self.clock() - start
        if self.stack:
            self.stack[-1][2] += duration
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = FunctionStats()
        if hit:
            stats.hits += 1
        else:
            stats.calls += 1
        stats.self_s += duration - child
        stats.total_s += duration

    def is_open(self, name):
        return any(span[0] == name for span in self.stack)

    # -- wrapping ----------------------------------------------------------

    def wrap(self, name, fn):
        cached = hasattr(fn, "cache_info")
        observe = self._observers.get(name)
        if name.startswith("checks."):
            observe = self._see_report
        elif name == "runtime.parallel_map":
            observe = self._see_items

        def traced(*args, **kwargs):
            misses = fn.cache_info().misses if cached else 0
            self.open(name)
            hit = False
            try:
                result = fn(*args, **kwargs)
                hit = cached and fn.cache_info().misses == misses
            finally:
                self.close(hit)
            if observe is not None and not hit:
                observe(args, result)
            return result

        functools.update_wrapper(traced, fn)
        if cached:
            traced.cache_info = fn.cache_info
            traced.cache_clear = fn.cache_clear
        return traced

    def install(self, package="bicoh"):
        """Wrap the public functions of each layer at every binding."""
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if name == package or name.startswith(package + ".")}
        wrappers = {}
        for layer in LAYERS:
            mod = modules.get(f"{package}.{layer}")
            if mod is None:     # a layer that was removed reports zeros
                continue
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or \
                        getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    name = f"{layer}.{attr}"
                    self.originals[name] = obj
                    wrappers[id(obj)] = self.wrap(name, obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patch(mod.__dict__, attr, wrappers[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in wrappers:
                            self._patch(obj, key, wrappers[id(value)])

    def _patch(self, container, key, wrapper):
        self._patches.append((container, key, container[key]))
        container[key] = wrapper

    def uninstall(self):
        for container, key, original in reversed(self._patches):
            container[key] = original
        self._patches.clear()

    # -- observers: counts at the layer boundary ---------------------------

    def _see_basis(self, args, basis):
        self.counters["basis_size_max"] = max(
            self.counters["basis_size_max"],
            len(getattr(basis, "elements", ())))

    def _see_normal_form(self, args, remainder):
        if self.is_open("groebner.buchberger"):
            self.counters["nf_in_buchberger"] += 1
            if not remainder:
                self.counters["nf_zero_in_buchberger"] += 1

    def _see_elimination(self, shape, rank):
        entries = shape[0] * shape[1]
        if entries <= SMALL_ENTRIES:
            self.counters["calls_le64"] += 1
        elif entries <= LARGE_ENTRIES:
            self.counters["calls_le4096"] += 1
        else:
            self.counters["calls_gt4096"] += 1
        self.counters["elim_ops"] += rank * entries

    def _see_rank(self, args, rank):
        self._see_elimination(args[0].shape, rank)

    def _see_kernel(self, args, basis):
        cols = args[0].shape[1]
        self._see_elimination(args[0].shape, cols - basis.shape[1])

    def _see_report(self, args, report):
        # count a suite's cells once, not again in a suite it calls
        checked = getattr(report, "checked", None)
        if isinstance(checked, int) and not any(
                span[0].startswith("checks.") for span in self.stack):
            self.counters["cells_checked"] += checked

    def _see_items(self, args, results):
        self.counters["parallel_items"] += len(results)

    # -- metrics -----------------------------------------------------------

    def _fn(self, name):
        return self.stats.get(name) or FunctionStats()

    def layer_self_s(self):
        totals = dict.fromkeys(LAYERS, 0.0)
        for name, stats in self.stats.items():
            totals[name.split(".", 1)[0]] += stats.self_s
        return totals

    @staticmethod
    def _hit_ratio(functions):
        """Hits over lookups of the lru caches among the functions; 0 when
        there are none (a cache that was replaced reports 0)."""
        infos = [f.cache_info() for f in functions if hasattr(f, "cache_info")]
        lookups = sum(info.hits + info.misses for info in infos)
        return sum(info.hits for info in infos) / lookups if lookups else 0.0

    def metrics(self, cohomology_module):
        """The per-layer metrics, keyed as in BENCHMARK.json."""
        out = {}
        for name in ("groebner.buchberger", "groebner.normal_form",
                     "groebner.syzygies", "linalg.rank_of_array",
                     "linalg.kernel_of_array", "linalg.homology_dim",
                     "resolution.resolve", "resolution.restrict_matrix",
                     "resolution.ext_dim_raw", "cohomology.cech_oracle",
                     "cli.main"):
            out[f"{name}.calls"] = self._fn(name).calls
            out[f"{name}.self_s"] = self._fn(name).self_s
        for name in ("resolution.ext_presentation_raw",
                     "resolution.minimal_presentation",
                     "cohomology.local_coh_table", "cohomology.ext_table",
                     "modfile.load_module"):
            out[f"{name}.self_s"] = self._fn(name).self_s
        c = self.counters
        out["groebner.basis_size_max"] = c["basis_size_max"]
        out["groebner.nf_zero_ratio"] = (
            c["nf_zero_in_buchberger"] / c["nf_in_buchberger"]
            if c["nf_in_buchberger"] else 0.0)
        out["linalg.calls_le64"] = c["calls_le64"]
        out["linalg.calls_le4096"] = c["calls_le4096"]
        out["linalg.calls_gt4096"] = c["calls_gt4096"]
        out["linalg.elim_ops_computed"] = c["elim_ops"]
        for name in ("resolve", "ext_presentation_raw", "hilbert_dim"):
            out[f"resolution.{name}.cache_hit_ratio"] = self._hit_ratio(
                [self.originals.get(f"resolution.{name}")])
        strands = ("strands.x_strand", "strands.y_strand")
        out["strands.calls"] = sum(self._fn(n).calls for n in strands)
        out["strands.cache_hit_ratio"] = self._hit_ratio(
            [self.originals.get(n) for n in strands])
        out["cohomology.cache_hit_ratio"] = self._hit_ratio(
            [getattr(cohomology_module, a, None) for a in COHOMOLOGY_CACHES])
        out["checks.cells_checked"] = c["cells_checked"]
        out["runtime.parallel_map.items"] = c["parallel_items"]
        for layer, seconds in self.layer_self_s().items():
            out[f"{layer}.self_s"] = seconds
        return out
