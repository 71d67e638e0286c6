"""Span tracer for the traced run.

The tracer replaces a package function by a wrapper at the place its caller
looks it up (a module attribute or a class method).  Each call records a span:
name, start, end, parent span and query index, kept in flat in-memory arrays
and written out when the run ends.  Self time and counts are derived from the
spans afterwards; a few counts that need the call's arguments or result are
kept next to the spans by hooks.
"""

from __future__ import annotations

import math
import time
from array import array

import numpy as np

from wmwdesign import design, distributions, exact_null, exceedance, moments, power, simulate


def _sample_hook(counters, args, kwargs, result):
    k = args[2] if len(args) > 2 else kwargs["k"]
    counters["sample_draws"] += math.prod(k) if isinstance(k, tuple) else int(k)


def _integrals_hook(counters, args, kwargs, result):
    counters["max_error_bound"] = max(counters["max_error_bound"], result.quadrature_error_bound)


def _table_hook(counters, args, kwargs, result):
    misses = exact_null.build_table.cache_info().misses
    if misses != counters["table_misses"]:
        counters["table_misses"] = misses
        counters["table_entries"] += result.m * result.n + 1


def _simulate_hook(counters, args, kwargs, result):
    plan = args[0]
    counters["simulate_trials"] += plan.trials
    if result.test_used.startswith("wmw"):
        counters["pair_comparisons"] += plan.trials * plan.design.m * plan.design.n
    counters["fallbacks"] += result.fell_back_to_normal


# (owner, attribute, span name, hook): every place a layer is entered
PATCHES = (
    (design, "optimal_design", "design.optimal_design", None),
    (design, "power_curve", "design.power_curve", None),
    (design, "wmw_power", "power.wmw_power", None),
    (design, "_deficiency_search", "power.deficiency_search", None),
    (power, "deficiency_general", "power.deficiency_general", None),
    (power, "welch_deficiency", "power.welch_deficiency", None),
    (power, "welch_power", "power.welch_power", None),
    (power, "wmw_power", "power.wmw_power", None),
    (power, "_deficiency_search", "power.deficiency_search", None),
    (power, "alt_moments", "moments.alt_moments", None),
    (moments, "second_moment_integrals", "exceedance.second_moment_integrals", _integrals_hook),
    (simulate, "simulate_power", "simulate.simulate_power", _simulate_hook),
    (simulate, "build_table", "exact_null.build_table", _table_hook),
    (simulate, "critical_value", "exact_null.critical_value", None),
    (distributions.DistributionSpec, "cdf", "distributions.cdf", None),
    (distributions.DistributionSpec, "pdf", "distributions.pdf", None),
    (distributions.DistributionSpec, "quantile", "distributions.quantile", None),
    (distributions.DistributionSpec, "sample", "distributions.sample", _sample_hook),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.query = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current_query = -1
        self.counters = {"sample_draws": 0, "max_error_bound": 0.0, "table_entries": 0,
                         "table_misses": exact_null.build_table.cache_info().misses,
                         "simulate_trials": 0, "pair_comparisons": 0, "fallbacks": 0}
        self._stack = [-1]
        self._patched = []

    def wrap(self, fn, name: str, hook=None):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        clock, stack, counters = time.perf_counter, self._stack, self.counters
        name_id, parent, query, start, end = (self.name_id, self.parent, self.query,
                                               self.start, self.end)

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            query.append(self.current_query)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(counters, args, kwargs, result)
                return result
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        for owner, attr, name, hook in PATCHES:
            original = owner.__dict__[attr]
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, hook))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), name_id=np.asarray(self.name_id),
                 parent=np.asarray(self.parent), query=np.asarray(self.query),
                 start=np.asarray(self.start), end=np.asarray(self.end))

    def layer_metrics(self, cache_before: dict) -> dict:
        """Per-layer counts and times derived from the spans, plus cache statistics."""
        nid = np.asarray(self.name_id)
        parent = np.asarray(self.parent)
        dur = np.asarray(self.end) - np.asarray(self.start)
        nested = parent >= 0
        self_time = dur - np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        parent_nid = np.where(nested, nid[np.where(nested, parent, 0)], -1)
        query_wall = float(dur[~nested].sum())

        def named(*spans):
            return np.isin(nid, [i for i, name in enumerate(self.names) if name in spans])

        def in_layer(*layers):
            return np.isin(nid, [i for i, name in enumerate(self.names)
                                 if name.split(".")[0] in layers])

        def parent_named(*spans):
            return np.isin(parent_nid, [i for i, name in enumerate(self.names) if name in spans])

        def hit_ratio(fn, before):
            info = fn.cache_info()
            hits, misses = info.hits - before.hits, info.misses - before.misses
            return hits / (hits + misses) if hits + misses else 0.0

        def seconds(values, mask):
            return float(values[mask].sum())

        scan = named("power.wmw_power") & parent_named("design.optimal_design",
                                                       "design.power_curve")
        searched = named("power.wmw_power", "power.welch_power") & parent_named(
            "power.deficiency_search")
        sample = named("distributions.sample")
        c = self.counters
        return {
            "distributions.cdf_pdf_calls": (int(named("distributions.cdf", "distributions.pdf").sum()), "count"),
            "distributions.quantile_calls": (int(named("distributions.quantile").sum()), "count"),
            "distributions.eval_s": (seconds(self_time, named(
                "distributions.cdf", "distributions.pdf", "distributions.quantile")), "s"),
            "distributions.sample_draws": (c["sample_draws"], "count"),
            "distributions.sample_s": (seconds(self_time, sample), "s"),
            "exceedance.calls": (int(named("exceedance.second_moment_integrals").sum()), "count"),
            "exceedance.self_s": (seconds(self_time, in_layer("exceedance")), "s"),
            "exceedance.cache_hit_ratio": (
                hit_ratio(exceedance.second_moment_integrals, cache_before["exceedance"]), "ratio"),
            "exceedance.max_error_bound": (c["max_error_bound"], "1"),
            "moments.alt_moments_calls": (int(named("moments.alt_moments").sum()), "count"),
            "moments.self_s": (seconds(self_time, in_layer("moments")), "s"),
            "power.wmw_power_calls": (int(named("power.wmw_power").sum()), "count"),
            "power.self_s": (seconds(self_time, in_layer("power")), "s"),
            "power.welch_power_calls": (int(named("power.welch_power").sum()), "count"),
            "power.deficiency_s": (seconds(dur, named("power.deficiency_search")), "s"),
            "power.deficiency_designs": (int(searched.sum()), "count"),
            "design.optimal_design_calls": (int(named("design.optimal_design").sum()), "count"),
            "design.grid_points": (int(scan.sum()), "count"),
            "design.self_s": (seconds(self_time, in_layer("design")), "s"),
            "exact_null.build_table_calls": (int(named("exact_null.build_table").sum()), "count"),
            "exact_null.table_entries": (c["table_entries"], "count"),
            "exact_null.build_table_s": (seconds(self_time, named("exact_null.build_table")), "s"),
            "exact_null.cache_hit_ratio": (
                hit_ratio(exact_null.build_table, cache_before["exact_null"]), "ratio"),
            "exact_null.critical_value_s": (
                seconds(self_time, named("exact_null.critical_value")), "s"),
            "simulate.calls": (int(named("simulate.simulate_power").sum()), "count"),
            "simulate.trials": (c["simulate_trials"], "count"),
            "simulate.pair_comparisons": (c["pair_comparisons"], "count"),
            "simulate.self_s": (seconds(self_time, in_layer("simulate")), "s"),
            "simulate.fallbacks": (c["fallbacks"], "count"),
            "trace.spans": (len(dur), "count"),
            # shares of the traced query wall time, as the acceptance criteria name them;
            # distribution evaluations made inside the integrals count to exceedance
            "share.exceedance_incl": (seconds(dur, in_layer("exceedance")) / query_wall, "ratio"),
            "share.power_moments_design_self": (
                seconds(self_time, in_layer("power", "moments", "design")) / query_wall, "ratio"),
            "share.mc_kernels_self": (
                seconds(self_time, in_layer("exact_null", "simulate") | sample) / query_wall,
                "ratio"),
        }


def cache_snapshot() -> dict:
    return {"exceedance": exceedance.second_moment_integrals.cache_info(),
            "exact_null": exact_null.build_table.cache_info()}

