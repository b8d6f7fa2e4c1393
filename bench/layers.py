"""Layers of the traced run: hook targets and the per-layer metrics.

Layers are named after the modaldyn modules.  Spans time calls into public
names as ``modaldyn.pipeline`` binds them, into the ``modaldyn.io`` writers
and into ``JumpProcess.__init__`` / ``.ensemble``; the benchmark wraps each
``modaldyn.pipeline.run`` call in a ``pipeline.run`` span of its own.

Per-layer times are raw seconds of the traced pass; ``machine.ref_ms`` is
the reference kernel's time in the same run, for comparing runs made while
the machine ran at different speeds.
"""

from __future__ import annotations

PIPE = "modaldyn.pipeline"
MIB = 2.0 ** 20


def _ensemble_counts(counts, paths):
    counts["paths"] = len(paths)
    counts["events"] = sum(p.jump_count for p in paths)


def _series_counts(counts, kernel):
    counts["built"] = 1
    counts["terms"] = int(kernel.n_terms)


IO_WRITERS = {
    "write_manifest": "io.manifest",
    "write_state_space_json": "io.state_space",
    "write_trajectory_csv": "io.trajectory",
    "write_currents_csv": "io.currents",
    "write_rates_csv": "io.rates",
    "write_kernel_json": "io.kernel",
    "write_paths_jsonl": "io.paths",
    "write_stats_csv": "io.stats",
    "write_report_json": "io.report",
}

HOOKS = [
    (PIPE, "compute_joint_family", "pipeline.joint_family", None),
    (PIPE, "evolve_on_grid", "hilbert.evolve", None),
    (PIPE, "partial_trace", "hilbert.partial_trace", None),
    (PIPE, "track", "spectral.track", None),
    (PIPE, "derivative_family", "spectral.derivative", None),
    (PIPE, "detect_crossings", "spectral.crossings", None),
    (PIPE, "compute_currents", "currents.compute", None),
    (PIPE, "pdot_target", "currents.pdot_target", None),
    (PIPE, "continuity_residual", "currents.residual", None),
    (PIPE, "compute_rates", "kinetics.rates", None),
    (PIPE, "pole_free_rows", "kinetics.pole_free_rows", None),
    (PIPE, "master_residual", "kinetics.master", None),
    (PIPE, "classify_singularities", "kinetics.singularities", None),
    (PIPE, "feller_minimal", "feller.series", _series_counts),
    (PIPE, "forward_ode_kernel", "feller.ode", None),
    (PIPE, "chapman_kolmogorov_residual", "feller.chapman", None),
    (PIPE, "honesty_deficit", "feller.honesty", None),
    (PIPE + ":JumpProcess", "__init__", "sampler.init", None),
    (PIPE + ":JumpProcess", "ensemble", "sampler.ensemble", _ensemble_counts),
    (PIPE, "ensemble_marginals", "sampler.marginals", None),
    (PIPE, "low_probability_occupancy", "sampler.occupancy", None),
    (PIPE, "total_variation", "sampler.total_variation", None),
] + [("modaldyn.io", fn, name, None) for fn, name in IO_WRITERS.items()]

# Spans whose calls run under tracemalloc in the memory pass: the stages that
# hold the (n, D, dim, dim) stacks and the series kernel's (m, D, D) arrays.
MEMORY_SPANS = frozenset({"pipeline.joint_family", "currents.compute",
                          "kinetics.rates", "feller.series"})
# Tracking makes many small allocations and slows about 7x under tracemalloc
# while holding little memory, so the memory pass does not trace inside it.
PAUSED_SPANS = frozenset({"spectral.track"})

# name -> (unit, better); the order is the order of the printed table.
UNITS = {
    "sampler.ensemble_s": ("s", "lower"),
    "sampler.init_s": ("s", "lower"),
    "sampler.paths_per_s": ("1/s", "higher"),
    "sampler.events": ("count", "higher"),
    "sampler.events_per_s": ("1/s", "higher"),
    "sampler.marginals_s": ("s", "lower"),
    "sampler.occupancy_s": ("s", "lower"),
    "pipeline.run_self_s": ("s", "lower"),
    "pipeline.joint_family_s": ("s", "lower"),
    "pipeline.joint_family_peak_mb": ("MiB", "lower"),
    "hilbert.partial_trace_s": ("s", "lower"),
    "hilbert.partial_trace_calls": ("count", "lower"),
    "hilbert.evolve_s": ("s", "lower"),
    "spectral.track_s": ("s", "lower"),
    "spectral.derivative_s": ("s", "lower"),
    "spectral.crossings_s": ("s", "lower"),
    "currents.compute_s": ("s", "lower"),
    "currents.compute_peak_mb": ("MiB", "lower"),
    "currents.residual_s": ("s", "lower"),
    "currents.continuity_residual_max": ("1", "lower"),
    "kinetics.rates_s": ("s", "lower"),
    "kinetics.rates_peak_mb": ("MiB", "lower"),
    "kinetics.master_s": ("s", "lower"),
    "kinetics.singularities_s": ("s", "lower"),
    "kinetics.pole_nodes": ("count", "lower"),
    "feller.series_s": ("s", "lower"),
    "feller.series_calls": ("count", "higher"),
    "feller.series_terms": ("count", "lower"),
    "feller.built_ratio": ("1", "higher"),
    "feller.series_peak_mb": ("MiB", "lower"),
    "feller.honesty_deficit_max": ("1", "lower"),
    "feller.cross_check_max": ("1", "lower"),
    "feller.over_threshold": ("count", "lower"),
    "feller.ode_s": ("s", "lower"),
    "feller.ode_calls": ("count", "lower"),
    "feller.chapman_s": ("s", "lower"),
    "io.export_s": ("s", "lower"),
    "io.rates_s": ("s", "lower"),
    "io.currents_s": ("s", "lower"),
    "io.trajectory_s": ("s", "lower"),
    "io.paths_s": ("s", "lower"),
    "io.bytes": ("B", "lower"),
    "io.mb_per_s": ("MiB/s", "higher"),
    "scenario.load_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.missing_hooks": ("count", "lower"),
    "machine.ref_ms": ("ms", "lower"),
}


def layer_metrics(timing: dict, memory: dict, outcomes, io_bytes: int,
                  load_s: float, untraced_wall: float, traced_wall: float,
                  missing: list) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``timing`` and ``memory`` are :func:`tracer.summarize` outputs of the
    timing pass and of the tracemalloc pass; ``outcomes`` are the timing
    pass's op outcomes.
    """
    def row(name):
        return timing.get(name, {"total": 0.0, "self": 0.0, "calls": 0, "counts": {}})

    def total(*names):
        return sum(row(n)["total"] for n in names)

    def count(name, key):
        return row(name)["counts"].get(key, 0)

    def peak_mb(name):
        return (memory.get(name, {}).get("peak") or 0) / MIB

    ens = total("sampler.ensemble")
    series_calls = row("feller.series")["calls"]
    export_s = total(*IO_WRITERS.values())
    return {
        "sampler.ensemble_s": ens,
        "sampler.init_s": total("sampler.init"),
        "sampler.paths_per_s": count("sampler.ensemble", "paths") / ens if ens else 0.0,
        "sampler.events": count("sampler.ensemble", "events"),
        "sampler.events_per_s": count("sampler.ensemble", "events") / ens if ens else 0.0,
        "sampler.marginals_s": total("sampler.marginals"),
        "sampler.occupancy_s": total("sampler.occupancy"),
        "pipeline.run_self_s": row("pipeline.run")["self"],
        "pipeline.joint_family_s": row("pipeline.joint_family")["self"],
        "pipeline.joint_family_peak_mb": peak_mb("pipeline.joint_family"),
        "hilbert.partial_trace_s": total("hilbert.partial_trace"),
        "hilbert.partial_trace_calls": row("hilbert.partial_trace")["calls"],
        "hilbert.evolve_s": total("hilbert.evolve"),
        "spectral.track_s": total("spectral.track"),
        "spectral.derivative_s": total("spectral.derivative"),
        "spectral.crossings_s": total("spectral.crossings"),
        "currents.compute_s": total("currents.compute", "currents.pdot_target"),
        "currents.compute_peak_mb": peak_mb("currents.compute"),
        "currents.residual_s": total("currents.residual"),
        "currents.continuity_residual_max": max(
            (o.continuity for o in outcomes if o.continuity is not None), default=0.0),
        "kinetics.rates_s": total("kinetics.rates"),
        "kinetics.rates_peak_mb": peak_mb("kinetics.rates"),
        "kinetics.master_s": total("kinetics.master", "kinetics.pole_free_rows"),
        "kinetics.singularities_s": total("kinetics.singularities"),
        "kinetics.pole_nodes": sum(o.pole_nodes for o in outcomes),
        "feller.series_s": total("feller.series"),
        "feller.series_calls": series_calls,
        "feller.series_terms": count("feller.series", "terms"),
        "feller.built_ratio": (count("feller.series", "built") / series_calls
                               if series_calls else 0.0),
        "feller.series_peak_mb": peak_mb("feller.series"),
        "feller.honesty_deficit_max": max(
            (o.honesty for o in outcomes if o.honesty is not None), default=0.0),
        "feller.cross_check_max": max(
            (o.cross_check for o in outcomes if o.cross_check is not None), default=0.0),
        "feller.over_threshold": sum(bool(o.kernel_over) for o in outcomes),
        "feller.ode_s": total("feller.ode"),
        "feller.ode_calls": row("feller.ode")["calls"],
        "feller.chapman_s": total("feller.chapman"),
        "io.export_s": export_s,
        "io.rates_s": total("io.rates"),
        "io.currents_s": total("io.currents"),
        "io.trajectory_s": total("io.trajectory"),
        "io.paths_s": total("io.paths"),
        "io.bytes": io_bytes,
        "io.mb_per_s": io_bytes / MIB / export_s if export_s else 0.0,
        "scenario.load_s": load_s,
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.missing_hooks": len(missing),
    }
