"""Per-layer metrics of a traced run, computed from the tracer's spans.

Layers are coeffmod's modules.  A metric named `<layer>.<qualname>.<stat>`
with stat `calls`, `self_s` or `s` reads the span named `<layer>.<qualname>`
(`init` stands for `__init__`); the rest are ratios defined below.  Counts
and times are per traced pass.  README.md says which end-to-end metric each
one should move, and on which workload.
"""

from __future__ import annotations

PLAIN = (
    ("linalg.SpanBuilder.insert", ("calls", "self_s")),
    ("linalg.rref", ("calls", "self_s")),
    ("linalg.kernel_basis", ("calls",)),
    ("linalg.Subspace.reduce_vector", ("calls", "self_s")),
    ("poly.PolyElement.mul", ("calls", "self_s")),
    ("poly.PolyElement.mul_monomial", ("calls", "self_s")),
    ("poly.MonomialIndex.vector", ("calls", "self_s")),
    ("poly.MonomialIndex.init", ("calls", "self_s")),
    ("poly.Monomial.init", ("calls",)),
    ("graded.module_span", ("calls", "self_s")),
    ("graded.colength_exponent", ("calls", "s")),
    ("graded.quotient_length", ("calls", "s")),
    ("graded.module_contains", ("calls", "s")),
    ("graded.module_membership", ("calls", "s")),
    ("graded.quotient_lifts", ("calls",)),
    ("graded.colon_into_frame", ("calls", "s")),
    ("graded.try_monomialize", ("calls", "s")),
    ("graded.ModulePresentation.init", ("calls", "self_s")),
    ("graded.module_power", ("calls", "s")),
    ("graded.module_multiply", ("calls", "s")),
    ("graded.mono_quotient_monomials", ("calls", "self_s")),
    ("graded.relative_quotient_dim", ("calls", "self_s")),
    ("graded.product_quotient_dim", ("calls", "self_s")),
    ("hilbert.fit", ("calls",)),
    ("hilbert.capture_rees_amao", ("calls", "s")),
    ("hilbert.capture_graded", ("calls", "s")),
    ("hilbert.capture_fiber", ("calls", "s")),
    ("modops.minimal_reduction", ("calls", "s")),
    ("modops.is_reduction", ("calls", "s")),
    ("modops.analytic_spread", ("s",)),
    ("modops.saturate", ("s",)),
    ("modops.relative_closure", ("calls", "s")),
    ("modops.monomial_integral_closure", ("calls", "self_s")),
    ("modops.fitting_ideal", ("s",)),
    ("chains.coefficient_chain", ("s",)),
    ("chains.graded_chain", ("s",)),
    ("chains.graded_coefficient_module", ("s",)),
    ("chains.maximality_probe", ("s",)),
    ("chains.check_power_collapse", ("s",)),
    ("cli.load_spec", ("calls", "s")),
    ("cli.run_command", ("s",)),
)

# name -> (unit, better) for metrics that are not plain span statistics
DERIVED = {
    "linalg.SpanBuilder.insert.accepted_frac": ("ratio", "higher"),
    "linalg.rref.cells": ("count", "lower"),
    "graded.module_span.rows": ("count", "lower"),
    "hilbert.fit.unstable_frac": ("ratio", "lower"),
    "modops.minimal_reduction.draws_per_success": ("ratio", "lower"),
    "chains.links": ("count", "higher"),
    "chains.fits_per_link": ("ratio", "lower"),
    "chains.colons_per_link": ("ratio", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}

_UNITS = {"calls": ("count", "lower"), "self_s": ("s", "lower"), "s": ("s", "lower")}


def span_of(qualified):
    """Tracer span name of a metric's `<layer>.<qualname>` part."""
    return qualified[: -len("init")] + "__init__" if qualified.endswith(".init") else qualified


def metric_specs():
    """Every per-layer metric as (name, unit, better), in report order."""
    specs = []
    for qualified, stats in PLAIN:
        specs.extend((f"{qualified}.{stat}", *_UNITS[stat]) for stat in stats)
    specs.extend((name, unit, better) for name, (unit, better) in DERIVED.items())
    return specs


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(stats, tracer, passes, overhead):
    """Per-layer metrics from SpanStats `stats` over `passes` traced passes."""
    values = {}
    for qualified, wanted in PLAIN:
        span = span_of(qualified)
        for stat in wanted:
            if stat == "calls":
                values[f"{qualified}.calls"] = stats.count(span) / passes
            elif stat == "self_s":
                values[f"{qualified}.self_s"] = stats.self_s(span) / passes
            else:
                values[f"{qualified}.s"] = stats.s(span) / passes
    inserts = stats.count("linalg.SpanBuilder.insert")
    links = stats.count("chains._finish_relative") + stats.count("chains._finish_graded")
    draws = stats.child_calls("modops.is_reduction", "modops.minimal_reduction")
    successes = stats.count("modops.minimal_reduction") - stats.raised_count("modops.minimal_reduction")
    values.update({
        "linalg.SpanBuilder.insert.accepted_frac": _ratio(tracer.accepted_inserts, inserts),
        "linalg.rref.cells": tracer.rref_cells / passes,
        "graded.module_span.rows": stats.child_calls("linalg.SpanBuilder.insert", "graded.module_span") / passes,
        "hilbert.fit.unstable_frac": _ratio(stats.raised_count("hilbert.fit"), stats.count("hilbert.fit")),
        "modops.minimal_reduction.draws_per_success": _ratio(draws, successes),
        "chains.links": links / passes,
        "chains.fits_per_link": _ratio(stats.count("hilbert.fit"), links),
        "chains.colons_per_link": _ratio(stats.count("graded.colon_into_frame"), links),
        "trace.overhead_frac": overhead,
    })
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in metric_specs()}
