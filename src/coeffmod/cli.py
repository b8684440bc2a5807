"""Command-line surface: spec files, deterministic seeded runs, reports.

A spec file is UTF-8 ``key = value`` lines with '#' comments:

    field = Fp:10007        # or Q
    xvars = 2
    rank  = 1
    gens  = [(x1^4); (x1^3*x2); (x1*x2^3); (x2^4)]
    labels = [a; b; c; d]   # optional

Each generator is a rank-sized vector of x-polynomials (parentheses may be
omitted for rank 1); the module is spanned by sum_j f_j t_j inside the free
module.  Reports are reproducible byte for byte from the same spec, seed
and flags; --json emits a stable schema and --trunc-probe re-runs every
computation with enlarged truncation bounds and insists on identical module
results.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys

from .chains import (
    check_coefficient_preservation,
    check_power_collapse,
    check_top_link_meets_ratliff_rush,
    coefficient_chain,
    coefficient_module,
    graded_coefficient_module,
    maximality_probe,
)
from .errors import CoeffmodError, ParseError
from .graded import (
    ModulePresentation,
    colength_exponent,
    module_membership,
    modules_equal,
    truncation_margin,
)
from .hilbert import capture, degree_test, fit
from .linalg import field_from_name
from .modops import (
    ReductionWitness,
    analytic_spread,
    fitting_ideal,
    is_reduction,
    minimal_reduction,
    monomial_integral_closure,
    ratliff_rush,
    relative_closure,
    saturate,
)
from .poly import Monomial, PolyElement, RingDescriptor, parse_poly

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# spec files
# ---------------------------------------------------------------------------


def _strip_comment(line: str) -> str:
    pos = line.find("#")
    return line if pos < 0 else line[:pos]


def _split_top_level(text: str, sep: str):
    parts = []
    depth = 0
    current = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced parentheses in list")
        if ch == sep and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return [p.strip() for p in parts if p.strip()]


def load_spec(path: str):
    """Parse and validate a spec file into a module presentation."""
    with open(path, "rb") as fh:
        raw = fh.read()
    digest = hashlib.sha256(raw).hexdigest()
    entries = {}
    pending_key = None
    pending_value = []
    for lineno, line in enumerate(raw.decode("utf-8").splitlines(), start=1):
        text = _strip_comment(line).strip()
        if not text:
            continue
        if pending_key is None:
            if "=" not in text:
                raise ParseError(f"expected 'key = value', got {text!r}", line=lineno)
            key, _, value = text.partition("=")
            key = key.strip().lower()
            value = value.strip()
            if value.startswith("[") and not value.endswith("]"):
                pending_key, pending_value = key, [value]
                continue
            entries[key] = (value, lineno)
        else:
            pending_value.append(text)
            if text.endswith("]"):
                entries[pending_key] = (" ".join(pending_value), lineno)
                pending_key, pending_value = None, []
    if pending_key is not None:
        raise ParseError(f"unterminated list for key {pending_key!r}")
    for required in ("field", "xvars", "rank", "gens"):
        if required not in entries:
            raise ParseError(f"missing key {required!r}")
    try:
        field = field_from_name(entries["field"][0])
    except ValueError as exc:
        raise ParseError(str(exc), line=entries["field"][1]) from exc
    try:
        ring = RingDescriptor(field, int(entries["xvars"][0]), int(entries["rank"][0]))
    except ValueError as exc:
        raise ParseError("xvars and rank must be positive integers") from exc
    d, p = ring.d, ring.p
    gens_text, gens_line = entries["gens"]
    if not (gens_text.startswith("[") and gens_text.endswith("]")):
        raise ParseError("gens must be a bracketed list", line=gens_line)
    vectors = _split_top_level(gens_text[1:-1], ";")
    gens = []
    for vec in vectors:
        inner = vec
        if inner.startswith("(") and inner.endswith(")"):
            inner = inner[1:-1]
        components = _split_top_level(inner, ",")
        if len(components) != p:
            raise ParseError(
                f"generator {vec!r} has {len(components)} entries, expected rank {p}",
                line=gens_line,
            )
        gen = PolyElement.zero(ring)
        for j, comp in enumerate(components):
            poly = parse_poly(comp, ring)
            if any(sum(m.texp) != 0 for m in poly.coeffs):
                raise ParseError(
                    f"vector component {comp!r} must not mention t-variables",
                    line=gens_line,
                )
            tj = Monomial((0,) * d, tuple(int(i == j) for i in range(p)))
            gen = gen.add(poly.mul_monomial(tj))
        if not gen.is_zero():
            gens.append(gen)
    if not gens:
        raise ParseError("no nonzero generators", line=gens_line)
    labels = None
    if "labels" in entries:
        ltext, lline = entries["labels"]
        if not (ltext.startswith("[") and ltext.endswith("]")):
            raise ParseError("labels must be a bracketed list", line=lline)
        labels = _split_top_level(ltext[1:-1], ";")
    mod = ModulePresentation(ring, gens)
    meta = {
        "path": path,
        "sha256": digest,
        "field": field.name,
        "xvars": d,
        "rank": p,
        "labels": labels,
    }
    return mod, meta


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------


def _module_text(mod: ModulePresentation):
    return [g.text() for g in sorted(mod.gens, key=lambda g: g.leading_monomial().key)]


def _fit_payload(fitted, top: int):
    payload = {
        "degree": fitted.degree,
        "stabilized from n": fitted.stabilization_index,
        "confirmed points": fitted.confirmed,
        "monomial coefficients": [str(c) for c in fitted.coefficients_exact()],
    }
    try:
        payload[f"signed binomial basis (top {top})"] = [
            str(e) for e in fitted.binomial_coefficients(top)
        ]
    except CoeffmodError as exc:
        payload["basis note"] = str(exc)
    return payload


def _witness_payload(witness: ReductionWitness):
    return {
        "elements": [e.text() for e in witness.elems],
        "power": witness.n0,
        "stabilized at r": witness.r,
    }


def _certificate_payload(cert):
    rel = "<=" if cert.inclusive else "<"
    return {
        "k": cert.k,
        "n0": cert.n0,
        "module": _module_text(cert.result),
        "degree": cert.degree_fit.degree,
        "bound": f"degree {rel} {cert.threshold}",
        "degree ok": cert.degree_ok(),
        "join stabilized": cert.complete,
        "joins": cert.joins,
        "checks": list(cert.checks_passed),
        "reduction": _witness_payload(cert.reduction) if cert.reduction.elems else None,
    }


def _render_text(report: dict, out):
    def emit(key, value, indent):
        pad = "  " * indent
        if isinstance(value, dict):
            out.write(f"{pad}{key}:\n")
            for k, v in value.items():
                emit(k, v, indent + 1)
        elif isinstance(value, list) and any(isinstance(v, (dict, list)) for v in value):
            out.write(f"{pad}{key}:\n")
            for i, v in enumerate(value):
                emit(f"[{i}]", v, indent + 1)
        else:
            out.write(f"{pad}{key}: {value}\n")

    out.write(f"# coeffmod report (schema {report['schema']})\n")
    for key in ("command", "input", "field", "xvars", "rank", "seed", "options", "results"):
        emit(key, report[key], 0)
    for verdict in report["verdicts"]:
        out.write(f"verdict {verdict['name']}: {'PASS' if verdict['pass'] else 'FAIL'}\n")
    for note in report["notes"]:
        out.write(f"note: {note}\n")


# ---------------------------------------------------------------------------
# command bodies: pure functions of (module, options, fresh rng)
# ---------------------------------------------------------------------------


def _cmd_inspect(mod, meta, opts, rng):
    results = {
        "generators": _module_text(mod),
        "monomial": mod.monomial,
        "t-degree": mod.tdeg,
    }
    try:
        witness = colength_exponent(mod)
        results["colength exponent"] = witness.exponent if witness.finite else "infinite"
    except CoeffmodError as exc:
        results["colength exponent"] = f"undecided ({exc})"
    return results, []


def _require_other(opts):
    if not getattr(opts, "other", None):
        raise CoeffmodError("--other SPEC is required for --kind ra")
    return load_spec(opts.other)[0]


def _cmd_lengths(mod, meta, opts, rng):
    kind = opts.kind
    if kind == "ra":
        table = capture("ra", opts.nmax, big=mod, small=_require_other(opts))
    else:
        table = capture(kind, opts.nmax, mod=mod)
    return {"kind": table.kind, "table": {str(n): v for n, v in table.values}}, []


def _cmd_fit(mod, meta, opts, rng):
    ring = mod.ring
    top = opts.top if opts.top is not None else ring.d + ring.p - 1
    if opts.kind == "ra":
        table = capture("ra", opts.nmax, big=mod, small=_require_other(opts))
    else:
        table = capture(opts.kind, opts.nmax, mod=mod)
    fitted = fit(table, window=opts.window)
    return {
        "kind": table.kind,
        "table": {str(n): v for n, v in table.values},
        "fit": _fit_payload(fitted, top),
    }, []


def _cmd_saturate(mod, meta, opts, rng):
    res = saturate(mod)
    return {"module": _module_text(res.module), "stabilized at k": res.index}, []


def _cmd_rr(mod, meta, opts, rng):
    res = ratliff_rush(mod, n_max=max(opts.nmax, 8))
    return {
        "module": _module_text(res.module),
        "union reached at n": res.index,
        "colon steps inspected": res.steps,
    }, []


def _cmd_closure(mod, meta, opts, rng):
    out = monomial_integral_closure(mod, cross_check=opts.trunc_probe)
    return {"module": _module_text(out)}, []


def _cmd_qmod(mod, meta, opts, rng):
    out = relative_closure(mod)
    return {"module": _module_text(out)}, []


def _cmd_fitting(mod, meta, opts, rng):
    out = fitting_ideal(mod)
    return {"ideal": _module_text(out)}, []


def _cmd_spread(mod, meta, opts, rng):
    report = analytic_spread(mod, n_max=opts.nmax)
    return {
        "analytic spread": report.spread,
        "generator counts": {str(n): v for n, v in report.table.values},
        "fit": _fit_payload(report.fitted, max(report.spread - 1, 0)),
    }, []


def _cmd_redcheck(mod, meta, opts, rng):
    other, _ = load_spec(opts.other)
    outcome = is_reduction(other, mod, r_max=opts.budget)
    if isinstance(outcome, ReductionWitness):
        results = {"is reduction": True, "witness": _witness_payload(outcome)}
        verdicts = [{"name": "reduction", "pass": True}]
    else:
        results = {"is reduction": False, "note": outcome.note, "r max": outcome.r_max}
        verdicts = [{"name": "reduction", "pass": False}]
    return results, verdicts


def _cmd_minred(mod, meta, opts, rng):
    spread = analytic_spread(mod, n_max=opts.nmax).spread
    count = opts.count if opts.count is not None else spread
    witness = minimal_reduction(mod, opts.n0, count, rng, spread=spread)
    return {"spread": spread, "witness": _witness_payload(witness)}, []


def _cmd_coeff(mod, meta, opts, rng):
    cert = coefficient_module(mod, opts.k, rng, budget=opts.budget, nmax=opts.nmax, window=opts.window)
    payload = _certificate_payload(cert)
    return {"certificate": payload}, [
        {"name": f"degree bound for k={opts.k}", "pass": cert.degree_ok()}
    ]


def _cmd_coeff_chain(mod, meta, opts, rng):
    chain = coefficient_chain(mod, rng, budget=opts.budget, nmax=opts.nmax, window=opts.window)
    results = {
        "spread": chain.spread,
        "links": [_certificate_payload(c) for c in chain.certificates],
        "nesting verified": chain.nesting_verified,
    }
    if chain.closure_link is not None:
        results["relative closure (k=0)"] = _module_text(chain.closure_link.result)
    verdicts = [
        {"name": "chain nesting", "pass": chain.nesting_verified},
        {
            "name": "all degree bounds",
            "pass": all(c.degree_ok() for c in chain.certificates),
        },
    ]
    return results, verdicts


def _cmd_gcoeff(mod, meta, opts, rng):
    cert = graded_coefficient_module(mod, opts.k, rng, budget=opts.budget, nmax=opts.nmax, window=opts.window)
    return {"certificate": _certificate_payload(cert)}, [
        {"name": f"graded degree bound for k={opts.k}", "pass": cert.degree_ok()}
    ]


def _cmd_probe(mod, meta, opts, rng):
    cert = coefficient_module(mod, opts.k, rng, budget=opts.budget, nmax=opts.nmax, window=opts.window)
    probe = maximality_probe(mod, cert, rng, sample_budget=opts.samples, nmax=opts.nmax, window=opts.window)
    results = {
        "certificate": _certificate_payload(cert),
        "complement size": probe.complement_size,
        "samples tested": probe.samples_tested,
        "violations": probe.violations,
        "vacuous": probe.vacuous,
    }
    return results, [{"name": "maximality probe", "pass": not probe.violations}]


def _cmd_check_5_8(mod, meta, opts, rng):
    report = check_power_collapse(
        mod, opts.k, rng, n_range=opts.nrange, budget=opts.budget, nmax=opts.nmax, window=opts.window
    )
    details = {
        key: (value if not isinstance(value, list) else [list(map(str, v)) for v in value])
        for key, value in report.details.items()
    }
    return {"check": report.name, "details": details}, [
        {"name": report.name, "pass": report.passed}
    ]


def _cmd_verify(mod, meta, opts, rng):
    suite = opts.suite
    if suite == "prop52":
        report = check_top_link_meets_ratliff_rush(
            mod, rng, budget=opts.budget, nmax=opts.nmax, window=opts.window
        )
    elif suite == "lemma22":
        report = _suite_closure_laws(mod)
    elif suite == "cor26":
        report = _suite_reduction_implies_integral(mod, rng, opts)
    elif suite == "rees":
        report = _suite_reduction_degree_equivalence(mod, rng, opts)
    elif suite == "cor57":
        report = check_coefficient_preservation(
            mod, opts.k or 0, rng, budget=opts.budget, nmax=opts.nmax, window=opts.window
        )
    else:
        raise CoeffmodError(f"unknown verification suite {suite!r}")
    return {"check": report.name, "details": {k: str(v) for k, v in report.details.items()}}, [
        {"name": report.name, "pass": report.passed}
    ]


def _suite_closure_laws(mod):
    from .chains import CheckReport

    q1 = relative_closure(mod)
    q2 = relative_closure(q1)
    idempotent = modules_equal(q1, q2)
    outcome = is_reduction(mod, q1, r_max=10)
    reduces = isinstance(outcome, ReductionWitness)
    contains = all(module_membership(g, q1) for g in mod.gens)
    passed = idempotent and reduces and contains
    return CheckReport(
        "closure laws",
        passed,
        {
            "relative closure": _module_text(q1),
            "idempotent": idempotent,
            "base is a reduction of it": reduces,
            "contains the base": contains,
        },
    )


def _suite_reduction_implies_integral(mod, rng, opts):
    from .chains import CheckReport
    from .graded import colon_into_frame, module_power

    spread = analytic_spread(mod, n_max=opts.nmax).spread
    witness = minimal_reduction(mod, 1, spread, rng, spread=spread)
    closure = monomial_integral_closure(mod)
    square = module_power(mod, 2)
    sat_res = saturate(mod).module
    candidate = colon_into_frame(square, witness.elems[:1], sat_res, mod)
    ok = all(module_membership(g, closure) for g in candidate.gens)
    return CheckReport(
        "single colon lands in the integral closure",
        ok,
        {"colon module": _module_text(candidate), "closure": _module_text(closure)},
    )


def _suite_reduction_degree_equivalence(mod, rng, opts):
    from .chains import CheckReport
    from .hilbert import capture_rees_amao

    ring = mod.ring
    top = ring.d + ring.p - 1
    spread = analytic_spread(mod, n_max=opts.nmax).spread
    witness = minimal_reduction(mod, 1, spread, rng, spread=spread)
    sub = ModulePresentation(ring, witness.elems, tdeg=mod.tdeg)
    table = capture_rees_amao(mod, sub, opts.nmax, verify_inclusion=False)
    low_degree, fitted = degree_test(table, top, window=opts.window)
    agree = low_degree  # the witness already certifies the reduction
    return CheckReport(
        "reduction iff relative degree drop",
        agree,
        {"fit degree": fitted.degree, "threshold": top, "witness r": witness.r},
    )


_COMMANDS = {
    "inspect": _cmd_inspect,
    "lengths": _cmd_lengths,
    "fit": _cmd_fit,
    "saturate": _cmd_saturate,
    "rr": _cmd_rr,
    "closure": _cmd_closure,
    "qmod": _cmd_qmod,
    "fitting": _cmd_fitting,
    "spread": _cmd_spread,
    "redcheck": _cmd_redcheck,
    "minred": _cmd_minred,
    "coeff": _cmd_coeff,
    "coeff-chain": _cmd_coeff_chain,
    "gcoeff": _cmd_gcoeff,
    "probe": _cmd_probe,
    "check-5-8": _cmd_check_5_8,
    "verify": _cmd_verify,
}


def _options_echo(opts) -> dict:
    skip = {"command", "spec", "json"}
    out = {}
    for key, value in sorted(vars(opts).items()):
        if key not in skip and value is not None:
            out[key] = value
    return out


def run_command(opts) -> tuple:
    """Execute one command; returns (report dict, exit code)."""
    mod, meta = load_spec(opts.spec)
    body = _COMMANDS[opts.command]

    def execute():
        rng = random.Random(opts.seed)
        return body(mod, meta, opts, rng)

    results, verdicts = execute()
    notes = []
    if opts.trunc_probe:
        stable = True
        for extra in (1, 2):
            with truncation_margin(extra):
                probe_results, _ = execute()
            if probe_results != results:
                stable = False
        notes.append("truncation probe: results identical at enlarged bounds" if stable else "truncation probe: MISMATCH")
        verdicts = list(verdicts) + [{"name": "truncation probe", "pass": stable}]
    report = {
        "schema": SCHEMA_VERSION,
        "command": opts.command,
        "input": {"path": meta["path"], "sha256": meta["sha256"]},
        "field": meta["field"],
        "xvars": meta["xvars"],
        "rank": meta["rank"],
        "seed": opts.seed,
        "options": _options_echo(opts),
        "results": results,
        "verdicts": verdicts,
        "notes": notes,
    }
    if meta.get("labels"):
        report["input"]["labels"] = meta["labels"]
    code = 0 if all(v["pass"] for v in verdicts) else 1
    return report, code


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coeffmod",
        description="exact coefficient-module chains, closures and length polynomials",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, spec=True):
        if spec:
            p.add_argument("spec", help="module spec file")
        p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
        p.add_argument("--nmax", type=_positive, default=8, help="table length (default 8)")
        p.add_argument("--budget", type=int, default=6, help="randomized attempt budget")
        p.add_argument("--window", type=_positive, default=3, help="fit confirmation window")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument(
            "--trunc-probe",
            action="store_true",
            help="re-run with enlarged truncation bounds and compare results",
        )

    common(sub.add_parser("inspect", help="echo the parsed module and its colength"))
    p = sub.add_parser("lengths", help="capture a length table")
    p.add_argument("--kind", choices=["br", "fiber", "ra"], default="br")
    p.add_argument("--other", help="smaller module spec for --kind ra")
    common(p)
    p = sub.add_parser("fit", help="capture a table and fit its polynomial tail")
    p.add_argument("--kind", choices=["br", "fiber", "ra"], default="br")
    p.add_argument("--other", help="smaller module spec for --kind ra")
    p.add_argument("--top", type=int, help="binomial basis top degree")
    common(p)
    common(sub.add_parser("saturate", help="saturation with stabilization index"))
    common(sub.add_parser("rr", help="Ratliff-Rush closure"))
    common(sub.add_parser("closure", help="integral closure (monomial regime)"))
    common(sub.add_parser("qmod", help="relative integral closure"))
    common(sub.add_parser("fitting", help="Fitting ideal of the presentation"))
    common(sub.add_parser("spread", help="analytic spread with fiber table"))
    p = sub.add_parser("redcheck", help="is the other module a reduction of this one")
    p.add_argument("--other", required=True, help="candidate reduction spec file")
    common(p)
    p = sub.add_parser("minred", help="draw a verified minimal reduction")
    p.add_argument("--n0", type=_positive, default=1, help="power to reduce")
    p.add_argument("--count", type=int, help="elements to draw (default: spread)")
    common(p)
    p = sub.add_parser("coeff", help="one link of the relative chain")
    p.add_argument("--k", type=int, required=True)
    common(p)
    common(sub.add_parser("coeff-chain", help="the whole relative chain"))
    p = sub.add_parser("gcoeff", help="one link of the graded chain")
    p.add_argument("--k", type=int, required=True)
    common(p)
    p = sub.add_parser("probe", help="maximality probe for one link")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--samples", type=_positive, default=50)
    common(p)
    p = sub.add_parser("check-5-8", help="power-collapse check across n")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--nrange", type=_positive, default=4)
    common(p)
    p = sub.add_parser("verify", help="named verification suite")
    p.add_argument("suite", choices=["prop52", "lemma22", "cor26", "rees", "cor57"])
    p.add_argument("--k", type=int, help="link index for cor57")
    common(p)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    opts = parser.parse_args(argv)
    try:
        report, code = run_command(opts)
    except CoeffmodError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if opts.json:
        print(json.dumps(report, indent=2, sort_keys=True, default=str))
    else:
        _render_text(report, sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
