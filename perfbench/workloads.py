"""Workload inputs, operations and the correctness gate.

Every workload is a closed loop with one client: a pass runs the workload's
operations one after another, each on spec files written before timing
starts.  Inputs come from a pool of VARIANTS per workload; variant v is drawn
from random.Random("<workload>/<v>") and fixes the spec files (variable and
t-coordinate permutations, generator order, pencil coefficients) and the
seed handed to every operation.  The modules themselves are chosen so that
every variant costs about the same, which keeps run-to-run spread low
while no two passes of one run see the same inputs.

An operation returns its canonical answer: the parts of a result that do not
depend on random draws (spread, link generator texts and fitted degrees,
nesting, verdicts, length tables), never reduction witnesses, n0 or
`cert.joins` (a budget, not a count of draws).  The gate compares it with
REFERENCES recorded by `run.py --record`.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

import coeffmod
from coeffmod import cli
from coeffmod.errors import CoeffmodError

from oracle import parse_monomial_text, ratliff_rush_monomial

VARIANTS = 12
# Recorded in references.json but not run.  In graded-batch variant 9,
# check_power_collapse k=2 draws a reduction that escalates n0 and takes about
# 43 s instead of 0.3-0.6 s; one such pass outweighs the rest of a run and its
# memory sets peak_rss_mb, so it is left out for its length, like the other
# long cases named in README.md, and kept as an open finding.
LEFT_OUT = {("graded-batch", 9)}
WORKLOADS = ("general-fp", "general-q", "monomial-batch", "graded-batch")
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")

FP = "Fp:10007"
QUARTIC = [(4, 0), (3, 1), (1, 3), (0, 4)]
CUBIC = "x1^3+x2^3; x1*x2^2; x1^2*x2"  # the general-regime chain named in ROADMAP
D2_A = [(3, 0), (0, 2)]
D2_B = [(3, 0), (1, 1), (0, 4)]
D3 = [(1, 0, 0), (0, 2, 0), (0, 0, 2)]
SPREAD2 = [(1, 0), (0, 2)]
RANK2 = [((1, 0), 0), ((0, 1), 0), ((1, 0), 1), ((0, 2), 1)]
MF = [((1, 0), 0), ((0, 1), 0), ((1, 0), 1), ((0, 1), 1)]


@dataclass
class Op:
    """One operation of a pass.  `call(ctx)` returns (answer, verdicts pass);
    `oracle(answer)` is an extra independent check, when there is one."""

    label: str
    call: Callable[[dict], tuple]
    oracle: Optional[Callable[[object], bool]] = None


@dataclass
class Outcome:
    label: str
    answer: object
    failure: Optional[str] = None
    wall_s: float = 0.0
    cpu_s: float = 0.0


@dataclass
class Pass:
    variant: int
    outcomes: list = field(default_factory=list)

    @property
    def wall_s(self):
        return sum(o.wall_s for o in self.outcomes)

    @property
    def cpu_s(self):
        return sum(o.cpu_s for o in self.outcomes)

    @property
    def failed(self):
        return sum(o.failure is not None for o in self.outcomes)


# ---------------------------------------------------------------------------
# spec files
# ---------------------------------------------------------------------------


def _mono(xexp, perm):
    placed = [0] * len(xexp)
    for i, e in enumerate(xexp):
        placed[perm[i]] = e
    parts = [f"x{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(placed) if e]
    return "*".join(parts) if parts else "1"


def _permuted(exps, perm):
    out = []
    for e in exps:
        placed = [0] * len(e)
        for i, x in enumerate(e):
            placed[perm[i]] = x
        out.append(tuple(placed))
    return out


def _write_spec(path, fieldname, d, p, gens):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"field = {fieldname}\nxvars = {d}\nrank = {p}\ngens = [{'; '.join(gens)}]\n")
    return path


class _Variant:
    """Spec writer and seed source for one variant of one workload."""

    def __init__(self, workload, variant, workdir):
        self.rng = random.Random(f"{workload}/{variant}")
        self.dir = os.path.join(workdir, workload, f"v{variant}")
        os.makedirs(self.dir, exist_ok=True)

    def seed(self):
        return self.rng.randrange(2**31)

    def perm(self, n):
        order = list(range(n))
        self.rng.shuffle(order)
        return order

    def ideal(self, name, exps, fieldname=FP):
        """Rank-1 monomial ideal under a random variable permutation;
        returns (spec path, permuted exponents)."""
        perm = self.perm(len(exps[0]))
        gens = [_mono(e, perm) for e in exps]
        self.rng.shuffle(gens)
        path = _write_spec(os.path.join(self.dir, name + ".spec"), fieldname, len(exps[0]), 1, gens)
        return path, _permuted(exps, perm)

    def rank2(self, name, gens):
        xperm, tperm = self.perm(2), self.perm(2)
        texts = []
        for xexp, t in gens:
            parts = ["0", "0"]
            parts[tperm[t]] = _mono(xexp, xperm)
            texts.append(f"({parts[0]}, {parts[1]})")
        self.rng.shuffle(texts)
        return _write_spec(os.path.join(self.dir, name + ".spec"), FP, 2, 2, texts)

    def general(self, name, fieldname, gens):
        return _write_spec(os.path.join(self.dir, name + ".spec"), fieldname, 2, 1, gens)


# ---------------------------------------------------------------------------
# canonical answers
# ---------------------------------------------------------------------------


def _texts(mod):
    return sorted(g.text() for g in mod.gens)


def _chain_answer(chain):
    answer = {
        "spread": chain.spread,
        "links": [[c.k, _texts(c.result), c.degree_fit.degree] for c in chain.certificates],
        "nesting": chain.nesting_verified,
    }
    if chain.closure_link is not None:
        answer["closure"] = _texts(chain.closure_link.result)
    return answer, chain.nesting_verified and all(c.degree_ok() for c in chain.certificates)


def _report_chain(results):
    return {
        "spread": results["spread"],
        "links": [[link["k"], sorted(link["module"]), link["degree"]] for link in results["links"]],
        "nesting": results["nesting verified"],
        "closure": sorted(results.get("relative closure (k=0)") or []),
    }


def _report_certificate(results):
    cert = results["certificate"]
    return {"k": cert["k"], "module": sorted(cert["module"]), "degree": cert["degree"]}


def _report_lengths(results):
    return {"kind": results["kind"], "table": results["table"]}


def _report_rr(results):
    return {"module": sorted(results["module"]), "union reached at n": results["union reached at n"]}


def _report_spread(results):
    return {"spread": results["spread"]}


def _cli_op(label, argv, extract):
    opts = cli.build_parser().parse_args(argv)

    def call(ctx):
        report, code = cli.run_command(opts)
        verdicts = [[v["name"], v["pass"]] for v in report["verdicts"]]
        answer = {"exit": code, "verdicts": verdicts, **extract(report["results"])}
        return answer, code == 0

    return Op(label, call)


def _chain_op(label, path, seed, oracle_gens=None):
    """coefficient_chain on a loaded spec; keeps the chain for the probes.
    With `oracle_gens` (a rank-1 m-primary ideal), the k = s link must equal
    the brute-force Ratliff-Rush closure."""

    def call(ctx):
        mod, _ = cli.load_spec(path)
        rng = random.Random(seed)
        chain = coeffmod.coefficient_chain(mod, rng)
        ctx[label] = (mod, chain, rng)
        return _chain_answer(chain)

    oracle = None
    if oracle_gens is not None:
        expected = ratliff_rush_monomial(oracle_gens)

        def oracle(answer):
            top = answer["links"][0][1]  # links run k = s down to 1
            return sorted(parse_monomial_text(t, len(oracle_gens[0])) for t in top) == expected

    return Op(label, call, oracle)


def _probe_op(chain_label, k, samples):
    def call(ctx):
        mod, chain, rng = ctx.get(chain_label, (None, None, None))
        cert = next((c for c in chain.certificates if c.k == k), None) if chain else None
        if cert is None:
            return {"k": k, "missing link": True}, False
        probe = coeffmod.maximality_probe(mod, cert, rng, sample_budget=samples)
        answer = {"k": probe.k, "complement": probe.complement_size, "violations": probe.violations}
        return answer, not probe.violations

    return Op(f"probe k={k} of {chain_label}", call)


def _graded_chain_op(label, path, seed):
    def call(ctx):
        mod, _ = cli.load_spec(path)
        return _chain_answer(coeffmod.graded_chain(mod, random.Random(seed)))

    return Op(label, call)


def _graded_link_op(label, path, k, seed):
    def call(ctx):
        mod, _ = cli.load_spec(path)
        cert = coeffmod.graded_coefficient_module(mod, k, random.Random(seed))
        return {"k": cert.k, "module": _texts(cert.result), "degree": cert.degree_fit.degree}, cert.degree_ok()

    return Op(label, call)


def _collapse_op(label, path, k, seed, n_range=2):
    def call(ctx):
        mod, _ = cli.load_spec(path)
        rep = coeffmod.chains.check_power_collapse(mod, k, random.Random(seed), n_range=n_range)
        return {"passed": rep.passed, "details": rep.details}, rep.passed

    return Op(label, call)


# ---------------------------------------------------------------------------
# the four workloads
# ---------------------------------------------------------------------------


def _general_fp(v):
    c = v.rng.randrange(1, 10007)
    pencil = v.general("pencil", FP, [f"x1^2{c:+d}*x2^2", "x1*x2"])
    cubic = v.general("cubic", FP, CUBIC.split("; "))
    return [
        _cli_op("coeff-chain pencil", ["coeff-chain", pencil, "--seed", str(v.seed())], _report_chain),
        _cli_op("lengths br cubic", ["lengths", cubic, "--kind", "br", "--nmax", "5"], _report_lengths),
        _cli_op("minred cubic", ["minred", cubic, "--seed", str(v.seed())], _report_spread),
        _cli_op("rr cubic", ["rr", cubic], _report_rr),
    ]


def _general_q(v):
    c = v.rng.choice([1, 2, 3, 5, -1, -2, -3, -5])
    pencil = v.general("pencil", "Q", [f"x1^2{c:+d}*x2^2", "x1*x2"])
    square = v.general("msquare", "Q", ["x1^2", "x1*x2", "x2^2"])
    quartic, _ = v.ideal("quartic", QUARTIC, "Q")
    return [
        _cli_op("lengths br pencil", ["lengths", pencil, "--kind", "br", "--nmax", "6"], _report_lengths),
        _cli_op(
            "lengths ra m^2 over pencil",
            ["lengths", square, "--kind", "ra", "--other", pencil, "--nmax", "5"],
            _report_lengths,
        ),
        _cli_op("coeff-chain quartic", ["coeff-chain", quartic, "--seed", str(v.seed())], _report_chain),
        _cli_op("rr pencil", ["rr", pencil], _report_rr),
    ]


def _monomial_batch(v):
    ops = []
    for name, exps, spread, samples in (
        ("quartic", QUARTIC, 2, 50),
        ("d2a", D2_A, 2, 50),
        ("d2b", D2_B, 2, 50),
        ("d3", D3, 3, 4),
    ):
        path, permuted = v.ideal(name, exps)
        label = f"chain {name}"
        ops.append(_chain_op(label, path, v.seed(), permuted))
        ops.extend(_probe_op(label, k, samples) for k in range(spread, 0, -1))
    path = v.rank2("rank2", RANK2)
    ops.append(_chain_op("chain rank2", path, v.seed()))
    ops.extend(_probe_op("chain rank2", k, 50) for k in (3, 2, 1))
    return ops


def _graded_batch(v):
    mf = v.rank2("mF", MF)
    rank2 = v.rank2("rank2", RANK2)
    d2a, _ = v.ideal("d2a", D2_A)
    spread2, _ = v.ideal("spread2", SPREAD2)
    return [
        _cli_op("gcoeff mF k=3", ["gcoeff", mf, "--k", "3", "--seed", str(v.seed())], _report_certificate),
        _graded_link_op("graded link rank2 k=3", rank2, 3, v.seed()),
        _graded_chain_op("graded chain d2a", d2a, v.seed()),
        _collapse_op("collapse spread2 k=1", spread2, 1, v.seed()),
        _collapse_op("collapse spread2 k=2", spread2, 2, v.seed()),
    ]


_BUILDERS = {
    "general-fp": _general_fp,
    "general-q": _general_q,
    "monomial-batch": _monomial_batch,
    "graded-batch": _graded_batch,
}


def variants(workload):
    """The variants a run rotates through."""
    return [v for v in range(VARIANTS) if (workload, v) not in LEFT_OUT]


def build(workload, variant, workdir):
    """Write the spec files of one variant and return its operations."""
    return _BUILDERS[workload](_Variant(workload, variant, workdir))


# ---------------------------------------------------------------------------
# running a pass under the gate
# ---------------------------------------------------------------------------


def canonical(answer):
    """JSON round trip, so tuples and lists compare equal to stored values."""
    return json.loads(json.dumps(answer, sort_keys=True, default=str))


def load_references():
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def run_pass(ops, variant, references, clock, on_op=None):
    """Run one pass.  `references` maps op label to canonical answer (None
    records instead of checking); `clock()` returns (wall, cpu) seconds."""
    done = Pass(variant)
    ctx = {}
    for index, op in enumerate(ops):
        if on_op is not None:
            on_op(index)
        wall0, cpu0 = clock()
        failure = None
        answer = None
        try:
            answer, verdicts_pass = op.call(ctx)
        except CoeffmodError as exc:
            failure = f"raised {type(exc).__name__}: {exc}"
        wall1, cpu1 = clock()
        if failure is None:
            answer = canonical(answer)
            if not verdicts_pass:
                failure = "FAIL verdict or non-zero exit"
            elif op.oracle is not None and not op.oracle(answer):
                failure = "k = s link differs from the brute-force Ratliff-Rush closure"
            elif references is not None:
                if op.label not in references:
                    failure = "no reference recorded"
                elif references[op.label] != answer:
                    failure = "answer differs from the recorded reference"
        done.outcomes.append(Outcome(op.label, answer, failure, wall1 - wall0, cpu1 - cpu0))
    return done
