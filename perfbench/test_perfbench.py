"""Fast tests of the benchmark itself, on tiny inputs.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import os
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import coeffmod  # noqa: E402
from coeffmod import graded  # noqa: E402
from coeffmod.linalg import PrimeField  # noqa: E402
from coeffmod.poly import RingDescriptor, parse_poly  # noqa: E402

import layers  # noqa: E402
import oracle  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402

R21 = RingDescriptor(PrimeField(10007), 2, 1)
SQUARES = "field = Fp:10007\nxvars = 2\nrank = 1\ngens = [(x1^2); (x2^2)]\n"


def _clock():
    return time.perf_counter(), time.process_time()


def _tiny_ops(tmp_path):
    """A coeff-chain through the CLI, the same chain through the library with
    its probes and brute-force oracle, and a graded link: every op kind."""
    path = tmp_path / "squares.spec"
    path.write_text(SQUARES)
    path = str(path)
    return [
        workloads._cli_op("cli chain", ["coeff-chain", path, "--seed", "3"], workloads._report_chain),
        workloads._chain_op("chain", path, 5, [(2, 0), (0, 2)]),
        workloads._probe_op("chain", 2, 5),
        workloads._probe_op("chain", 1, 5),
        workloads._graded_link_op("graded link", path, 1, 7),
    ]


def _answers(done):
    return {o.label: o.answer for o in done.outcomes}


@pytest.fixture
def traced():
    t = tracer_mod.Tracer().install()
    try:
        yield t
    finally:
        t.uninstall()


def test_self_time_is_exact_for_synthetic_recursion():
    # A[0,100] > A[10,50] > B[20,30], then B[60,70] under the outer A
    spans = {
        "name": np.array([0, 0, 1, 1], dtype=np.int32),
        "start": np.array([0, 10, 20, 60], dtype=np.int64),
        "end": np.array([100, 50, 30, 70], dtype=np.int64),
        "parent": np.array([-1, 0, 1, 0], dtype=np.int32),
        "op": np.zeros(4, dtype=np.int32),
        "raised": np.zeros(4, dtype=np.int8),
    }
    stats = tracer_mod.SpanStats(["A", "B"], spans)
    assert stats.count("A") == 2
    assert stats.s("A") * 1e9 == pytest.approx(100)  # recursion counted once
    assert stats.self_s("A") * 1e9 == pytest.approx((100 - 40 - 10) + (40 - 10))
    assert stats.s("B") * 1e9 == pytest.approx(20)
    assert stats.child_calls("B", "A") == 2


def test_self_time_is_exact_for_library_spans(traced):
    mod = graded.ModulePresentation(R21, [parse_poly(t, R21) for t in ("x1^2", "x2^2")])
    coeffmod.graded.module_power(mod, 3)
    general = graded.ModulePresentation(R21, [parse_poly(t, R21) for t in ("x1^2+x2^2", "x1*x2")])
    coeffmod.graded.colength_exponent(general)
    spans = traced.arrays()
    names = traced.names
    dur, selfs, _ = tracer_mod.span_times(spans)
    assert (selfs >= 0).all()
    roots = spans["parent"] < 0
    assert int(selfs.sum()) == int(dur[roots].sum())  # self times partition the roots exactly

    def chain_of(i):
        out = []
        while i >= 0:
            out.append(names[spans["name"][i]])
            i = spans["parent"][i]
        return out

    inits = [i for i, n in enumerate(spans["name"]) if names[n] == "graded.ModulePresentation.__init__"]
    assert any(chain_of(i)[1:3] == ["graded.module_multiply", "graded.module_power"] for i in inits)
    spans_in_colength = [
        i for i, n in enumerate(spans["name"])
        if names[n] == "graded.module_span" and "graded.colength_exponent" in chain_of(i)
    ]
    assert spans_in_colength
    stats = tracer_mod.SpanStats(names, spans)
    assert stats.s("graded.module_power") >= stats.s("graded.module_multiply") > 0


def test_tracer_wraps_every_namespace_and_uninstalls():
    original = graded.module_power
    t = tracer_mod.Tracer().install()
    try:
        assert coeffmod.chains.module_power is graded.module_power is not original
        assert coeffmod.coefficient_chain is coeffmod.chains.coefficient_chain
    finally:
        t.uninstall()
    assert graded.module_power is original
    assert coeffmod.chains.module_power is original


def test_traced_and_untraced_answers_agree(tmp_path):
    plain = workloads.run_pass(_tiny_ops(tmp_path), 0, None, _clock)
    assert plain.failed == 0, [o.failure for o in plain.outcomes]
    t = tracer_mod.Tracer().install()
    try:
        traced_pass = workloads.run_pass(_tiny_ops(tmp_path), 0, None, _clock)
    finally:
        t.uninstall()
    assert traced_pass.failed == 0
    assert _answers(traced_pass) == _answers(plain)
    stats = tracer_mod.SpanStats(t.names, t.arrays())
    assert stats.count("cli.run_command") == 1
    assert stats.count("chains.maximality_probe") == 2
    metrics = layers.per_layer(stats, t, 1, 0.5)
    assert metrics["chains.links"]["value"] == 2 + 2 + 1  # two chains of two links, one graded link
    assert metrics["trace.overhead_frac"]["value"] == 0.5


def test_corrupted_or_missing_reference_counts_as_failure(tmp_path):
    good = _answers(workloads.run_pass(_tiny_ops(tmp_path), 0, None, _clock))
    assert workloads.run_pass(_tiny_ops(tmp_path), 0, good, _clock).failed == 0
    corrupted = json.loads(json.dumps(good))
    corrupted["chain"]["links"][0][2] += 1
    done = workloads.run_pass(_tiny_ops(tmp_path), 0, corrupted, _clock)
    assert [o.label for o in done.outcomes if o.failure] == ["chain"]
    missing = dict(good)
    del missing["graded link"]
    done = workloads.run_pass(_tiny_ops(tmp_path), 0, missing, _clock)
    assert [o.failure for o in done.outcomes if o.failure] == ["no reference recorded"]


def test_oracle_rejects_a_wrong_top_link(tmp_path):
    op = workloads._chain_op("chain", str(tmp_path / "unused.spec"), 0, [(4, 0), (3, 1), (1, 3), (0, 4)])
    right = {"links": [[2, ["x1*x2^3*t1", "x1^2*x2^2*t1", "x1^3*x2*t1", "x1^4*t1", "x2^4*t1"], -1]]}
    wrong = {"links": [[2, ["x1*x2^3*t1", "x1^3*x2*t1", "x1^4*t1", "x2^4*t1"], -1]]}
    assert op.oracle(right)
    assert not op.oracle(wrong)
    assert oracle.ratliff_rush_monomial([(2, 0), (0, 2)]) == [(0, 2), (2, 0)]


def test_variants_are_deterministic(tmp_path):
    for name in workloads.WORKLOADS:
        first = [op.label for op in workloads.build(name, 3, str(tmp_path / "a"))]
        second = [op.label for op in workloads.build(name, 3, str(tmp_path / "b"))]
        assert first == second
        for root, _, files in os.walk(tmp_path / "a" / name):
            for f in files:
                rel = os.path.relpath(os.path.join(root, f), tmp_path / "a")
                assert (tmp_path / "a" / rel).read_text() == (tmp_path / "b" / rel).read_text()


def test_benchmark_json_matches_the_metrics_reported(tmp_path):
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.metric_specs()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    references = workloads.load_references()
    for name in workloads.WORKLOADS:
        assert sorted(references[name], key=int) == [str(v) for v in range(workloads.VARIANTS)]
        labels = [op.label for op in workloads.build(name, 0, str(tmp_path))]
        assert sorted(references[name]["0"]) == sorted(labels)
