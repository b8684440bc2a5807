"""Golden `--json` reports of the chain commands, byte for byte.

The reports pin what the per-workload reference answers of the benchmark do
not: every certificate's checks, bound, joins and reduction witness.  Spec
files are written by the test, so their sha256 is fixed; only `input.path`
(a temporary directory) is normalised.  To re-record after an intended
change, run this file with COEFFMOD_RECORD_GOLDEN=1 and say why in
CHANGES.md.
"""

import json
import os

import pytest

from coeffmod.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden_reports.json")

SPECS = {
    "quartic": "field = Fp:10007\nxvars = 2\nrank  = 1\ngens  = [(x1^4); (x1^3*x2); (x1*x2^3); (x2^4)]\n",
    "quartic-q": "field = Q\nxvars = 2\nrank  = 1\ngens  = [(x1^4); (x1^3*x2); (x1*x2^3); (x2^4)]\n",
    "pencil": "field = Fp:10007\nxvars = 2\nrank  = 1\ngens  = [(x1^2+3*x2^2); (x1*x2)]\n",
    "mf": "field = Fp:10007\nxvars = 2\nrank  = 2\ngens  = [(x1, 0); (x2, 0); (0, x1); (0, x2)]\n",
    "squares": "field = Fp:10007\nxvars = 2\nrank  = 1\ngens  = [(x1^2); (x2^2)]\n",
}

# name -> (command, spec, extra flags)
RUNS = {
    "coeff quartic": ("coeff", "quartic", ["--k", "2", "--seed", "7"]),
    "coeff-chain quartic": ("coeff-chain", "quartic", ["--seed", "7"]),
    "probe quartic": ("probe", "quartic", ["--k", "2", "--samples", "20", "--seed", "7"]),
    "coeff-chain quartic over Q": ("coeff-chain", "quartic-q", ["--seed", "7"]),
    "coeff-chain pencil": ("coeff-chain", "pencil", ["--seed", "7"]),
    "gcoeff mf": ("gcoeff", "mf", ["--k", "3", "--seed", "3"]),
    "check-5-8 squares": ("check-5-8", "squares", ["--k", "1", "--nrange", "2", "--seed", "5"]),
    "coeff-chain pencil trunc-probe": ("coeff-chain", "pencil", ["--seed", "7", "--trunc-probe"]),
    "gcoeff mf trunc-probe": ("gcoeff", "mf", ["--k", "3", "--seed", "3", "--trunc-probe"]),
}


def _report_text(tmp_path, capsys, command, spec, flags):
    path = tmp_path / f"{spec}.spec"
    path.write_text(SPECS[spec], encoding="utf-8")
    code = main([command, str(path), "--json", *flags])
    report = json.loads(capsys.readouterr().out)
    report["input"]["path"] = f"{spec}.spec"
    return code, json.dumps(report, indent=2, sort_keys=True)


def test_chain_commands_print_the_golden_reports(tmp_path, capsys):
    got = {}
    for name, (command, spec, flags) in RUNS.items():
        code, text = _report_text(tmp_path, capsys, command, spec, flags)
        got[name] = {"exit": code, "report": json.loads(text)}
    if os.environ.get("COEFFMOD_RECORD_GOLDEN"):
        os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
        with open(GOLDEN, "w", encoding="utf-8") as fh:
            json.dump(got, fh, indent=2, sort_keys=True)
            fh.write("\n")
        pytest.skip("golden reports recorded")
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert sorted(golden) == sorted(RUNS)
    for name in RUNS:
        assert got[name]["exit"] == golden[name]["exit"], name
        want = json.dumps(golden[name]["report"], indent=2, sort_keys=True)
        assert json.dumps(got[name]["report"], indent=2, sort_keys=True) == want, name
