"""Spec-file parsing, command surface, determinism, exit codes."""

import json
import os
import subprocess
import sys

import pytest

import coeffmod
from coeffmod.cli import build_parser, load_spec, main, run_command
from coeffmod.errors import ParseError


QUARTIC_SPEC = """\
# quartic plane ideal
field = Fp:10007
xvars = 2
rank  = 1
gens  = [(x1^4); (x1^3*x2); (x1*x2^3); (x2^4)]
"""

MF_SPEC = """\
field = Fp:10007
xvars = 2
rank  = 2
gens  = [(x1, 0); (x2, 0); (0, x1); (0, x2)]
"""

SQUARES_SPEC = """\
field = Fp:10007
xvars = 2
rank  = 1
gens  = [(x1^2); (x2^2)]
"""


PENCIL_SPEC = """\
field = Fp:10007
xvars = 2
rank  = 1
gens  = [(x1^2+3*x2^2); (x1*x2)]
"""


@pytest.fixture
def quartic(tmp_path):
    path = tmp_path / "quartic.spec"
    path.write_text(QUARTIC_SPEC, encoding="utf-8")
    return str(path)


@pytest.fixture
def mf22(tmp_path):
    path = tmp_path / "mf22.spec"
    path.write_text(MF_SPEC, encoding="utf-8")
    return str(path)


@pytest.fixture
def squares(tmp_path):
    path = tmp_path / "squares.spec"
    path.write_text(SQUARES_SPEC, encoding="utf-8")
    return str(path)


def run(argv):
    parser = build_parser()
    opts = parser.parse_args(argv)
    return run_command(opts)


def test_load_spec_principal(tmp_path):
    path = tmp_path / "p.spec"
    path.write_text("field = Q\nxvars = 1\nrank = 1\ngens = [(x1^2)]\n")
    mod, meta = load_spec(str(path))
    assert meta["field"] == "Q" and meta["rank"] == 1
    assert [g.text() for g in mod.gens] == ["x1^2*t1"]
    assert mod.monomial


def test_load_spec_arity_error(tmp_path):
    path = tmp_path / "bad.spec"
    path.write_text("field = Q\nxvars = 2\nrank = 2\ngens = [(x1, x2, x1)]\n")
    with pytest.raises(ParseError):
        load_spec(str(path))


def test_load_spec_nonprime_modulus(tmp_path):
    path = tmp_path / "bad.spec"
    path.write_text("field = Fp:10006\nxvars = 1\nrank = 1\ngens = [(x1)]\n")
    with pytest.raises(ParseError):
        load_spec(str(path))


def test_load_spec_rejects_t_variables_in_components(tmp_path):
    path = tmp_path / "bad.spec"
    path.write_text("field = Q\nxvars = 1\nrank = 1\ngens = [(t1)]\n")
    with pytest.raises(ParseError):
        load_spec(str(path))


def test_load_spec_multiline_gens(tmp_path):
    path = tmp_path / "multi.spec"
    path.write_text(
        "field = Q\nxvars = 2\nrank = 1\ngens = [(x1^2);\n  (x2^2)]\n"
    )
    mod, _ = load_spec(str(path))
    assert len(mod.gens) == 2


@pytest.mark.parametrize("xvars, rank", [(0, 1), (2, 0)])
def test_load_spec_rejects_empty_rings(tmp_path, xvars, rank):
    path = tmp_path / "empty.spec"
    path.write_text(f"field = Q\nxvars = {xvars}\nrank = {rank}\ngens = [(1)]\n")
    with pytest.raises(ParseError):
        load_spec(str(path))
    assert main(["inspect", str(path)]) == 2


def test_minred_rejects_power_zero(quartic):
    with pytest.raises(SystemExit) as exc:
        main(["minred", quartic, "--n0", "0"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["check-5-8", "--k", "1", "--nrange", "0"],
        ["lengths", "--nmax", "0"],
        ["lengths", "--nmax", "-1"],
        ["fit", "--window", "0"],
        ["probe", "--k", "1", "--samples", "-1"],
    ],
)
def test_counts_below_one_are_rejected(squares, argv):
    # each of these used to exit 0 having checked nothing
    with pytest.raises(SystemExit) as exc:
        main([argv[0], squares, *argv[1:]])
    assert exc.value.code == 2


def test_lengths_br_golden_table(mf22):
    report, code = run(["lengths", mf22, "--kind", "br", "--nmax", "8"])
    assert code == 0
    assert report["results"]["table"] == {
        str(n): n * (n + 1) ** 2 // 2 for n in range(1, 9)
    }


def test_fit_reports_both_bases(mf22):
    report, code = run(["fit", mf22, "--kind", "br"])
    assert code == 0
    payload = report["results"]["fit"]
    assert payload["degree"] == 3
    assert payload["signed binomial basis (top 3)"] == ["3", "1", "0", "0"]


def test_inspect_reports_colength(quartic):
    report, code = run(["inspect", quartic])
    assert code == 0
    assert report["results"]["colength exponent"] == 5


def test_module_entry_point_runs_the_cli(quartic, capsys):
    # `python -m coeffmod` from a source tree, with no install
    src = os.path.dirname(os.path.dirname(os.path.abspath(coeffmod.__file__)))
    done = subprocess.run(
        [sys.executable, "-m", "coeffmod", "inspect", quartic, "--json"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert main(["inspect", quartic, "--json"]) == 0
    assert json.loads(done.stdout) == json.loads(capsys.readouterr().out)


def test_verify_prop52_passes(quartic):
    report, code = run(["verify", "prop52", quartic, "--seed", "7"])
    assert code == 0
    assert report["verdicts"][0]["pass"]


def test_verify_lemma22_passes(squares):
    report, code = run(["verify", "lemma22", squares])
    assert code == 0


def test_redcheck_exit_codes(tmp_path, squares):
    sub = tmp_path / "sub.spec"
    sub.write_text(
        "field = Fp:10007\nxvars = 2\nrank = 1\ngens = [(x1^2); (x2^2)]\n"
    )
    big = tmp_path / "big.spec"
    big.write_text(
        "field = Fp:10007\nxvars = 2\nrank = 1\ngens = [(x1^2); (x1*x2); (x2^2)]\n"
    )
    report, code = run(["redcheck", str(big), "--other", str(sub)])
    assert code == 0 and report["results"]["is reduction"]
    # the reverse containment fails structurally -> error exit via main()
    assert main(["redcheck", str(sub), "--other", str(big)]) == 2


def test_redcheck_refutation_exits_one(tmp_path):
    small = tmp_path / "s.spec"
    small.write_text("field = Fp:10007\nxvars = 1\nrank = 1\ngens = [(x1^2)]\n")
    big = tmp_path / "b.spec"
    big.write_text("field = Fp:10007\nxvars = 1\nrank = 1\ngens = [(x1)]\n")
    report, code = run(["redcheck", str(big), "--other", str(small)])
    assert code == 1
    assert not report["results"]["is reduction"]


def test_coeff_command_deterministic(quartic, capsys):
    assert main(["coeff", quartic, "--k", "2", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["coeff", quartic, "--k", "2", "--seed", "7"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert main(["coeff", quartic, "--k", "2", "--seed", "8", "--json"]) == 0
    as_json = json.loads(capsys.readouterr().out)
    assert as_json["schema"] == 1
    assert as_json["results"]["certificate"]["degree ok"]


def test_trunc_probe_stable(quartic):
    report, code = run(["coeff", quartic, "--k", "2", "--seed", "7", "--trunc-probe"])
    assert code == 0
    assert any(v["name"] == "truncation probe" and v["pass"] for v in report["verdicts"])


def test_trunc_probe_stable_on_general_chain(tmp_path):
    path = tmp_path / "pencil.spec"
    path.write_text(PENCIL_SPEC, encoding="utf-8")
    report, code = run(["coeff-chain", str(path), "--seed", "7", "--trunc-probe"])
    assert code == 0
    assert any(v["name"] == "truncation probe" and v["pass"] for v in report["verdicts"])


def test_chain_command_reports_nesting(quartic):
    report, code = run(["coeff-chain", quartic, "--seed", "7"])
    assert code == 0
    assert report["results"]["nesting verified"]
    assert "relative closure (k=0)" in report["results"]


def test_gcoeff_command(mf22):
    report, code = run(["gcoeff", mf22, "--k", "3", "--seed", "3"])
    assert code == 0
    assert report["results"]["certificate"]["degree ok"]


def test_check_5_8_command(squares):
    report, code = run(["check-5-8", squares, "--k", "1", "--nrange", "2", "--seed", "5"])
    assert code == 0


def test_probe_command(squares):
    report, code = run(["probe", squares, "--k", "2", "--samples", "10", "--seed", "5"])
    assert code == 0
    assert report["results"]["violations"] == []


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate", "x"])


def test_missing_file_exits_two():
    assert main(["inspect", "/nonexistent/path.spec"]) == 2


def test_chain_command_without_draws_exits_two(quartic):
    assert main(["coeff-chain", quartic, "--budget", "0"]) == 2


def test_window_reaches_the_chain_fits(quartic, monkeypatch):
    import coeffmod.chains as chains

    windows = set()
    real = chains.fit

    def recording(table, window=3):
        windows.add(window)
        return real(table, window=window)

    monkeypatch.setattr(chains, "fit", recording)
    report, code = run(["coeff-chain", quartic, "--seed", "7", "--window", "4"])
    assert code == 0
    assert windows == {4}
    assert report["options"]["window"] == 4
