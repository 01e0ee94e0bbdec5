import json
import math
import os
import subprocess
import sys

import pytest

import su2ladders
import su2ladders.cli
from su2ladders.cli import main
from su2ladders.schwinger import SpectrumSnapError, su2_generators


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_exit_zero_and_summary(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, err = run_cli(["verify", "--spin", "1", "--nmax", "3",
                              "--out", str(out_path)], capsys)
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["overall_pass"] is True
    assert "checks passed" in err


def test_verify_stdout_when_no_out(capsys):
    code, out, err = run_cli(["verify", "--spin", "1", "--nmax", "2"], capsys)
    assert code == 0
    assert json.loads(out)["overall_pass"] is True


def test_verify_nonzero_exit_counts_failures(capsys):
    code, out, err = run_cli(["verify", "--spin", "1", "--nmax", "3",
                              "--tolerance-override",
                              "su2-commutators=1e-30"], capsys)
    assert code == 1


def test_verify_csv_format(capsys):
    code, out, err = run_cli(["verify", "--spin", "1", "--nmax", "2",
                              "--format", "csv"], capsys)
    assert code == 0
    header = out.splitlines()[0]
    assert header == "check,anchor,params,residual,tolerance,passed"


def test_verify_env_tolerance(capsys, monkeypatch):
    monkeypatch.setenv("SU2LADDERS_TOLERANCE", "1e-30")
    code, out, err = run_cli(["verify", "--spin", "1", "--nmax", "2"], capsys)
    assert code > 0
    # The explicit flag takes precedence over the environment.
    monkeypatch.setenv("SU2LADDERS_TOLERANCE", "1e-30")
    code, out, err = run_cli(["verify", "--spin", "1", "--nmax", "2",
                              "--tolerance", "1e-6"], capsys)
    assert code == 0


def test_verify_byte_identical_runs(tmp_path):
    # End to end through the console entry, as a subprocess that imports the
    # same package as this test.
    src = os.path.dirname(os.path.dirname(su2ladders.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    paths = []
    for tag in ("a", "b"):
        path = tmp_path / f"report_{tag}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "su2ladders", "verify", "--spin", "1,2",
             "--nmax", "3", "--out", str(path)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_basis_dump_matches_internal_order(capsys):
    code, out, err = run_cli(["basis", "--spin", "1", "--nmax", "2"], capsys)
    assert code == 0
    from su2ladders.fock import enumerate_sector
    expected = enumerate_sector(1, 2).to_json_list()
    assert json.loads(out) == expected


def test_basis_sector_filters(capsys):
    code, out, err = run_cli(["basis", "--spin", "1", "--nmax", "2",
                              "--n", "2", "--weight", "0"], capsys)
    assert json.loads(out) == [[0, 2, 0], [1, 0, 1]]


def test_basis_canonical(capsys):
    code, out, err = run_cli(["basis", "--spin", "1", "--nmax", "3",
                              "--canonical"], capsys)
    assert code == 0
    payload = json.loads(out)
    labels = {(v["n"], v["j"], v["jz"]) for v in payload}
    assert (0, 0, 0) in labels and (2, 2, 2) in labels
    vac = next(v for v in payload if (v["n"], v["j"], v["jz"]) == (0, 0, 0))
    assert vac["vector"] == [[[0, 0, 0], 1.0, 0.0]]


def test_basis_canonical_requires_spin_one(capsys):
    with pytest.raises(SystemExit) as err:
        main(["basis", "--spin", "2", "--nmax", "3", "--canonical"])
    captured = capsys.readouterr()
    assert err.value.code == 2 and captured.out == ""
    assert "argument --canonical: needs --spin 1" in captured.err


def test_spectrum_csv(capsys):
    code, out, err = run_cli(["spectrum", "--spin", "1", "--nmax", "2",
                              "--sector", "2,0"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "sector_n,sector_weight,eigenvalue,j_label,multiplicity"
    labels = sorted(int(line.split(",")[3]) for line in lines[1:])
    assert labels == [0, 2]


def test_spectrum_rejects_unsnappable_spectrum(capsys, monkeypatch):
    # J^2 scaled by 1 + 1e-3 puts eigenvalue 6.006 at j = 2.0012; the labels
    # come from the same snapping rule as function_of_j, so this must raise.
    def damaged(basis):
        gens = su2_generators(basis)
        gens.J2 = gens.J2 * (1.0 + 1e-3)
        return gens
    monkeypatch.setattr(su2ladders.cli, "su2_generators", damaged)
    with pytest.raises(SpectrumSnapError):
        run_cli(["spectrum", "--spin", "1", "--nmax", "2"], capsys)


def test_ladders_json(capsys):
    code, out, err = run_cli(["ladders", "--spin", "1"], capsys)
    payload = json.loads(out)
    assert payload["spin"] == 1
    by_theta = {rf["theta"]: rf for rf in payload["right_functions"]}
    assert by_theta[1]["poly"] == [[2, 1], [2, 1]]
    assert by_theta[-1]["poly"] == [[0, 1], [-2, 1]]
    sig = next(s for s in payload["sigmas"] if s["theta"] == 1)
    assert sig["sigma"]["0"] == [[1, 2], [1, 2]]
    assert sig["sigma"]["1"] == [[1, 1]]


def test_kernel_json(capsys):
    code, out, err = run_cli(["kernel", "--spin", "1", "--nmax", "4"], capsys)
    payload = json.loads(out)
    nodes = {(n["n"], n["j"]): n["dim"] for n in payload["nodes"]}
    assert nodes == {(0, 0): 1, (1, 1): 1, (2, 0): 1, (2, 2): 1,
                     (3, 1): 1, (3, 3): 1}
    assert any(a["annihilated"] for a in payload["arrows"])


def test_dump_op_schema(capsys):
    code, out, err = run_cli(["dump-op", "--spin", "1", "--nmax", "2",
                              "--op", "adag:0"], capsys)
    payload = json.loads(out)
    assert payload["dim"] == payload["rows"] == payload["cols"] == 10
    coords = [(e[0], e[1]) for e in payload["entries"]]
    assert coords == sorted(coords)
    amplitudes = [e[2] for e in payload["entries"]]
    assert any(abs(a - math.sqrt(2)) < 1e-12 for a in amplitudes)
    assert all(e[3] == 0.0 for e in payload["entries"])


def test_dump_op_tau(capsys):
    code, out, err = run_cli(["dump-op", "--spin", "1", "--nmax", "2",
                              "--op", "tau:1"], capsys)
    assert code == 0
    assert json.loads(out)["entries"]


def test_dump_op_unknown_name(capsys):
    with pytest.raises(SystemExit) as err:
        main(["dump-op", "--spin", "1", "--nmax", "2", "--op", "bogus"])
    captured = capsys.readouterr()
    assert err.value.code == 2 and captured.out == ""
    assert "argument --op: unknown operator 'bogus'" in captured.err


@pytest.mark.parametrize("args,valid", [
    (["dump-op", "--spin", "1", "--nmax", "2", "--op", "m:0"], "1..1"),
    (["dump-op", "--spin", "1", "--nmax", "2", "--op", "m:2"], "1..1"),
    (["dump-op", "--spin", "1", "--nmax", "2", "--op", "p:-1"], "0..1"),
    (["dump-op", "--spin", "1", "--nmax", "2", "--op", "p:9"], "0..1"),
    (["dump-op", "--spin", "2", "--nmax", "2", "--op", "tau:5"], "-2..2"),
    (["dump-op", "--spin", "2", "--nmax", "2", "--op", "taulow:-3"], "-2..2"),
    (["dump-op", "--spin", "1", "--nmax", "2", "--op", "a:9"], "-1..1"),
    (["dump-op", "--spin", "1", "--nmax", "2", "--op", "n:-5"], "-1..1"),
    (["dump-op", "--spin", "1", "--nmax", "2", "--op", "p:x"], "integer"),
    (["spectrum", "--spin", "1", "--nmax", "2", "--sector", "1"], "N,W"),
    (["spectrum", "--spin", "1", "--nmax", "2", "--sector", "1,0,2"], "N,W"),
    (["spectrum", "--spin", "1", "--nmax", "2", "--sector", "a,b"], "N,W"),
], ids=["m:0", "m:2", "p:-1", "p:9", "tau:5", "taulow:-3", "a:9", "n:-5",
        "p:x", "sector-1", "sector-3-parts", "sector-not-integers"])
def test_out_of_range_selectors_name_the_valid_range(args, valid, capsys):
    # An index outside its range, or a sector that is not two integers,
    # must stop with the valid range instead of dumping another operator
    # (m:0 used to wrap to m_s, p:-1 to p_s) or raising a traceback: a
    # usage error, exit 2, naming the flag.
    with pytest.raises(SystemExit) as err:
        main(args)
    captured = capsys.readouterr()
    assert err.value.code == 2 and captured.out == ""
    flag = "--op" if "--op" in args else "--sector"
    assert f"argument {flag}: " in captured.err and valid in captured.err


@pytest.mark.parametrize("op", ["p:0", "p:2", "m:1", "m:2", "tau:-2",
                                "taulow:2"])
def test_selectors_at_the_ends_of_their_range(op, capsys):
    code, out, err = run_cli(["dump-op", "--spin", "2", "--nmax", "2",
                              "--op", op], capsys)
    assert code == 0 and json.loads(out)["entries"]


@pytest.mark.parametrize("args,flag,message", [
    (["verify", "--spin", "0"], "--spin", "0 is below 1"),
    (["verify", "--spin", "x"], "--spin", "'x' is not an integer"),
    (["verify", "--nmax", "0"], "--nmax", "0 is below 1"),
    (["spectrum", "--spin", "0", "--nmax", "2"], "--spin", "0 is below 1"),
    (["kernel", "--spin", "0", "--nmax", "2"], "--spin", "0 is below 1"),
    (["dump-op", "--spin", "0", "--nmax", "2", "--op", "N"], "--spin",
     "0 is below 1"),
    (["kernel", "--spin", "1", "--nmax", "0"], "--nmax", "0 is below 1"),
    (["ladders", "--spin", "0"], "--spin", "0 is below 1"),
    (["spectrum", "--spin", "1", "--nmax", "-1"], "--nmax", "-1 is below 0"),
    (["dump-op", "--spin", "1", "--nmax", "-1", "--op", "N"], "--nmax",
     "-1 is below 0"),
    (["basis", "--spin", "1", "--nmax", "-2"], "--nmax", "-2 is below 0"),
    (["basis", "--spin", "-1", "--nmax", "2"], "--spin", "-1 is below 0"),
    (["basis", "--spin", "1", "--nmax", "2", "--n", "5"], "--n",
     "5 is above --nmax 2"),
    (["basis", "--spin", "1", "--nmax", "2", "--n", "-1"], "--n",
     "-1 is below 0"),
], ids=["verify-spin-0", "verify-spin-x", "verify-nmax-0", "spectrum-spin-0",
        "kernel-spin-0", "dump-op-spin-0", "kernel-nmax-0", "ladders-spin-0",
        "spectrum-nmax-negative", "dump-op-nmax-negative",
        "basis-nmax-negative", "basis-spin-negative", "basis-n-above-nmax",
        "basis-n-negative"])
def test_invalid_spin_or_nmax_is_a_usage_error(args, flag, message, capsys,
                                               tmp_path):
    # A spin or n_max that is not an integer >= 1 is refused by the parser:
    # exit 2 (a usage error, not verify's "one check failed"), a message
    # naming the flag, and no report written.
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as err:
        main(args + ["--out", str(out)])
    captured = capsys.readouterr()
    assert err.value.code == 2
    assert f"argument {flag}: {message}" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("args,env,message", [
    (["verify", "--tolerance-override", "bad"], None,
     "argument --tolerance-override: 'bad' is not NAME=VALUE"),
    (["verify", "--tolerance-override", "=1e-3"], None,
     "argument --tolerance-override: '=1e-3' is not NAME=VALUE"),
    (["verify", "--tolerance-override", "su2-commutators=xyz"], None,
     "argument --tolerance-override: 'xyz' is not a finite number >= 0"),
    (["verify", "--spin", "1", "--nmax", "2", "--tolerance-override",
      "bogus=1e-3"], None,
     "argument --tolerance-override: tolerance override 'bogus' pins no "
     "check"),
    (["verify", "--tolerance", "nan"], None,
     "argument --tolerance: 'nan' is not a finite number >= 0"),
    (["verify", "--tolerance", "inf"], None,
     "argument --tolerance: 'inf' is not a finite number >= 0"),
    (["verify", "--tolerance=-1e-3"], None,
     "argument --tolerance: '-1e-3' is not a finite number >= 0"),
    (["verify"], "abc",
     "SU2LADDERS_TOLERANCE: 'abc' is not a finite number >= 0"),
    (["spectrum", "--spin", "1", "--nmax", "2", "--sector", "x"], None,
     "argument --sector: 'x' is not N,W"),
    (["dump-op", "--spin", "1", "--nmax", "2", "--op", "q:1"], None,
     "argument --op: unknown operator kind 'q'"),
    (["basis", "--spin", "0", "--nmax", "2", "--canonical"], None,
     "argument --canonical: needs --spin 1"),
], ids=["override-no-equals", "override-no-name", "override-not-a-number",
        "override-pins-no-check", "tolerance-nan", "tolerance-inf",
        "tolerance-negative", "env-abc", "sector-x", "op-unknown-kind",
        "canonical-spin-0"])
def test_refused_inputs_are_usage_errors(args, env, message, capsys,
                                         monkeypatch, tmp_path):
    # Each is refused through the parser (or, for an override name,
    # ``SuiteConfig.validate``), before any check runs: exit 2 (not
    # verify's "one check failed"), the message on stderr, no output.
    if env is not None:
        monkeypatch.setenv("SU2LADDERS_TOLERANCE", env)
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as err:
        main(args + ["--out", str(out)])
    captured = capsys.readouterr()
    assert err.value.code == 2
    assert message in captured.err and "Traceback" not in captured.err
    assert captured.out == "" and not out.exists()


def test_zero_tolerance_is_still_valid(capsys):
    # 0 is the least tolerance the parser takes: the suite runs with it.
    code, out, _err = run_cli(["verify", "--spin", "1", "--nmax", "2",
                               "--tolerance", "0"], capsys)
    checks = json.loads(out)["checks"]
    assert 0.0 in {c["tolerance"] for c in checks}
    assert code == sum(not c["passed"] for c in checks) > 0


def test_basis_still_takes_spin_zero(capsys):
    code, out, _err = run_cli(["basis", "--spin", "0", "--nmax", "2"], capsys)
    assert code == 0 and json.loads(out) == [[0], [1], [2]]


@pytest.mark.parametrize("args", [
    ["spectrum", "--spin", "1"], ["dump-op", "--spin", "1", "--op", "N"],
    ["basis", "--spin", "0"]])
def test_nmax_zero_is_still_valid(args, capsys):
    code, out, _err = run_cli(args + ["--nmax", "0"], capsys)
    assert code == 0 and out
