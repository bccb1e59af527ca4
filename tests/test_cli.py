"""End-to-end command line runs, in subprocesses or through ``cli.main``."""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from amu_spectra import (AmuCertificate, ModelSpec, OperatorTuple, amu_batch, cli, essential,
                         generate, load_tuple, observables, save_tuple, scan, search, spectrum)
from amu_spectra.essential import _compress
from conftest import accepted_entries


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "amu_spectra.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


@pytest.fixture(scope="module")
def shift_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("tuples") / "shift64.json"
    proc = run_cli("models", "gen", "shift", "--dim", "64", "-o", str(path))
    assert proc.returncode == 0, proc.stderr
    return path


def test_models_gen_writes_valid_tuple(shift_file):
    tup, meta = load_tuple(shift_file)
    assert tup.n == 2 and tup.dim == 64
    assert meta["family"] == "shift_pair"
    assert meta["commutator_norms"][0][1] == pytest.approx(0.5, abs=1e-10)


def test_models_gen_family_aliases(tmp_path):
    path = tmp_path / "clock.json"
    proc = run_cli("models", "gen", "clock", "--dim", "8", "-o", str(path))
    assert proc.returncode == 0, proc.stderr
    tup, meta = load_tuple(path)
    assert tup.n == 3
    assert meta["family"] == "clock_shift_triple"


def test_models_gen_unknown_family(tmp_path):
    for family in ("nope", "file"):
        proc = run_cli("models", "gen", family, "--dim", "8", "-o", str(tmp_path / "x.json"))
        assert proc.returncode == 2
        assert "unknown family" in proc.stderr


def test_models_gen_param_parsing(tmp_path):
    path = tmp_path / "diag.json"
    proc = run_cli(
        "models", "gen", "diag", "--dim", "12", "--n", "3", "--seed", "4",
        "--param", "eigen_low=-0.5", "--param", "eigen_high=0.5",
        "-o", str(path),
    )
    assert proc.returncode == 0, proc.stderr
    tup, meta = load_tuple(path)
    assert tup.n == 3
    assert meta["params"] == {"eigen_high": 0.5, "eigen_low": -0.5}
    for op in tup.ops:
        d = np.diagonal(op.array).real
        assert d.min() >= -0.5 and d.max() <= 0.5


def test_models_gen_needs_dim(tmp_path):
    for family in ("shift", "diag", "perturbed", "clock"):
        proc = run_cli("models", "gen", family, "-o", str(tmp_path / "x.json"))
        assert proc.returncode == 2
        assert "--dim" in proc.stderr
        assert not (tmp_path / "x.json").exists()


# The ids are fixed so that each case keeps its name when others come or go.
@pytest.mark.parametrize("argv, named", [
    pytest.param(["perturbed", "--dim", "8", "--param", "pertubation=0.2"], "'pertubation'",
                 id="argv0-'pertubation'"),
    pytest.param(["shift", "--dim", "8", "--param", "perturbation=0.2"], "'perturbation'",
                 id="argv1-'perturbation'"),
    pytest.param(["diag", "--dim", "8", "--param", "path=x.json"], "'path'", id="argv2-'path'"),
    pytest.param(["shift", "--dim", "8", "--format", "npz"], "--format", id="argv3---format"),
    pytest.param(["shift", "--dim", "8", "--seed", "5"], "--seed", id="argv5---seed"),
    pytest.param(["clock", "--dim", "8", "--seed", "0"], "--seed", id="argv6---seed"),
])
def test_models_gen_rejects_options_it_would_ignore(tmp_path, argv, named):
    out = tmp_path / "x.json"
    proc = run_cli("models", "gen", *argv, "-o", str(out))
    assert proc.returncode == 2
    assert named in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("argv, key", [
    (["perturbed", "--dim", "8", "--param", "perturbation=nan"], "'perturbation'"),
    (["perturbed", "--dim", "8", "--param", "perturbation=inf"], "'perturbation'"),
    (["diag", "--dim", "8", "--param", "eigen_low=-inf"], "'eigen_low'"),
    (["diag", "--dim", "8", "--param", "eigen_high=abc"], "'eigen_high'"),
    (["perturbed", "--dim", "8", "--param", "perturbation"], "'perturbation'"),
])
def test_models_gen_rejects_parameter_values_that_are_not_finite_numbers(tmp_path, argv, key):
    out = tmp_path / "x.json"
    proc = run_cli("models", "gen", *argv, "-o", str(out),
                   env_extra={"PYTHONWARNINGS": "error::RuntimeWarning"})
    assert proc.returncode == 2
    assert key in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
def test_models_gen_refuses_seeds_outside_the_splitmix_range(tmp_path, seed):
    # Either would draw the matrices of another seed, 2**64 - 1 or 0.
    out = tmp_path / "x.json"
    proc = run_cli("models", "gen", "diag", "--dim", "4", "--seed", seed, "-o", str(out))
    assert proc.returncode == 2
    assert f"got {seed}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_models_gen_seed_defaults_to_zero(tmp_path, shift_file):
    # Without --seed, diag and perturbed draw from seed 0; meta records 0.
    for argv in (["diag", "--dim", "8"], ["perturbed", "--dim", "8", "--n", "3"]):
        paths = [tmp_path / "omitted.json", tmp_path / "zero.json"]
        for path, extra in zip(paths, ([], ["--seed", "0"])):
            proc = run_cli("models", "gen", *argv, *extra, "-o", str(path))
            assert proc.returncode == 0, proc.stderr
        assert paths[0].read_bytes() == paths[1].read_bytes()
    assert load_tuple(shift_file)[1]["seed"] == 0


def test_spectrum_json_and_csv(tmp_path, shift_file):
    # The JSON artifact holds every accepted point and norm; there is no CSV.
    out = tmp_path / "spec.json"
    proc = run_cli("spectrum", "--input", str(shift_file), "--eta", "0.5", "-o", str(out))
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(out.read_text())
    assert payload["eta"] == 0.5
    assert payload["k"] == 12
    assert len(payload["accepted"]) == 544
    csv = tmp_path / "spec.csv"
    proc = run_cli("spectrum", "--input", str(shift_file), "--eta", "0.5",
                   "-o", str(tmp_path / "again.json"), "--csv", str(csv))
    assert proc.returncode == 2 and "unrecognized arguments: --csv" in proc.stderr
    assert not csv.exists() and not (tmp_path / "again.json").exists()


def test_spectrum_deterministic_across_threads(tmp_path, shift_file):
    outputs = []
    for threads in ("1", "4"):
        out = tmp_path / f"spec_t{threads}.json"
        proc = run_cli(
            "spectrum", "--input", str(shift_file), "--eta", "0.5",
            "--threads", threads, "-o", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_thread_count_must_be_positive_integer(tmp_path, shift_file):
    args = ("spectrum", "--input", str(shift_file), "--eta", "0.5", "-o", str(tmp_path / "x.json"))
    for threads in ("abc", "0"):
        proc = run_cli(*args, "--threads", threads)
        assert proc.returncode == 2
        assert f"{threads!r} is not a positive integer (from --threads)" in proc.stderr
        assert "Traceback" not in proc.stderr
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("cap", ["-5", "0", "abc"])
def test_grid_cap_must_be_positive_integer(tmp_path, shift_file, capsys, cap):
    with pytest.raises(SystemExit) as exc:
        cli.main(["spectrum", "--input", str(shift_file), "--eta", "0.5",
                  "--grid-cap", cap, "-o", str(tmp_path / "x.json")])
    assert exc.value.code == 2
    assert "--grid-cap" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


def test_spectrum_grid_cap_exit_code(tmp_path, shift_file):
    proc = run_cli(
        "spectrum", "--input", str(shift_file), "--eta", "0.01",
        "--grid-cap", "10000", "-o", str(tmp_path / "never.json"),
    )
    assert proc.returncode == 3
    assert "cap" in proc.stderr.lower()
    # Grids whose step count or half-width is beyond float range, one of a
    # 603-digit count, which the message abbreviates, and the 625-point scan
    # of ``amu --lambda all-accepted``, which bounds its eigensolves.
    huge_m = tmp_path / "huge_m.json"
    huge_m.write_text(shift_file.read_text().replace('"M": 1.0', '"M": 1e300'))
    for args in (["spectrum", "--input", str(shift_file), "--eta", "1e-320"],
                 ["spectrum", "--input", str(shift_file), "--eta", "1e-300"],
                 ["spectrum", "--input", str(huge_m), "--eta", "0.5"],
                 ["essential", "--input", str(huge_m), "--eta", "0.5", "--cuts", "8,16"],
                 ["amu", "--input", str(shift_file), "--lambda", "all-accepted", "--eta", "0.5",
                  "--sigma", "0.35", "--eps", "0.35", "--grid-cap", "100"]):
        proc = run_cli(*args, "-o", str(tmp_path / "never.json"))
        assert proc.returncode == 3, proc.stderr
        assert "points, above the cap" in proc.stderr and "Traceback" not in proc.stderr
        assert len(proc.stderr) < 200
    assert not (tmp_path / "never.json").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("dim", [32, 64], ids=["dense", "band"])
def test_amu_refuses_points_too_far_out(tmp_path, capsys, dim):
    # Before this check a band solve turned to nan near 1e90, a dense one
    # overflowed near 1e150, and 1e160 gave Q(lambda) non-finite entries.
    src = tmp_path / f"shift{dim}.json"
    save_tuple(generate(ModelSpec("shift_pair", dim)), src)
    for far in ("1e90", "1e150", "1e160"):
        argv = ["amu", "--input", str(src), "--lambda", f"{far},0", "--sigma", "0.35",
                "--eps", "0.35", "-o", str(tmp_path / "never.json")]
        assert cli.main(argv) == 2
        assert f"error: lambda ({float(far)!r}, 0.0) lies too far out" in capsys.readouterr().err
    assert not (tmp_path / "never.json").exists()


def test_amu_refuses_a_far_point_before_any_solve(tmp_path, capsys, monkeypatch):
    # A dense tuple is certified point by point, so every point is checked
    # before the first one is solved, not only the points of one batch.
    src = tmp_path / "shift32.json"
    save_tuple(generate(ModelSpec("shift_pair", 32)), src)
    solves = []
    solve = search.ground_eigenpair
    monkeypatch.setattr(search, "ground_eigenpair", lambda q: solves.append(q) or solve(q))
    near = ["--lambda", "0.5,0.5", "--lambda", "0.1,0.1"]
    common = ["amu", "--input", str(src), "--sigma", "0.3", "--eps", "0.3"]
    assert cli.main([*common, *near, "-o", str(tmp_path / "near.json")]) == 0
    assert len(solves) == 2
    solves.clear()
    out = tmp_path / "never.json"
    assert cli.main([*common, *near, "--lambda", "1e90,0", "-o", str(out)]) == 2
    assert "error: lambda (1e+90, 0.0) lies too far out" in capsys.readouterr().err
    assert solves == [] and not out.exists()


def test_spectrum_missing_input_exit_code(tmp_path):
    proc = run_cli(
        "spectrum", "--input", str(tmp_path / "absent.json"), "--eta", "0.5",
        "-o", str(tmp_path / "out.json"),
    )
    assert proc.returncode == 2


def test_amu_single_lambda(tmp_path, shift_file):
    out = tmp_path / "amu.json"
    proc = run_cli(
        "amu", "--input", str(shift_file), "--lambda", "1.0,0.0",
        "--sigma", "0.3", "--eps", "0.3", "-o", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(out.read_text())
    assert payload["sigma"] == 0.3
    certs = payload["certificates"]
    assert len(certs) == 1
    assert certs[0]["lambda"] == [1.0, 0.0]
    assert certs[0]["amu_member"] is True
    assert "amu=True" in proc.stdout


def test_amu_rejects_bad_lambda(tmp_path, shift_file):
    proc = run_cli(
        "amu", "--input", str(shift_file), "--lambda", "1.0",
        "--sigma", "0.3", "--eps", "0.3", "-o", str(tmp_path / "x.json"),
    )
    assert proc.returncode == 2


def test_amu_rejects_nonfinite_lambda(tmp_path, shift_file):
    proc = run_cli(
        "amu", "--input", str(shift_file), "--lambda", "nan,0",
        "--sigma", "0.3", "--eps", "0.3", "-o", str(tmp_path / "x.json"),
    )
    assert proc.returncode == 2
    assert "non-finite coordinate" in proc.stderr


_AMU = ["amu", "--sigma", "0.3", "--eps", "0.3", "--lambda"]
_ESSENTIAL = ["essential", "--eta", "0.5", "--cuts"]


@pytest.mark.parametrize("command, raw, what", [
    (_AMU, "0.5,,0.5", "point"), (_AMU, "0.5,0.5,", "point"), (_AMU, " ,0.5", "point"),
    (_ESSENTIAL, "2,,4,", "cuts"), (_ESSENTIAL, "8,16, ", "cuts"),
])
def test_comma_lists_reject_empty_entries(tmp_path, shift_file, capsys, command, raw, what):
    out = tmp_path / "x.json"
    code = cli.main([*command, raw, "--input", str(shift_file), "-o", str(out)])
    assert code == 2
    assert f"empty entry in {what} {raw!r}" in capsys.readouterr().err
    assert not out.exists()


def test_amu_all_accepted_prints_only_failing_points(tmp_path, shift_file, capsys):
    out = tmp_path / "amu.json"
    assert cli.main(["amu", "--input", str(shift_file), "--lambda", "all-accepted",
                     "--eta", "0.5", "--sigma", "0.35", "--eps", "0.35", "-o", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    certs = json.loads(out.read_text())["certificates"]
    failing = [c for c in certs if not (c["amu_member"] and c["expectation_close"])]
    assert 0 < len(failing) < len(certs)
    assert len(lines) == len(failing) + 1
    assert lines[-1] == f"certified {len(certs) - len(failing)}/{len(certs)} points"
    for line, cert in zip(lines, failing):
        assert line.startswith("lambda=(" + ",".join(f"{x:.6g}" for x in cert["lambda"]) + ")")


def test_malformed_tuple_file_exit_code(tmp_path):
    no_im = tmp_path / "no_im.json"
    no_im.write_text(json.dumps({"n": 1, "dim": 2, "M": 1.0, "ops": [{"re": [[0.0]]}]}))
    vector_n = tmp_path / "vector_n.json"
    vector_n.write_text(json.dumps({"n": [1, 2], "dim": 2, "M": 1.0, "ops": []}))
    infinite_m, huge_entry = tmp_path / "infinite_m.json", tmp_path / "huge_entry.json"
    save_tuple(generate(ModelSpec("shift_pair", 4)), infinite_m)
    text = infinite_m.read_text()
    # 1e400 parses as infinity; the constant Infinity is not JSON at all.
    infinite_m.write_text(text.replace('"M": 1.0', '"M": 1e400'))
    constant_m = tmp_path / "constant_m.json"
    constant_m.write_text(text.replace('"M": 1.0', '"M": Infinity'))
    # An integer beyond the float range, where 1e400 would parse as infinity.
    huge_entry.write_text(text.replace("0.0", "1" + "0" * 400, 1))
    for path, message in ((no_im, "operator 0"), (vector_n, "n and dim must be integers"),
                          (infinite_m, "positive and finite"),
                          (constant_m, "Infinity is not a JSON number"),
                          (huge_entry, "operator 0")):
        proc = run_cli(
            "spectrum", "--input", str(path), "--eta", "0.5", "-o", str(tmp_path / "out.json"),
        )
        assert proc.returncode == 2
        assert message in proc.stderr and str(path) in proc.stderr
        assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("points, message", [
    (["--lambda", "0.5,0.5", "--eta", "0.5"], "--eta"),
    (["--lambda", "all-accepted", "--lambda", "0.5,0.5", "--eta", "0.5"],
     "--lambda all-accepted"),
])
def test_amu_rejects_options_it_would_ignore(tmp_path, shift_file, capsys, points, message):
    code = cli.main(["amu", "--input", str(shift_file), *points, "--sigma", "0.35",
                     "--eps", "0.35", "-o", str(tmp_path / "x.json")])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


def test_amu_all_accepted_chains_scan(tmp_path):
    src = tmp_path / "diag.json"
    tup = generate(
        ModelSpec("commuting_diag", 8, n=2, seed=2, params={"eigen_low": -0.8, "eigen_high": 0.8})
    )
    save_tuple(tup, src)
    out = tmp_path / "amu_all.json"
    proc = run_cli(
        "amu", "--input", str(src), "--lambda", "all-accepted", "--eta", "0.5",
        "--sigma", "0.6", "--eps", "0.6", "-o", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(out.read_text())
    assert payload["scan"]["eta"] == 0.5
    assert len(payload["certificates"]) == payload["scan"]["accepted_count"]
    assert len(payload["certificates"]) > 0


@pytest.mark.parametrize("threads", ["1", "2"])
def test_amu_all_accepted_certifies_the_spectrum_points(tmp_path, shift_file, threads):
    # The amu scan skips most eigensolves and stores no norms; its points
    # must still be exactly the ones ``spectrum`` accepts, in its order.
    spec, amu = tmp_path / "spec.json", tmp_path / "amu.json"
    common = ["--input", str(shift_file), "--eta", "0.5", "--threads", threads]
    assert cli.main(["spectrum", *common, "-o", str(spec)]) == 0
    assert cli.main(["amu", *common, "--lambda", "all-accepted", "--sigma", "0.35",
                     "--eps", "0.35", "-o", str(amu)]) == 0
    points = [entry["point"] for entry in json.loads(spec.read_text())["accepted"]]
    certs = json.loads(amu.read_text())["certificates"]
    assert points and [c["lambda"] for c in certs] == points


def test_amu_deterministic_across_threads(tmp_path, shift_file):
    # Every accepted point, then one point handed to several workers.
    for points in (["--eta", "0.5", "--lambda", "all-accepted"], ["--lambda", "0.5,0.5"]):
        outputs = []
        for threads in ("1", "2", "4"):
            out = tmp_path / f"amu_t{threads}.json"
            proc = run_cli(
                "amu", "--input", str(shift_file), *points,
                "--sigma", "0.35", "--eps", "0.35",
                "--threads", threads, "-o", str(out),
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("gen", [["shift", "--dim", "64"],
                                 ["perturbed", "--dim", "24", "--n", "2", "--seed", "1"],
                                 ["diag", "--dim", "60", "--n", "2", "--seed", "3"]],
                         ids=["band-shift64", "dense-perturbed24", "band-diag60"])
def test_amu_single_point_matches_its_batch_entry(tmp_path, gen):
    # shift 64 takes the band path, perturbed 24 the dense one, diag 60 the
    # band path with a diagonal Q(lambda); either way a point certified alone
    # is its entry in the all-accepted batch.
    src = tmp_path / "tuple.json"
    assert run_cli("models", "gen", *gen, "-o", str(src)).returncode == 0
    common = ["--sigma", "0.35", "--eps", "0.35"]
    batch = tmp_path / "all.json"
    proc = run_cli("amu", "--input", str(src), "--lambda", "all-accepted", "--eta", "0.5",
                   *common, "-o", str(batch))
    assert proc.returncode == 0, proc.stderr
    certs = json.loads(batch.read_text())["certificates"]
    for i in (0, len(certs) // 2, len(certs) - 1):
        point = ",".join(repr(x) for x in certs[i]["lambda"])
        single = tmp_path / f"one_{i}.json"
        proc = run_cli("amu", "--input", str(src), f"--lambda={point}", *common,
                       "-o", str(single))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(single.read_text())["certificates"] == [certs[i]]


def test_essential_command(tmp_path, shift_file):
    out = tmp_path / "essential.json"
    proc = run_cli(
        "essential", "--input", str(shift_file), "--eta", "0.5",
        "--cuts", "8,16", "-o", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(out.read_text())
    assert payload["cuts"] == [8, 16]
    assert payload["stability"] is not None
    assert "stability" in proc.stdout


def test_essential_levels_rescan_their_interior_windows(tmp_path, shift_file, capsys):
    out = tmp_path / "essential.json"
    assert cli.main(["essential", "--input", str(shift_file), "--eta", "0.5", "--cuts", "8,16",
                     "-o", str(out)]) == 0
    tup, _ = load_tuple(shift_file)
    levels = json.loads(out.read_text())["levels"]
    assert [lvl["cut"] for lvl in levels] == [8, 16]
    for lvl in levels:
        m = lvl["cut"]
        assert lvl["window"] == [m, tup.dim - m]
        ref = scan(_compress(tup, (m, tup.dim - m)), 0.5)
        assert [(tuple(a["point"]), a["norm"]) for a in lvl["spectrum"]["accepted"]] == [
            (tuple(p), nrm) for p, nrm in accepted_entries(ref)]
    # Every estimate uses interior windows; one-sided tails are not an option.
    with pytest.raises(SystemExit) as info:
        cli.main(["essential", "--input", str(shift_file), "--eta", "0.5", "--cuts", "8,16",
                  "--one-sided", "-o", str(tmp_path / "one_sided.json")])
    assert info.value.code == 2
    assert "unrecognized arguments: --one-sided" in capsys.readouterr().err
    assert not (tmp_path / "one_sided.json").exists()


def test_essential_rejects_single_cut(tmp_path, shift_file):
    proc = run_cli(
        "essential", "--input", str(shift_file), "--eta", "0.5",
        "--cuts", "8", "-o", str(tmp_path / "x.json"),
    )
    assert proc.returncode == 2


def test_essential_checks_every_cut_before_scanning(tmp_path, shift_file, monkeypatch, capsys):
    def no_scan(*args, **kwargs):
        raise AssertionError("scan ran before every cut was checked")

    monkeypatch.setattr(essential, "scan", no_scan)
    code = cli.main(["essential", "--input", str(shift_file), "--eta", "0.5",
                     "--cuts", "16,40", "-o", str(tmp_path / "x.json")])
    assert code == 2
    assert "cut 40" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("sigma, eps", [("0", "0.35"), ("0.35", "-1"), ("nan", "0.35"),
                                        ("inf", "0.35"), ("0.35", "1e400")])
def test_amu_checks_sigma_and_eps_before_scanning(tmp_path, shift_file, monkeypatch, capsys,
                                                  sigma, eps):
    def no_work(*args, **kwargs):
        raise AssertionError("scan or eigensolve ran before sigma and eps were checked")

    monkeypatch.setattr(cli, "scan", no_work)
    monkeypatch.setattr(cli, "amu_at", no_work)
    code = cli.main(["amu", "--input", str(shift_file), "--lambda", "all-accepted",
                     "--eta", "0.5", "--sigma", sigma, "--eps", eps,
                     "-o", str(tmp_path / "x.json")])
    assert code == 2
    assert "sigma and eps must be positive and finite" in capsys.readouterr().err


def test_amu_large_bound_tuple(tmp_path):
    # Spectra in [-1e4, 1e4]: the variance cross-check scales with M^2.
    src = tmp_path / "big.json"
    proc = run_cli("models", "gen", "perturbed", "--dim", "64", "--n", "2", "--seed", "3",
                   "--param", "eigen_low=-1e4", "--param", "eigen_high=1e4",
                   "--param", "perturbation=2000", "-o", str(src))
    assert proc.returncode == 0, proc.stderr
    proc = run_cli("amu", "--input", str(src), "--lambda", "1000,2000",
                   "--sigma", "3500", "--eps", "3500", "-o", str(tmp_path / "amu.json"))
    assert proc.returncode == 0, proc.stderr
    assert "certified 1/1 points" in proc.stdout


def test_version_flag():
    proc = run_cli("--version")
    assert proc.returncode == 0
    assert "0.1.0" in proc.stdout


def _artifact(tmp_path, *argv) -> bytes:
    out = tmp_path / "artifact.json"
    assert cli.main([*argv, "-o", str(out)]) == 0
    return out.read_bytes()


def _dumped(obj) -> bytes:
    """The bytes of ``json.dumps`` of ``obj``, each ``JsonRows`` as its plain list of rows."""
    return (json.dumps(obj, indent=2, default=list) + "\n").encode("ascii")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_spectrum_artifact_is_the_bytes_of_its_result(tmp_path, n):
    src = tmp_path / "tuple.json"
    save_tuple(generate(ModelSpec("perturbed_commuting", 8, n=n, seed=1,
                                  params={"perturbation": 0.2})), src)
    result = scan(load_tuple(src)[0], 0.5)
    assert len(result.accepted)
    assert _artifact(tmp_path, "spectrum", "--input", str(src), "--eta", "0.5") == _dumped(
        result.to_json_dict())


def test_essential_artifact_is_the_bytes_of_its_estimate(tmp_path):
    # Three copies of (sigma_x, sigma_z). The deepest window is the middle
    # copy, where no bump product reaches 1 - eta, so its level is empty.
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sz = np.diag([1.0, -1.0])
    src = tmp_path / "paulis.json"
    save_tuple(OperatorTuple((np.kron(np.eye(3), sx), np.kron(np.eye(3), sz)), bound=1.0), src)
    estimate = essential.essential_spectrum_estimate(load_tuple(src)[0], 0.2, [1, 2])
    assert [len(lvl.result.accepted) > 0 for lvl in estimate.levels] == [True, False]
    got = _artifact(tmp_path, "essential", "--input", str(src), "--eta", "0.2", "--cuts", "1,2")
    assert got == _dumped(estimate.to_json_dict())


@pytest.mark.parametrize("gen", [["shift", "--dim", "64"],
                                 ["perturbed", "--dim", "12", "--n", "2", "--seed", "1"]],
                         ids=["band-shift64", "dense-perturbed12"])
def test_amu_artifacts_are_the_bytes_of_their_certificates(tmp_path, gen):
    src = tmp_path / "tuple.json"
    assert run_cli("models", "gen", *gen, "-o", str(src)).returncode == 0
    tup, _ = load_tuple(src)
    common = ["amu", "--input", str(src), "--sigma", "0.35", "--eps", "0.35"]
    # Each flag is written as true and as false: (0, 0) fails sigma on the
    # shift pair, and all-accepted points fail eps on both tuples.
    points = [(0.5, 0.5), (-0.25, 0.75), (0.0, 0.0)]
    got = _artifact(tmp_path, *common, *(f"--lambda={x},{y}" for x, y in points))
    certs = [c.to_json_dict() for c in amu_batch(tup, points, 0.35, 0.35)]
    assert got == _dumped({"sigma": 0.35, "eps": 0.35, "certificates": certs})
    result = scan(tup, 0.5)
    accepted = result.accepted_points().tolist()
    got = _artifact(tmp_path, *common, "--lambda", "all-accepted", "--eta", "0.5")
    certs = [c.to_json_dict() for c in amu_batch(tup, accepted, 0.35, 0.35)]
    assert len(certs) > 1
    assert got == _dumped({"sigma": 0.35, "eps": 0.35, "certificates": certs,
                           "scan": {"eta": 0.5, "k": result.grid.k,
                                    "accepted_count": len(accepted)}})


def test_certificates_with_a_value_that_is_not_finite_are_written_value_by_value(tmp_path):
    # JSON spells such a value Infinity, not as its repr, so the writer's
    # template path declines its chunk and the bytes stay those of json.
    tup = generate(ModelSpec("shift_pair", 8))
    certs = amu_batch(tup, [(0.5, 0.5), (1.0, 0.0)], 0.35, 0.35)
    report = dataclasses.replace(certs[1].report, var=(float("inf"), 0.25))
    certs[1] = dataclasses.replace(certs[1], report=report)
    out = tmp_path / "amu.json"
    rows = cli.JsonRows(certs, AmuCertificate.to_json_dict, observables._certificate_texts)
    cli.write_json({"certificates": rows}, out)
    assert out.read_bytes() == _dumped({"certificates": [c.to_json_dict() for c in certs]})
    assert b"Infinity" in out.read_bytes()


def test_threads_are_capped_at_the_usable_cores(tmp_path, monkeypatch):
    # A pool starts a thread for each task it is handed while none is idle,
    # so an uncapped --threads 5000 would start one thread per point.
    src = tmp_path / "dense.json"
    save_tuple(generate(ModelSpec("perturbed_commuting", 8, n=2, seed=1)), src)
    workers = []

    class RecordingPool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    def start(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(spectrum, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(threading.Thread, "start", start)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    argv = ["amu", "--input", str(src), "--lambda", "0.5,0.5", "--lambda=-0.5,0.25",
            "--sigma", "0.35", "--eps", "0.35", "-o", str(tmp_path / "amu.json")]
    assert cli.main([*argv, "--threads", "5000"]) == 0
    assert cli.main([*argv, "--threads", "2"]) == 0
    assert cli.main(argv) == 0  # one thread by default, which runs inline
    # Where the system reports no affinity, the machine's core count caps.
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert cli.main([*argv, "--threads", "5000"]) == 0
    assert workers == [3, 2, 4]


@pytest.mark.parametrize("command", [
    ["spectrum", "--eta", "0.5"],
    ["essential", "--eta", "0.5", "--cuts", "2,4"],
    ["amu", "--lambda", "all-accepted", "--eta", "0.5", "--sigma", "0.35", "--eps", "0.35"],
], ids=["spectrum", "essential", "dense-amu"])
def test_one_thread_runs_inline_and_two_map_through_the_pool(tmp_path, monkeypatch, command):
    # A one-worker pool would only add its thread's malloc arena to the peak
    # memory, so at --threads 1 the scans and dense certification run inline.
    src = tmp_path / "dense.json"
    save_tuple(generate(ModelSpec("perturbed_commuting", 16, n=2, seed=1)), src)
    started, mapped = [], []
    real_start = threading.Thread.start

    def start(self):
        started.append(self.name)
        real_start(self)

    class RecordingPool(spectrum.ThreadPoolExecutor):
        def map(self, fn, *iterables):
            mapped.append(fn.__name__)
            return super().map(fn, *iterables)

    monkeypatch.setattr(threading.Thread, "start", start)
    monkeypatch.setattr(spectrum, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    artifacts = []
    for threads in ("1", "2"):
        started.clear()
        mapped.clear()
        out = tmp_path / f"out_t{threads}.json"
        argv = [command[0], "--input", str(src), *command[1:], "--threads", threads, "-o", str(out)]
        assert cli.main(argv) == 0
        artifacts.append(out.read_bytes())
        if threads == "1":
            assert started == [] and mapped == []
        else:
            assert started and all(name.startswith("ThreadPoolExecutor-") for name in started)
            scans = 2 if command[0] == "essential" else 1
            assert mapped == ["scan_block"] * scans + (["certify"] if command[0] == "amu" else [])
    assert artifacts[0] == artifacts[1]


@pytest.mark.parametrize("case", ["spectrum-output-is-input", "amu-output-is-input",
                                  "essential-output-is-input"])
def test_outputs_that_name_the_input_or_each_other_exit_2(tmp_path, shift_file, case):
    # Before anything is loaded or written: the tuple file stays as it was.
    src = tmp_path / "shift64.json"
    src.write_bytes(shift_file.read_bytes())
    out = tmp_path / "out.json"
    argv = {
        "spectrum-output-is-input": ["spectrum", "--eta", "0.5",
                                     "-o", str(tmp_path / "." / "shift64.json")],
        "amu-output-is-input": ["amu", "--lambda", "1.0,0.0", "--sigma", "0.2", "--eps", "0.2",
                                "-o", str(src)],
        "essential-output-is-input": ["essential", "--eta", "0.5", "--cuts", "8,16",
                                      "-o", os.path.relpath(src)],
    }[case]
    proc = run_cli(argv[0], "--input", str(src), *argv[1:])
    assert proc.returncode == 2
    assert "names the same file as" in proc.stderr
    assert src.read_bytes() == shift_file.read_bytes()
    assert not out.exists()
