"""End-to-end command-line tests through real files."""

import dataclasses
import json
import os
import stat
import subprocess
import sys

import numpy as np
import pytest

from evenrev import cli, transform
from evenrev.inverse import even_inverse_spectral, inverse_residual_l1
from evenrev.laurent import Mask, even_part, min_modulus_on_circle, unit_circle
from evenrev.cli import main
from evenrev.masks import pseudo_spline_mask
from evenrev.transform import decompose
from evenrev.serialize import (
    dump_json, kernel_from_obj, kernel_to_obj, load_json, mask_from_obj, mask_to_obj,
    PIECE, pyramid_to_obj, signal_from_csv_text, write_text_atomic,
)


def run(*argv):
    return main(list(argv))


@pytest.fixture
def quadratic_mask(tmp_path):
    path = tmp_path / "quadratic.json"
    assert run("mask", "--family", "bspline", "--order", "3", "--out", str(path)) == 0
    return path


def test_mask_pseudo_dd(tmp_path, capsys):
    from fractions import Fraction

    assert run("mask", "--family", "pseudo", "--order", "4", "--nu", "1") == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["offset"] == -3
    fracs = [Fraction(n, d) for n, d in zip(obj["num"], obj["den"])]
    assert fracs == [Fraction(v, 16) for v in (-1, 0, 9, 16, 9, 0, -1)]
    out = tmp_path / "dd.json"
    assert run("mask", "--family", "dd", "--order", "4", "--out", str(out)) == 0
    assert load_json(str(out)) == obj


def test_mask_validation_errors(capsys):
    assert run("mask", "--family", "pseudo", "--order", "4") == 1  # missing --nu
    assert "error: validation:" in capsys.readouterr().err
    assert run("mask", "--family", "bspline", "--order", "0") == 1
    assert run("mask", "--family", "dd", "--order", "5") == 1


def test_invert_quadratic(quadratic_mask, tmp_path):
    out = tmp_path / "kernel.json"
    assert run("invert", "--mask", str(quadratic_mask), "--out", str(out)) == 0
    obj = load_json(str(out))
    assert obj["offset"] == 0
    assert abs(obj["coeffs"][0] - 4.0 / 3.0) < 1e-12
    assert obj["source"] == "spectral"
    assert obj["certificate"] is None  # asymmetric even part: bound not certified


def test_invert_methods(quadratic_mask, tmp_path, capsys):
    # one inverter: --method is gone, and --tol reaches the kernel
    spectral = tmp_path / "spectral.json"
    assert run(
        "invert", "--mask", str(quadratic_mask), "--tol", "1e-12", "--out", str(spectral),
    ) == 0
    obj = load_json(str(spectral))
    assert obj["source"] == "spectral"
    assert obj["tol"] == 1e-12
    assert abs(obj["coeffs"][-obj["offset"]] - 4.0 / 3.0) < 1e-12
    with pytest.raises(SystemExit):
        run("invert", "--mask", str(quadratic_mask), "--method", "spectral")
    assert "unrecognized arguments: --method" in capsys.readouterr().err


def test_decompose_reconstruct_roundtrip(quadratic_mask, tmp_path):
    rng = np.random.default_rng(123)
    signal = rng.uniform(-1, 1, 128)
    sig_path = tmp_path / "signal.csv"
    write_text_atomic(str(sig_path), "\n".join(format(v, ".17g") for v in signal) + "\n")

    pyr_path = tmp_path / "pyramid.json"
    assert run(
        "decompose", "--signal", str(sig_path), "--mask", str(quadratic_mask),
        "--levels", "4", "--out", str(pyr_path),
    ) == 0

    out_path = tmp_path / "back.csv"
    assert run(
        "reconstruct", "--pyramid", str(pyr_path), "--mask", str(quadratic_mask),
        "--out", str(out_path),
    ) == 0
    back = signal_from_csv_text(out_path.read_text())
    assert np.max(np.abs(back - signal)) < 1e-10


def test_streamed_output_is_the_same_on_stdout_and_in_a_file(quadratic_mask, tmp_path, capsys):
    # longer than one piece, so each level's text is written in several
    signal = np.random.default_rng(11).uniform(-1, 1, 3 * PIECE)
    sig_path = tmp_path / "signal.csv"
    sig_path.write_text("".join("%.17g\n" % v for v in signal))
    argv = ["decompose", "--signal", str(sig_path), "--mask", str(quadratic_mask), "--levels", "3"]
    out = tmp_path / "pyramid.json"
    assert run(*argv, "--out", str(out)) == 0
    assert run(*argv) == 0
    printed = capsys.readouterr().out
    pyramid = decompose(signal, mask_from_obj(load_json(str(quadratic_mask))), 3)
    assert out.read_text() == printed == dump_json(pyramid_to_obj(pyramid))
    back = tmp_path / "back.csv"
    assert run("reconstruct", "--pyramid", str(out), "--mask", str(quadratic_mask),
               "--out", str(back)) == 0
    assert run("reconstruct", "--pyramid", str(out), "--mask", str(quadratic_mask)) == 0
    assert back.read_text() == capsys.readouterr().out


def test_decompose_kernel_mode_and_packed(quadratic_mask, tmp_path):
    rng = np.random.default_rng(5)
    sig_path = tmp_path / "signal.csv"
    write_text_atomic(str(sig_path), "\n".join(format(v, ".17g") for v in rng.uniform(-1, 1, 64)) + "\n")
    pyr_path = tmp_path / "pyramid.json"
    assert run(
        "decompose", "--signal", str(sig_path), "--mask", str(quadratic_mask),
        "--levels", "3", "--mode", "kernel", "--packed", "--out", str(pyr_path),
    ) == 0
    obj = load_json(str(pyr_path))
    assert obj["packed"] is True
    assert len(obj["details"][-1]) == 32


def test_compress_reports_counts(quadratic_mask, tmp_path, capsys):
    rng = np.random.default_rng(7)
    sig_path = tmp_path / "signal.csv"
    write_text_atomic(str(sig_path), "\n".join(format(v, ".17g") for v in rng.uniform(-1, 1, 64)) + "\n")
    pyr_path = tmp_path / "pyramid.json"
    run("decompose", "--signal", str(sig_path), "--mask", str(quadratic_mask),
        "--levels", "3", "--out", str(pyr_path))
    out_path = tmp_path / "small.json"
    assert run("compress", "--pyramid", str(pyr_path), "--eps", "0.05", "--out", str(out_path)) == 0
    err = capsys.readouterr().err
    assert "detail entries" in err
    obj = load_json(str(out_path))
    kept = sum(1 for level in obj["details"] for v in level if v != 0.0)
    assert f"kept {kept} " in err


def test_analyze_decay_writes_csv(quadratic_mask, tmp_path):
    out = tmp_path / "decay.csv"
    js = tmp_path / "decay.json"
    assert run(
        "analyze", "decay", "--fn", "sine", "--levels", "6", "--mask", str(quadratic_mask),
        "--out", str(out), "--json", str(js),
    ) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "level,delta_norm,detail_norm,bound_delta,bound_detail"
    assert len(lines) == 8  # header + levels 0..6
    report = load_json(str(js))
    assert report["levels"] == 6


def test_analyze_stability_deterministic(quadratic_mask, tmp_path):
    out1 = tmp_path / "s1.json"
    out2 = tmp_path / "s2.json"
    for out in (out1, out2):
        assert run(
            "analyze", "stability", "--mode", "dec", "--p", "inf", "--trials", "10",
            "--seed", "42", "--mask", str(quadratic_mask), "--out", str(out),
        ) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_analyze_decay_without_levels_prints_one_row(quadratic_mask, capsys):
    assert run("analyze", "decay", "--levels", "0", "--mask", str(quadratic_mask)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "level,delta_norm,detail_norm,bound_delta,bound_detail"
    assert len(lines) == 2 and lines[1].startswith("0,")


def test_analyze_stability_takes_the_seed_from_any_spelling(quadratic_mask, tmp_path):
    cfg = tmp_path / "seed.json"
    cfg.write_text('{"seed": 5}\n')
    stability = [
        "analyze", "stability", "--mode", "dec", "--trials", "2", "--mask", str(quadratic_mask),
    ]
    spellings = {
        "zero": stability,
        "global": ["--seed", "5", *stability],
        "subcommand": [*stability, "--seed", "5"],
        "config": ["--config", str(cfg), *stability],
    }
    got = {}
    for name, argv in spellings.items():
        out = tmp_path / f"{name}.json"
        assert run(*argv, "--out", str(out)) == 0
        got[name] = out.read_bytes()
    assert got["global"] == got["subcommand"] == got["config"] != got["zero"]


def test_analyze_stability_dec_honours_the_perturbation(quadratic_mask, tmp_path):
    reports = {}
    for amount in ("1e-3", "0.25"):
        out = tmp_path / f"{amount}.json"
        assert run(
            "analyze", "stability", "--mode", "dec", "--trials", "3", "--perturbation", amount,
            "--mask", str(quadratic_mask), "--out", str(out),
        ) == 0
        reports[amount] = load_json(str(out))
    assert reports["0.25"]["constants"]["perturbation"] == 0.25
    assert reports["1e-3"]["trials"] != reports["0.25"]["trials"]


def test_analyze_compress(quadratic_mask, tmp_path):
    rng = np.random.default_rng(11)
    sig_path = tmp_path / "signal.csv"
    write_text_atomic(str(sig_path), "\n".join(format(v, ".17g") for v in np.sin(2 * np.pi * rng.uniform(size=64))) + "\n")
    out = tmp_path / "compress.csv"
    assert run(
        "analyze", "compress", "--signal", str(sig_path), "--mask", str(quadratic_mask),
        "--levels", "3", "--eps-grid", "1e-2,1e-3", "--out", str(out),
    ) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("eps,kept_fraction,")
    assert len(lines) == 3


def test_io_error_exit_code(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert run("invert", "--mask", str(missing)) == 2
    assert capsys.readouterr().err.startswith("error: io:")


def test_validation_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    write_text_atomic(str(bad), json.dumps({"offset": 0, "coeffs": []}) + "\n")
    assert run("invert", "--mask", str(bad)) == 1
    assert capsys.readouterr().err.startswith("error: validation:")


@pytest.mark.parametrize(
    "text, line",
    [("1.0\n\n2.0\nabc\n", 4), ("1.0\n1.0,2.0\n", 2), ("1.0\nnan\n", 2), ("-inf\n1.0\n", 1)],
)
def test_malformed_signal_is_a_validation_error(quadratic_mask, tmp_path, capsys, text, line):
    signal = tmp_path / "bad.csv"
    signal.write_text(text)
    argv = ["decompose", "--signal", str(signal), "--mask", str(quadratic_mask), "--levels", "1"]
    assert run(*argv, "--out", str(tmp_path / "p.json")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: validation: ") and err.count("\n") == 1
    assert f"line {line}:" in err
    assert not (tmp_path / "p.json").exists()


def test_malformed_signal_exits_without_traceback(quadratic_mask, tmp_path):
    signal = tmp_path / "bad.csv"
    signal.write_text("0.5\nabc\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "evenrev.cli", "decompose", "--signal", str(signal),
         "--mask", str(quadratic_mask), "--levels", "1"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == ["error: validation: signal line 2: 'abc' is not a finite number"]
    assert proc.stdout == ""


NEAR_SINGULAR = [1.0, 0.5, 0.9999999999]  # ev = 1 + (1 - 1e-10) z: |ev(-1)| = 1e-10 < GUARD
NEAR_GUARD = [1.0, 0.5, 0.99999999]  # ev = 1 + (1 - 1e-8) z: |ev(-1)| = 1e-8 > GUARD


def _near_mask(tmp_path, coeffs):
    mask = tmp_path / "near.json"
    mask.write_text(json.dumps({"offset": 0, "coeffs": coeffs}))
    return str(mask)


def _refuses_guard_threshold(argv, tmp_path, capsys):
    # the guard is fixed policy, not a setting: a config that still sets it is refused
    cfg = tmp_path / "guard.json"
    cfg.write_text('{"guard_threshold": 1e-12}')
    assert run("--config", str(cfg), *argv) == 1
    assert "unknown key 'guard_threshold'" in capsys.readouterr().err


def test_config_guard_threshold_reaches_exact_decompose(tmp_path, capsys):
    # exact decimation and the inverter are decided at the fixed guard of 1e-9
    signal, p = str(_signal_file(tmp_path, 32, 6)), tmp_path / "p.json"

    def argv(coeffs):
        return ["decompose", "--signal", signal, "--mask", _near_mask(tmp_path, coeffs),
                "--levels", "2", "--out", str(p)]

    assert run(*argv(NEAR_SINGULAR)) == 1
    assert capsys.readouterr().err.startswith("error: validation: even symbol vanishes")
    _refuses_guard_threshold(argv(NEAR_SINGULAR), tmp_path, capsys)
    assert not p.exists()
    assert run(*argv(NEAR_GUARD)) == 0
    assert load_json(str(p))["levels"] == 2
    invert = ["invert", "--mask", _near_mask(tmp_path, NEAR_SINGULAR), "--out", str(p)]
    assert run(*invert) == 1
    assert "below the guard 1.0e-09" in capsys.readouterr().err
    # above the guard the inverter is stopped by its kernel instead: a root 1e-8 from the
    # circle decays too slowly for 2**20 coefficients a side
    invert[2] = _near_mask(tmp_path, NEAR_GUARD)
    assert run(*invert) == 1
    err = capsys.readouterr().err
    assert "guard" not in err and "needs more than 1048576 coefficients" in err, err


def test_config_guard_threshold_reaches_analyze(tmp_path, capsys):
    signal, out = str(_signal_file(tmp_path, 64, 6)), ["--out", str(tmp_path / "out")]

    def runs(coeffs):
        m = ["--mask", _near_mask(tmp_path, coeffs)]
        return {
            "compress": ["analyze", "compress", "--signal", signal, *m, "--levels", "3",
                         "--eps-grid", "0,1e-3", *out],
            "rec": ["analyze", "stability", "--mode", "rec", "--trials", "2", *m, *out],
            "dec": ["analyze", "stability", "--mode", "dec", "--trials", "2", *m, *out],
            "decay": ["analyze", "decay", "--levels", "4", *m, *out],
        }

    below = runs(NEAR_SINGULAR)
    for name, argv in below.items():  # the fixed guard refuses the mask everywhere
        assert run(*argv) == 1, name
        err = capsys.readouterr().err
        assert "vanishes" in err or "below the guard 1.0e-09" in err, (name, err)
    _refuses_guard_threshold(below["compress"], tmp_path, capsys)
    above = runs(NEAR_GUARD)
    for name in ("compress", "rec"):
        assert run(*above[name]) == 0, name
        assert capsys.readouterr().err == "", name
    # dec and decay take the bounds' constants from a spectral kernel; with the
    # guard passed, its inversion is what stops them: a root 1e-8 from the
    # circle decays too slowly for any kernel up to 2**20 coefficients a side
    for name in ("dec", "decay"):
        assert run(*above[name]) == 1, name
        err = capsys.readouterr().err
        assert "guard" not in err and "needs more than 1048576 coefficients" in err, (name, err)


def test_config_guard_threshold_lets_l2_decomposition_stability_run(tmp_path, capsys):
    # --p 2 needs no kernel, so only --p inf meets the slowly decaying inverse
    def argv(coeffs):
        return ["analyze", "stability", "--mode", "dec", "--mask", _near_mask(tmp_path, coeffs),
                "--trials", "3", "--out", str(tmp_path / "dec.json")]

    assert run(*argv(NEAR_SINGULAR), "--p", "2") == 1
    assert "vanishes" in capsys.readouterr().err
    _refuses_guard_threshold([*argv(NEAR_SINGULAR), "--p", "2"], tmp_path, capsys)
    assert run(*argv(NEAR_GUARD), "--p", "2") == 0
    report = load_json(str(tmp_path / "dec.json"))
    assert report["constants"]["p"] == "2" and len(report["trials"]) == 3
    assert run(*argv(NEAR_GUARD), "--p", "inf") == 1
    assert "needs more than 1048576 coefficients" in capsys.readouterr().err


def test_samples_reach_analyze_stability_p2(tmp_path):
    # the bound's 1/min|ev| is read on the 16384-point circle grid; this mask's
    # smallest |ev| lies between the grid's nodes
    coeffs = (1.0, 0.25, 0.3, 0.6, 0.5)
    mask = tmp_path / "offgrid.json"
    mask.write_text(json.dumps({"offset": 0, "coeffs": list(coeffs)}))
    out = tmp_path / "dec.json"
    assert run("analyze", "stability", "--mode", "dec", "--p", "2", "--trials", "2",
               "--mask", str(mask), "--out", str(out)) == 0
    ev = even_part(Mask(0, coeffs))
    modulus = np.min(np.abs(ev.symbol(unit_circle(16384))))
    constants = json.loads(out.read_bytes())["constants"]
    assert constants["decimation_norm"] == 1.0 / min_modulus_on_circle(ev)
    assert constants["decimation_norm"] == pytest.approx(1.0 / modulus, rel=1e-12)


@pytest.mark.parametrize("mode", ["rec", "dec"])
def test_analyze_stability_overflow_fails_quietly(tmp_path, mode):
    # a perturbation just under the range limit overflows the transforms: the
    # report is written, its trials fail, and nothing reaches stderr, even as
    # errors under -W error
    mask = tmp_path / "cubic.json"
    mask.write_text(CUBIC)
    out = tmp_path / "report.json"
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "evenrev.cli", "analyze", "stability",
         "--mode", mode, "--perturbation", "8e307", "--trials", "2", "--mask", str(mask),
         "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stderr, proc.stdout) == (1, "", "")
    trials = json.loads(out.read_text())["trials"]  # json reads Infinity and NaN
    assert len(trials) == 2 and not any(t["ok"] for t in trials)


def test_config_file_applies(tmp_path, quadratic_mask, capsys):
    cfg = tmp_path / "config.json"
    write_text_atomic(str(cfg), json.dumps({"inverse_tol": 1e-10}) + "\n")
    assert run("--config", str(cfg), "invert", "--mask", str(quadratic_mask)) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["tol"] <= 1e-10
    bad = tmp_path / "bad_config.json"
    write_text_atomic(str(bad), json.dumps({"inverse_tol": 0}) + "\n")
    assert run("--config", str(bad), "invert", "--mask", str(quadratic_mask)) == 1



CUBIC = '{"offset": -2, "num": [1, 4, 6, 4, 1], "den": [8, 8, 8, 8, 8]}'
PYRAMID = '{{"coarse": [{}, 1.0], "details": [[0.0, 0.0, 0.0, 0.0]], "levels": {}}}'
PACKED = '{{"coarse": [0.5, 1.0], "details": [[0.0, 0.0]], "levels": 1, "packed": {}}}'
KERNEL = ('{{"offset": 0, "coeffs": [1.0], "tol": 1e-9, "certificate": {{"kappa": 2.0, "s": 1, '
          '"q": 0.25, "lambda": 0.5, "K": 3.5, "hypothesis_met": {}}}}}')


@pytest.mark.parametrize(
    "argv, files, message",
    [
        ("reconstruct --pyramid {p} --mask {m}", {"p": '{"coarse": [1.0,'}, "is not valid JSON"),
        ("invert --mask {x}", {"x": '{"coeffs": [0.5, 1.0]}'}, "mask lacks the field 'offset'"),
        ("--config {c} invert --mask {m}", {"c": '{"seed": "x"}'}, "seed must be int, got 'x'"),
        ("--config {c} invert --mask {m}", {"c": "[16384]"}, "must be a JSON object"),
        ("--config {c} invert --mask {m}", {"c": '{"inverse_tol": NaN}'},
         "inverse_tol must be finite and > 0"),
        ("reconstruct --pyramid {p} --mask {m}", {"p": PYRAMID.format("NaN", 1)},
         "pyramid coarse holds a non-finite value"),
        ("reconstruct --pyramid {p} --mask {m}", {"p": PYRAMID.format("0.5", 7)},
         "pyramid levels is 7 but it holds 1 detail arrays"),
        ("decompose --signal {s} --mask {m} --levels 1 --mode kernel --kernel {k}",
         {"k": '{"offset": 0, "coeffs": [NaN], "tol": 1e-9}'},
         "kernel coeffs holds a non-finite value"),
        ("invert --mask {m} --tol nan", {}, "tol must be positive and finite"),
        ("invert --mask {m} --tol 0", {}, "tol must be positive and finite"),
        ("invert --mask {m} --tol inf", {}, "tol must be positive and finite"),
        ("decompose --signal {s} --mask {m} --levels 1", {"s": b"1.0\n\xff\xfe\n2.0\n"},
         "s.json is not a text file"),
        ("compress --pyramid {p} --eps nan", {"p": PYRAMID.format("0.5", 1)},
         "threshold must be nonnegative, got nan"),
        ("analyze compress --signal {s} --mask {m} --levels 1 --eps-grid 1e-3,nan", {},
         "threshold must be nonnegative, got nan"),
        ("analyze compress --signal {s} --mask {m} --levels 1 --eps-grid 1e-2,abc", {},
         "--eps-grid token 'abc' is not a number"),
        ("analyze stability --mode rec --perturbation nan --mask {m}", {},
         "perturbation must be finite and >= 0, got nan"),
        ("analyze stability --mode rec --perturbation inf --mask {m}", {},
         "perturbation must be finite and >= 0, got inf"),
        ("analyze stability --mode dec --perturbation -0.001 --mask {m}", {},
         "perturbation must be finite and >= 0, got -0.001"),
        ("analyze stability --mode rec --perturbation 1e308 --mask {m}", {},
         "perturbation must be at most half the largest float, got 1e+308"),
        ("analyze stability --mode dec --trials -3 --mask {m}", {}, "trials must be >= 1, got -3"),
        ("analyze stability --mode rec --trials 0 --mask {m}", {}, "trials must be >= 1, got 0"),
        # the noise arrays of 10**12 trials take 3.6 PiB, past any address space
        ("analyze stability --mode dec --trials 1000000000000 --mask {m}", {},
         "trials 1000000000000 ask for 512000000000000 random values, more than memory can"),
        ("analyze stability --mode rec --trials 1000000000000 --mask {m}", {},
         "trials 1000000000000 ask for 508000000000000 random values, more than memory can"),
        ("analyze stability --mode dec --trials 100000000000000000000 --mask {m}", {},
         "random values, more than an array can hold"),
        ("analyze stability --mode rec --trials 100000000000000000000 --mask {m}", {},
         "random values, more than an array can hold"),
        # the circle grid is fixed: a config that still asks for 2**50 samples names a key
        # that no longer exists
        ("--config {c} analyze stability --mode dec --p 2 --mask {m}",
         {"c": '{"circle_samples": 1125899906842624}'},
         "unknown key 'circle_samples'; the keys are inverse_tol, seed, mode"),
        ("analyze decay --levels 70 --mask {m}", {}, "levels 70 with base 2 ask for"),
        # 2**59 samples pass numpy's size check, but 4 EiB exceed any address space
        ("analyze decay --levels 58 --mask {m}", {}, "levels 58 with base 2 ask for"),
        # numpy's generators refuse a negative seed with a traceback of their own
        ("--seed -1 analyze stability --mode rec --mask {m}", {}, "seed must be >= 0, got -1"),
        ("analyze stability --mode dec --seed -1 --mask {m}", {}, "seed must be >= 0, got -1"),
        ("--config {c} analyze stability --mode rec --mask {m}", {"c": '{"seed": -1}'},
         "seed must be >= 0, got -1"),
        # a misspelt key would leave its default in force, silently
        ("--config {c} analyze stability --mode dec --p 2 --mask {m}",
         {"c": '{"inverse_toll": 1e-10}'}, "unknown key 'inverse_toll'; the keys are"),
        # bool("false") is True, so a string must not pass for a boolean
        ("decompose --signal {s} --mask {m} --levels 1 --mode kernel --kernel {k}",
         {"k": KERNEL.format('"false"')}, "certificate field 'hypothesis_met' must be true or"),
        ("reconstruct --pyramid {p} --mask {m}", {"p": PACKED.format('"false"')},
         "pyramid field 'packed' must be true or false"),
    ],
    ids=[
        "malformed-json", "mask-without-offset", "config-type", "config-not-object",
        "config-nan", "pyramid-nan", "pyramid-levels", "kernel-nan", "tol-nan", "tol-zero",
        "tol-inf", "signal-not-text", "compress-eps-nan", "eps-grid-nan", "eps-grid-token",
        "stability-rec-perturbation-nan", "stability-rec-perturbation-inf",
        "stability-dec-perturbation-negative", "stability-rec-perturbation-overflow",
        "stability-dec-trials",
        "stability-rec-trials", "stability-dec-trials-memory", "stability-rec-trials-memory",
        "stability-dec-trials-array", "stability-rec-trials-array", "samples-too-many",
        "decay-levels-too-many", "decay-levels-58",
        "seed-negative", "seed-negative-subcommand", "config-seed-negative",
        "config-unknown-key", "kernel-hypothesis-met-string", "pyramid-packed-string",
    ],
)
def test_malformed_input_is_a_validation_error(tmp_path, capsys, argv, files, message):
    files = {"m": CUBIC, "s": "1.0\n2.0\n3.0\n4.0\n", **files}
    paths = {}
    for key, text in files.items():
        paths[key] = str(tmp_path / f"{key}.json")
        (tmp_path / f"{key}.json").write_bytes(text if isinstance(text, bytes) else text.encode())
    out = tmp_path / "out.txt"
    assert run(*argv.format(**paths).split(), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: validation: ") and err.count("\n") == 1
    assert message in err and "Traceback" not in err
    assert not out.exists()


def test_malformed_pyramid_exits_without_traceback(tmp_path):
    mask = tmp_path / "cubic.json"
    mask.write_text(CUBIC)
    bad = tmp_path / "bad.json"
    bad.write_text('{"coarse": [1.0,')
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "evenrev.cli", "reconstruct", "--pyramid", str(bad),
         "--mask", str(mask)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: validation: {bad} is not valid JSON")
    assert proc.stdout == ""


def test_non_text_signal_exits_without_traceback(tmp_path):
    mask = tmp_path / "cubic.json"
    mask.write_text(CUBIC)
    signal = tmp_path / "bad.csv"
    signal.write_bytes(b"1.0\n\xff\xfe\n2.0\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "evenrev.cli", "decompose", "--signal", str(signal),
         "--mask", str(mask), "--levels", "1"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: validation: {signal} is not a text file")
    assert proc.stdout == ""


def test_a_non_text_byte_past_a_csv_slice_is_one_validation_line(tmp_path, capsys):
    mask = tmp_path / "cubic.json"
    mask.write_text(CUBIC)
    signal = tmp_path / "bad.csv"
    signal.write_bytes(b"1.0\n" * (8 * PIECE) + b"\xff\xfe\n2.0\n")  # 32 * PIECE bytes first
    out = tmp_path / "p.json"
    assert run("decompose", "--signal", str(signal), "--mask", str(mask), "--levels", "1",
               "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: validation: {signal} is not a text file") and err.count("\n") == 1
    assert not out.exists()


def _signal_file(tmp_path, n, seed):
    path = tmp_path / "signal.csv"
    values = np.random.default_rng(seed).uniform(-1, 1, n)
    path.write_text("\n".join(format(v, ".17g") for v in values) + "\n")
    return path


DELTA = ('{"offset": 0, "coeffs": [1.0], "tol": 1e-12, "source": "custom", '
         '"certificate": null}')


def test_packed_refuses_leaking_even_details(tmp_path, capsys):
    mask = tmp_path / "cubic.json"
    mask.write_text(CUBIC)
    delta = tmp_path / "delta.json"  # not the even-inverse of the cubic mask
    delta.write_text(DELTA)
    out = tmp_path / "p.json"
    assert run("decompose", "--signal", str(_signal_file(tmp_path, 256, 3)), "--mask", str(mask),
               "--levels", "3", "--mode", "kernel", "--kernel", str(delta), "--packed",
               "--out", str(out)) == 1
    err = capsys.readouterr().err
    # ||delta * ev - delta||_1 for the cubic ev = (1 + 6z + z^2)/8
    assert err == ("error: validation: --packed refuses a kernel whose residual "
                   "||g*ev - delta||_1 = 5.000e-01 exceeds its tol 1.000e-12; "
                   "write the pyramid without --packed\n")
    assert not out.exists()


@pytest.mark.parametrize("tol", [1e-8, 1e-12])
@pytest.mark.parametrize("order, nu", [(6, 1), (7, 2)])
def test_packed_invert_kernels_write_the_packed_pyramid(tmp_path, order, nu, tol):
    mask_path, kernel_path, out = tmp_path / "m.json", tmp_path / "k.json", tmp_path / "p.json"
    assert run("mask", "--family", "pseudo", "--order", str(order), "--nu", str(nu),
               "--out", str(mask_path)) == 0
    assert run("invert", "--mask", str(mask_path), "--tol", str(tol),
               "--out", str(kernel_path)) == 0
    signal_path = _signal_file(tmp_path, 256, 8)
    assert run("decompose", "--signal", str(signal_path), "--mask", str(mask_path),
               "--levels", "4", "--mode", "kernel", "--kernel", str(kernel_path), "--packed",
               "--out", str(out)) == 0
    pyramid = decompose(signal_from_csv_text(signal_path.read_text()),
                        mask_from_obj(load_json(str(mask_path))), 4, "kernel",
                        kernel_from_obj(load_json(str(kernel_path))))
    assert out.read_text() == dump_json(pyramid_to_obj(pyramid, packed=True))


def test_packed_refuses_a_kernel_just_past_its_tol(tmp_path, capsys):
    mask = pseudo_spline_mask(6, 1)
    mask_path, kernel_path, out = tmp_path / "m.json", tmp_path / "k.json", tmp_path / "p.json"
    mask_path.write_text(dump_json(mask_to_obj(mask)))
    kernel = even_inverse_spectral(mask, tol=1e-10)
    residual = inverse_residual_l1(mask, kernel)
    argv = ["decompose", "--signal", str(_signal_file(tmp_path, 256, 9)), "--mask",
            str(mask_path), "--levels", "4", "--mode", "kernel", "--kernel", str(kernel_path),
            "--packed", "--out", str(out)]
    for tol, status in [(np.nextafter(residual, 0.0), 1), (residual, 0)]:
        kernel_path.write_text(dump_json(kernel_to_obj(dataclasses.replace(kernel, tol=tol))))
        assert run(*argv) == status, tol
        assert out.exists() == (status == 0)
    assert capsys.readouterr().err.count("refuses a kernel whose residual") == 1


def test_packed_refuses_before_any_analysis(tmp_path, monkeypatch):
    mask, delta = tmp_path / "cubic.json", tmp_path / "delta.json"
    mask.write_text(CUBIC)
    delta.write_text(DELTA)

    def halving(*args):  # every analysis builds its decimation first
        raise AssertionError("the analysis started")

    monkeypatch.setattr(transform, "_halving", halving)
    assert run("decompose", "--signal", str(_signal_file(tmp_path, 256, 3)), "--mask", str(mask),
               "--levels", "3", "--mode", "kernel", "--kernel", str(delta), "--packed",
               "--out", str(tmp_path / "p.json")) == 1


@pytest.mark.parametrize("flags", [[], ["--packed"], ["--mode", "kernel"],
                                   ["--mode", "kernel", "--packed"]])
def test_decompose_command_calls_decompose_once(tmp_path, monkeypatch, flags):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return decompose(*args, **kwargs)

    monkeypatch.setattr(transform, "decompose", counted)
    monkeypatch.setattr(cli, "decompose", counted)
    mask = tmp_path / "cubic.json"
    mask.write_text(CUBIC)
    assert run("decompose", "--signal", str(_signal_file(tmp_path, 256, 3)), "--mask", str(mask),
               "--levels", "3", *flags, "--out", str(tmp_path / "p.json")) == 0
    assert len(calls) == 1


def test_compress_packed_refuses_nonzero_even_details(tmp_path, capsys):
    mask = tmp_path / "cubic.json"
    mask.write_text(CUBIC)
    delta = tmp_path / "delta.json"  # not the even-inverse of the cubic mask
    delta.write_text(DELTA)
    pyr = tmp_path / "p.json"
    assert run("decompose", "--signal", str(_signal_file(tmp_path, 256, 4)), "--mask", str(mask),
               "--levels", "3", "--mode", "kernel", "--kernel", str(delta),
               "--out", str(pyr)) == 0
    evens = [v for level in load_json(str(pyr))["details"] for v in level[::2]]
    assert any(evens)  # the wrong kernel leaks real detail into the even indices
    out = tmp_path / "small.json"
    assert run("compress", "--pyramid", str(pyr), "--eps", "0", "--packed", "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err == (f"error: validation: --packed would drop an even detail of "
                   f"{max(map(abs, evens)):.3g}; write the pyramid without --packed\n")
    assert not out.exists()


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_output_files_follow_the_umask(tmp_path, umask):
    old = os.umask(umask)
    try:
        assert run("mask", "--family", "bspline", "--order", "3", "--out", str(tmp_path / "m.json")) == 0
        with open(tmp_path / "plain.json", "w"):
            pass
    finally:
        os.umask(old)
    modes = {stat.S_IMODE(os.stat(tmp_path / name).st_mode) for name in ("m.json", "plain.json")}
    assert modes == {0o666 & ~umask}


def test_pipeline_files_are_json_dumps_text(tmp_path):
    """Every JSON file the pipeline writes reads back to itself through ``json``."""
    signal = _signal_file(tmp_path, 256, 6)
    mask, kernel = tmp_path / "m.json", tmp_path / "k.json"
    steps = [
        ["mask", "--family", "bspline", "--order", "4", "--out", mask],
        ["invert", "--mask", mask, "--tol", "1e-12", "--out", kernel],
        ["decompose", "--signal", signal, "--mask", mask, "--levels", "4",
         "--out", tmp_path / "exact.json"],
        ["decompose", "--signal", signal, "--mask", mask, "--levels", "4", "--mode", "kernel",
         "--kernel", kernel, "--packed", "--out", tmp_path / "packed.json"],
        ["compress", "--pyramid", tmp_path / "exact.json", "--eps", "1e-3",
         "--out", tmp_path / "small.json"],
        ["compress", "--pyramid", tmp_path / "packed.json", "--eps", "1e-3", "--packed",
         "--out", tmp_path / "small_packed.json"],
        ["reconstruct", "--pyramid", tmp_path / "small_packed.json", "--mask", mask,
         "--out", tmp_path / "back.csv"],
    ]
    for argv in steps:
        assert run(*map(str, argv)) == 0
    names = sorted(p.name for p in tmp_path.glob("*.json"))
    assert names == ["exact.json", "k.json", "m.json", "packed.json", "small.json",
                     "small_packed.json"]
    for name in names:
        text = (tmp_path / name).read_text()
        assert text == json.dumps(json.loads(text), indent=2) + "\n", name
    back = (tmp_path / "back.csv").read_text()
    assert back == "\n".join(format(float(v), ".17g") for v in back.split()) + "\n"


FAR = 10**30


def test_far_offsets_run_or_fail_with_one_line(tmp_path, capsys):
    # offsets beyond int64 reach numpy only after reduction modulo the period
    far_mask = tmp_path / "far.json"
    far_mask.write_text(CUBIC.replace('"offset": -2', f'"offset": {FAR}'))
    far_kernel = tmp_path / "far_kernel.json"
    far_kernel.write_text(f'{{"offset": {FAR}, "coeffs": [0.5, 1.0], "tol": 1e-9}}')
    near_mask = tmp_path / "cubic.json"
    near_mask.write_text(CUBIC)
    signal = _signal_file(tmp_path, 16, 5)
    pyr, out = tmp_path / "p.json", tmp_path / "out.csv"
    assert run("decompose", "--signal", str(signal), "--mask", str(far_mask), "--levels", "2",
               "--out", str(pyr)) == 0
    assert run("reconstruct", "--pyramid", str(pyr), "--mask", str(far_mask),
               "--out", str(out)) == 0
    back = signal_from_csv_text(out.read_text())
    assert np.max(np.abs(back - signal_from_csv_text(signal.read_text()))) < 1e-12
    assert run("decompose", "--signal", str(signal), "--mask", str(near_mask), "--levels", "2",
               "--mode", "kernel", "--kernel", str(far_kernel), "--out", str(pyr)) == 0
    assert capsys.readouterr().err == ""
    # the far mask's kernel is the near one moved by minus the even part's shift
    near_k, far_k = tmp_path / "near_k.json", tmp_path / "far_k.json"
    assert run("invert", "--mask", str(near_mask), "--out", str(near_k)) == 0
    assert run("invert", "--mask", str(far_mask), "--out", str(far_k)) == 0
    near, far = load_json(str(near_k)), load_json(str(far_k))
    assert far["offset"] == near["offset"] - (FAR + 2) // 2
    assert far["coeffs"] == near["coeffs"]
    assert capsys.readouterr().err == ""


def test_output_through_a_symlink_updates_its_target(tmp_path):
    target, link = tmp_path / "m.json", tmp_path / "link.json"
    target.write_text("stale\n")
    link.symlink_to(target.name)
    assert run("mask", "--family", "bspline", "--order", "3", "--out", str(link)) == 0
    assert link.is_symlink() and os.readlink(link) == target.name
    assert load_json(str(target))["num"] == [1, 3, 3, 1]


def test_output_keeps_an_existing_files_mode(tmp_path):
    target = tmp_path / "m.json"
    target.write_text("old\n")
    target.chmod(0o600)
    assert run("mask", "--family", "bspline", "--order", "3", "--out", str(target)) == 0
    assert stat.S_IMODE(os.stat(target).st_mode) == 0o600
    assert load_json(str(target))["num"] == [1, 3, 3, 1]
