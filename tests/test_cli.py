import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bowendim import (DimensionRecord, GridSpec, SweepGrid, cli, preimages,
                      pressure_ratio)
from bowendim.cli import _CASTS, build_parser, main, parse_complex, render_grid
from bowendim.transfer import default_base_point

GOLDEN = Path(__file__).parent / "golden"


def test_parse_complex():
    assert parse_complex("2+0i") == 2 + 0j
    assert parse_complex("1.5-0.3i") == 1.5 - 0.3j
    assert parse_complex("2") == 2 + 0j
    assert parse_complex("-3.25") == -3.25 + 0j
    assert parse_complex("0.5i") == 0.5j
    assert parse_complex("2e0+3e-1i") == 2 + 0.3j
    with pytest.raises(ValueError):
        parse_complex("2 + 3i")
    with pytest.raises(ValueError):
        parse_complex("nonsense")


def test_render_grid_single_unresolved(tmp_path):
    out = tmp_path / "g.pgm"
    render_grid(np.array([[3]], dtype=np.int8), out)
    assert out.read_bytes() == b"P5\n1 1\n255\n\x00"


def test_render_grid_all_attracted(tmp_path):
    out = tmp_path / "g.pgm"
    render_grid(np.zeros((2, 3), dtype=np.int8), out)
    data = out.read_bytes()
    assert data.startswith(b"P5\n3 2\n255\n")
    assert data[-6:] == bytes([220] * 6)


def test_preimages_csv_roundtrip(tmp_path, params22):
    out = tmp_path / "p.csv"
    rc = main(["preimages", "--ell", "2", "--c", "2+0i",
               "--w", "0.25+0.75i", "--K", "12", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k,re,im,deriv_re,deriv_im,residual"
    ps = preimages(params22, 0.25 + 0.75j, 12)
    assert len(lines) - 1 == len(ps)
    for line, b in zip(lines[1:], ps.branches):
        k, re, im, dre, dim_, resid = line.split(",")
        assert int(k) == b.k
        assert float(re) == b.x.re      # 17g round-trips exactly
        assert float(im) == b.x.im
        assert float(dre) == b.deriv.real
        assert float(resid) < 1e-11


def test_preimages_golden_determinism(tmp_path):
    args = ["preimages", "--ell", "2", "--c", "2+0i", "--w", "0.6931+0i",
            "--K", "25"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_classify_golden_and_left_band(tmp_path):
    args = ["classify", "--ell", "2", "--c", "2+0i", "--window", "-6:6",
            "--res", "48x48", "--max-iter", "120"]
    a = tmp_path / "a.pgm"
    b = tmp_path / "b.pgm"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    da = a.read_bytes()
    assert da == b.read_bytes()
    header_end = da.index(b"255\n") + 4
    img = np.frombuffer(da[header_end:], dtype=np.uint8).reshape(48, 48)
    # cells with centre Re < -2*ell are uniformly Baker gray (160)
    res = np.linspace(-6, 6, 48, endpoint=False) + 12 / (2 * 48)
    left = res < -4
    assert np.all(img[:, left] == 160)


def test_pressure_json_roundtrip(tmp_path, params22):
    out = tmp_path / "p.json"
    rc = main(["pressure", "--ell", "2", "--c", "2+0i", "--t", "1.5",
               "--K", "64", "--n", "3", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    base = default_base_point(params22)
    est = pressure_ratio(params22, 1.5, base, 3, 64,
                         doc["prune"], 5_000_000)
    assert doc["value"] == est.value
    assert doc["error"] == est.uncertainty
    assert doc["t"] == 1.5 and doc["K"] == 64 and doc["n"] == 3
    assert doc["base"]["re"] == base.real


def test_flag_precedence_matrix(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("K = 6\ntol = 1e-9  # comment\n")
    out1 = tmp_path / "d.csv"
    out2 = tmp_path / "c.csv"
    out3 = tmp_path / "cli.csv"
    argv = ["preimages", "--ell", "2", "--c", "2+0i", "--w", "0.3+0.2i"]
    # defaults: K = 50
    assert main(argv + ["--out", str(out1)]) == 0
    # config overrides defaults: K = 6
    assert main(argv + ["--config", str(cfg), "--out", str(out2)]) == 0
    # CLI overrides config: K = 9
    assert main(argv + ["--config", str(cfg), "--K", "9", "--out", str(out3)]) == 0

    def ks(path):
        return {int(line.split(",")[0]) for line in
                path.read_text().splitlines()[1:]}

    assert max(abs(k) for k in ks(out1)) == 50
    assert max(abs(k) for k in ks(out2)) == 6
    assert max(abs(k) for k in ks(out3)) == 9


def test_unknown_config_key_is_usage_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n")
    rc = main(["preimages", "--ell", "2", "--c", "2+0i", "--w", "1+0i",
               "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_format_flag_and_key_are_usage_errors(tmp_path):
    # removed knobs: --format (config key fmt) and --seed-spacing
    # (config key seed_spacing)
    argv = ["preimages", "--ell", "2", "--c", "2+0i", "--w", "1+0i",
            "--out", str(tmp_path / "x.csv")]
    for flag, key, value in (("--format", "fmt", "csv"),
                             ("--seed-spacing", "seed_spacing", "0.35")):
        with pytest.raises(SystemExit) as e:
            main(argv + [flag, value])
        assert e.value.code == 2
        cfg = tmp_path / "knob.cfg"
        cfg.write_text(f"{key} = {value}\n")
        assert main(argv + ["--config", str(cfg)]) == 2
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("w", ["1e400", "0.5+1e400i"])
def test_non_finite_target_is_usage_error(tmp_path, w, capsys):
    out = tmp_path / "x.csv"
    rc = main(["preimages", "--ell", "2", "--c", "2+0i", "--w", w,
               "--K", "5", "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    assert "finite" in capsys.readouterr().err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as e:
        main(["preimages", "--nonsense"])
    assert e.value.code == 2


def test_lift_index_beyond_int16_is_usage_error(tmp_path):
    rc = main(["pressure", "--ell", "2", "--c", "2+0i", "--K", "40000",
               "--out", str(tmp_path / "p.json")])
    assert rc == 2
    assert not (tmp_path / "p.json").exists()


def test_numerical_failure_exit_code(tmp_path):
    # an impossible tolerance forces the corrector to reject every step
    rc = main(["continue-orbit", "--ell", "2", "--c", "2+0i",
               "--c-end", "2+0.3i", "--steps", "3", "--tol", "1e-30",
               "--out", str(tmp_path / "t.csv")])
    assert rc == 3


@pytest.mark.parametrize("name, argv", [
    ("budget", ["pressure", "--budget", "0"]),
    ("t", ["pressure", "--t", "1.0"]),
    ("t", ["pressure", "--t", "0.5"]),
    ("budget", ["dim", "--budget", "0"]),
    ("threads", ["sweep", "--threads", "-3", "--nx", "1", "--ny", "1",
                 "--budget", "5000", "--accuracy", "0.5"]),
    ("max_iter", ["classify", "--res", "4x4", "--max-iter", "0"]),
    ("radius_eps", ["classify", "--res", "4x4", "--radius-eps", "0"]),
    ("radius_eps", ["classify", "--res", "4x4", "--radius-eps", "-1"]),
    ("accuracy", ["dim", "--accuracy", "nan"]),
    ("accuracy", ["dim", "--accuracy", "inf"]),
    ("accuracy", ["sweep", "--nx", "1", "--ny", "1", "--budget", "5000",
                  "--accuracy", "nan"]),
    ("tol", ["preimages", "--w", "1+1i", "--K", "20", "--tol", "nan"]),
    ("tol", ["preimages", "--w", "1+1i", "--K", "20", "--tol", "inf"]),
    ("tol", ["preimages", "--w", "1+1i", "--K", "20", "--tol", "1e300"]),
    ("prune", ["pressure", "--prune", "nan"]),
    ("t", ["pressure", "--t", "inf"]),
    ("t: ", ["pressure", "--t", "x"]),
    ("budget: ", ["dim", "--budget", "inf"]),
    ("max-iter: ", ["classify", "--res", "4x4", "--max-iter", "1" + "0" * 21]),
    ("k: ", ["continue-orbit", "--c-end", "2+0.1i", "--k", "1" + "0" * 20]),
    ("K: ", ["preimages", "--w", "1+1i", "--K", "1" + "0" * 20]),
    ("K: ", ["preimages", "--w", "1+1i", "--K", "abc"]),
    ("ell: ", ["preimages", "--w", "1+1i", "--ell", "2.5"]),
    ("ell: ", ["preimages", "--w", "1+1i", "--ell", "1" + "0" * 20,
               "--c", "1" + "0" * 20]),
    ("nx: ", ["sweep", "--nx", "1" + "0" * 20]),
    ("samples: ", ["expansion", "--samples", "many"]),
    ("K must be <= 32767", ["preimages", "--w", "0", "--K", "1" + "0" * 15]),
    ("half-re: ", ["sweep", "--half-re", "x"]),
    ("half-im: ", ["sweep", "--half-im", "x"]),
    ("half_re", ["sweep", "--half-re", "nan"]),
    ("half_im", ["sweep", "--half-im", "inf"]),
    ("radius-eps: ", ["classify", "--res", "4x4", "--radius-eps", "x"]),
    ("c-radius: ", ["expansion", "--c-radius", "x"]),
    ("c_radius", ["expansion", "--c-radius", "-0.1"]),
    ("c_radius", ["expansion", "--c-radius", "0"]),
    ("c_radius", ["expansion", "--c-radius", "5"]),
    ("center: ", ["sweep", "--center", "2+xi"]),
    ("c-end: ", ["continue-orbit", "--c-end", "zz"]),
    ("w: ", ["preimages", "--w", "inf"]),
    ("window: ", ["classify", "--res", "4x4", "--window", "a:b"]),
    ("window nan:1 ", ["classify", "--res", "4x4", "--window", "nan:1"]),
    ("window -inf:inf ", ["classify", "--res", "4x4", "--window", "-inf:inf"]),
    ("window 3:-3 ", ["classify", "--res", "4x4", "--window", "3:-3"]),
    ("res: ", ["classify", "--res", "10x"]),
])
def test_input_outside_the_domain_is_usage_error(tmp_path, name, argv, capsys):
    # argv's own flags come last, so they override the defaults given here;
    # the one stderr line names the flag
    out = tmp_path / "out"
    rc = main(argv[:1] + ["--ell", "2", "--c", "2+0i", "--out", str(out)]
              + argv[1:])
    assert rc == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith(f"{argv[0]}: {name}") and err.count("\n") == 1


def test_readme_knob_table_matches_the_parser():
    # each subcommand's row lists the knobs (the _CASTS flags other than
    # --ell, --c and --out) that its parser offers, no more and no fewer
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("| subcommand | knobs |\n|---|---|\n", 1)[1]
    listed = {}
    for row in table.split("\n\n", 1)[0].splitlines():
        names, knobs = row.strip("|").split("|")
        for name in re.findall(r"`([\w-]+)`", names):
            listed[name] = set(re.findall(r"`--(\w+)`", knobs))
    commands = next(a.choices for a in build_parser()._actions
                    if isinstance(a.choices, dict))
    offered = {name: {a.dest for a in sp._actions if a.dest in _CASTS}
               - {"ell", "c", "out"} for name, sp in commands.items()}
    assert listed == offered


@pytest.mark.parametrize("key", ["ell", "K", "n", "threads"])
def test_integer_config_key_outside_int64_is_usage_error(tmp_path, key, capsys):
    cfg = tmp_path / "big.cfg"
    cfg.write_text(f"{key} = {2 ** 63}\n")
    out = tmp_path / "p.json"
    rc = main(["pressure", "--ell", "2", "--c", "2+0i", "--config", str(cfg),
               "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err == f"pressure: {key}: {2 ** 63} lies outside the int64 range\n"


@pytest.mark.parametrize("flag, value", [("--nx", "0"), ("--ny", "0"),
                                         ("--nx", "-2")])
def test_empty_sweep_grid_is_usage_error(tmp_path, flag, value, capsys):
    out = tmp_path / "s.csv"
    rc = main(["sweep", "--ell", "2", "--c", "2+0i", "--nx", "3", "--ny", "3",
               flag, value, "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    assert f"{flag[2:]}={value}" in capsys.readouterr().err


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_continue_orbit_needs_a_step(tmp_path, steps, capsys):
    out = tmp_path / "t.csv"
    rc = main(["continue-orbit", "--ell", "2", "--c", "2+0i",
               "--c-end", "2+0.1i", "--steps", steps, "--out", str(out)])
    assert rc == 2
    assert list(tmp_path.iterdir()) == []
    captured = capsys.readouterr()
    assert captured.out == "" and f"--steps must be >= 1, got {steps}" in captured.err


def test_continue_orbit_csv(tmp_path):
    out = tmp_path / "t.csv"
    rc = main(["continue-orbit", "--ell", "2", "--c", "2+0i",
               "--c-end", "2+0.2i", "--steps", "20", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "c_re,c_im,z_re,z_im,mult_abs,residual"
    assert len(lines) == 1 + 21  # start + 20 steps, none subdivided
    last = lines[-1].split(",")
    assert float(last[1]) == pytest.approx(0.2)
    assert float(last[4]) > 1
    assert float(last[5]) < 1e-9


def test_expansion_json(tmp_path):
    out = tmp_path / "e.json"
    rc = main(["expansion", "--ell", "2", "--c", "2+0i", "--samples", "30",
               "--n-max", "8", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["kappa"] > 1
    assert 0.8 <= doc["beta"] * doc["kappa"] <= 1.25


def test_window_flag_accepts_leading_dash(tmp_path):
    rc = main(["classify", "--ell", "2", "--c", "2+0i", "--window", "-5:5",
               "--res", "8x8", "--max-iter", "30",
               "--out", str(tmp_path / "w.pgm")])
    assert rc == 0


@pytest.mark.parametrize("command, flag, value", [
    ("dim", "--K", "64"), ("dim", "--n", "3"), ("dim", "--prune", "1e-9"),
    ("dim", "--t", "1.5"), ("dim", "--tol", "1e-9"), ("dim", "--threads", "2"),
    ("sweep", "--K", "64"), ("sweep", "--n", "3"), ("sweep", "--prune", "1e-9"),
    ("sweep", "--t", "1.5"), ("sweep", "--tol", "1e-9"),
])
def test_unhonoured_flag_is_usage_error(command, flag, value, capsys):
    with pytest.raises(SystemExit) as e:
        main([command, "--ell", "2", "--c", "2+0i", flag, value])
    assert e.value.code == 2
    assert flag in capsys.readouterr().err


def _record_calls(monkeypatch, name, result):
    """Replace cli.<name> by a stub that records its arguments."""
    calls = []

    def fake(*args, **kwargs):
        calls.append((args, kwargs))
        return result
    monkeypatch.setattr(cli, name, fake)
    return calls


def test_dim_and_sweep_forward_budget(tmp_path, monkeypatch):
    record = DimensionRecord(2.0, 1.46, 0.1, (1.4, 1.5), 3, {})
    dims = _record_calls(monkeypatch, "bowen_dimension", record)
    rc = main(["dim", "--ell", "2", "--c", "2+0i", "--budget", "5000",
               "--accuracy", "0.1", "--out", str(tmp_path / "d.json")])
    assert rc == 0
    assert dims[-1][1]["budget"] == 5000
    assert dims[-1][0][1] == 0.1

    spec = GridSpec.square(2.0, 0.1, 1)
    grid = SweepGrid(2, spec.centers(), [record], spec)
    sweeps = _record_calls(monkeypatch, "sweep_dimension", grid)
    rc = main(["sweep", "--ell", "2", "--center", "2+0i", "--nx", "1",
               "--ny", "1", "--budget", "7e4", "--threads", "1",
               "--out", str(tmp_path / "s.csv")])
    assert rc == 0
    assert sweeps[-1][1]["budget"] == 70_000
    assert sweeps[-1][1]["threads"] == 1


def test_config_keys_still_accepted_by_dim(tmp_path, monkeypatch):
    record = DimensionRecord(2.0, 1.46, 0.1, (1.4, 1.5), 3, {})
    dims = _record_calls(monkeypatch, "bowen_dimension", record)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("K = 64\nn = 3\ntol = 1e-9\nthreads = 2\nbudget = 9000\n")
    rc = main(["dim", "--ell", "2", "--c", "2+0i", "--config", str(cfg),
               "--out", str(tmp_path / "d.json")])
    assert rc == 0
    assert dims[-1][1]["budget"] == 9000


def test_output_matches_golden_files(tmp_path, capsys):
    """Fresh CLI output equals the files in tests/golden byte for byte.

    The files pin the output bytes across changes meant to keep behaviour,
    and stdout.txt pins the summaries the commands print, in the order
    below, with each output path written as <out>.  A change that is meant
    to move the numbers regenerates them with the commands below and
    records the shift.
    """
    runs = {
        "preimages.csv": ["preimages", "--ell", "2", "--c", "2+0i",
                          "--w", "0.6931+0i", "--K", "25"],
        "classify.pgm": ["classify", "--ell", "2", "--c", "2+0i",
                         "--window=-6:6", "--res", "48x48",
                         "--max-iter", "120"],
        "pressure.json": ["pressure", "--ell", "2", "--c", "2+0i",
                          "--t", "1.5", "--K", "64", "--n", "3"],
        "continue_orbit_ell2.csv": ["continue-orbit", "--ell", "2",
                                    "--c", "2+0i", "--c-end", "2+0.2i",
                                    "--steps", "5"],
        "continue_orbit_ell3.csv": ["continue-orbit", "--ell", "3",
                                    "--c", "3+0i", "--c-end", "3+0.2i",
                                    "--steps", "5"],
        "dim.json": ["dim", "--ell", "2", "--c", "2+0i", "--accuracy", "5e-2",
                     "--budget", "50000"],
        "sweep.csv": ["sweep", "--ell", "2", "--c", "2+0i", "--nx", "3",
                      "--ny", "3", "--half-re", "0.25", "--half-im", "0.25",
                      "--accuracy", "0.2", "--budget", "50000",
                      "--threads", "1"],
    }
    assert sorted([*runs, "stdout.txt"]) == \
        sorted(p.name for p in GOLDEN.iterdir())
    differ = []
    printed = []
    for name, argv in runs.items():
        out = tmp_path / name
        assert main(argv + ["--out", str(out)]) == 0
        printed.append(capsys.readouterr().out.replace(str(out), "<out>"))
        if out.read_bytes() != (GOLDEN / name).read_bytes():
            differ.append(name)
    if "".join(printed) != (GOLDEN / "stdout.txt").read_text(encoding="utf-8"):
        differ.append("stdout.txt")
    assert differ == []


def test_import_loads_only_the_standard_library_and_numpy():
    # every command-line run pays for what importing the package loads (the
    # benchmark's setup_s times a fresh interpreter that does it), so no
    # top-level module beyond the standard library and numpy, such as scipy
    # or mpmath, may enter the import path
    script = ("import sys\nbefore = set(sys.modules)\nimport bowendim\n"
              "print(*sorted({m.partition('.')[0]\n"
              "               for m in set(sys.modules) - before}))")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    loaded = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, check=True,
                            timeout=120).stdout.split()
    assert {"bowendim", "numpy"} <= set(loaded)
    assert {m for m in loaded if m not in sys.stdlib_module_names} \
        == {"bowendim", "numpy"}
