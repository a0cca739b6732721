"""Tests for the command line driver: config parsing, exit codes,
artifact determinism, and the kernel mutation harness."""

import numpy as np
import pytest

from bias_lab import (ConfigError, _kernels, checks, cli, engine,
                      templates as tpl)
from bias_lab.engine import ExperimentConfig
from bias_lab.templates import GramModel


def _write_cfg(path, **keys):
    lines = ["# generated by the test suite"]
    for k, v in keys.items():
        lines.append(f"{k} = {v}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


# ------------------------------------------------------------ config parsing

def test_parse_config_round_trip(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(
        "# comment line\n"
        "experiment = pair_hard\n"
        "rho = 0.5   # trailing comment\n"
        "M = 5e4\n"
        "seed = 9\n"
        "levels = 16, 64\n"
        "rho_seq = 1, 0.4, 0, 0.4\n"
        "  # indented comment\n"
        "template_dir = /data/run#3\n"
        "out_dir = /tmp/out#a\t# after a tab\n"
        "\n",
        encoding="utf-8")
    cfg = cli.parse_config(str(p))
    assert cfg["experiment"] == "pair_hard"
    assert cfg["rho"] == 0.5
    assert cfg["M"] == 50_000 and isinstance(cfg["M"], int)
    assert cfg["seed"] == 9
    assert cfg["levels"] == (16, 64)
    assert cfg["rho_seq"] == (1.0, 0.4, 0.0, 0.4)
    # '#' opens a comment only at the start of a line or after whitespace
    assert cfg["template_dir"] == "/data/run#3"
    assert cfg["out_dir"] == "/tmp/out#a"


def test_parse_config_errors(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("experiment = pair_hard\nwarp = 9\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        cli.parse_config(str(p))
    p.write_text("M = not_a_number\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        cli.parse_config(str(p))
    p.write_text("seed = 1\nseed = 2\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        cli.parse_config(str(p))
    p.write_text("just a line without equals\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        cli.parse_config(str(p))


# --------------------------------------------------------------- exit codes

def test_run_pair_hard_ok(tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "c.cfg", experiment="pair_hard",
                     rho=0.5, M=60_000)
    out = tmp_path / "out"
    code = cli.main(["run", "--config", cfg, "--out", str(out)])
    assert code == cli.EXIT_OK
    text = capsys.readouterr().out
    assert "[PASS]" in text and "[FAIL]" not in text
    assert (out / "report.txt").is_file()
    assert (out / "pair_hard.csv").is_file()
    assert (out / "pair_hard_estimate_corr.csv").is_file()


def test_run_pair_soft_single_sample(tmp_path, capsys):
    # one sample gives an infinite stderr, not a config error
    cfg = _write_cfg(tmp_path / "one.cfg", experiment="pair_soft", M=1)
    code = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_OK
    capsys.readouterr()


def test_run_row_failure_exit_code(tmp_path, capsys):
    # an absurdly tight tolerance turns the passing row into a failure
    cfg = _write_cfg(tmp_path / "c.cfg", experiment="pair_hard",
                     rho=0.5, M=60_000, tolerance=1e-9)
    code = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_ROW_FAILED
    assert "[FAIL]" in capsys.readouterr().out


def test_run_unknown_experiment(tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "c.cfg", experiment="warp_drive")
    code = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_UNKNOWN_EXPERIMENT
    assert "unknown experiment" in capsys.readouterr().err


def test_run_bad_config_exit_codes(tmp_path, capsys):
    missing = _write_cfg(tmp_path / "m.cfg", rho=0.5)
    assert cli.main(["run", "--config", missing,
                     "--out", str(tmp_path / "o")]) == cli.EXIT_BAD_CONFIG
    bad = tmp_path / "b.cfg"
    bad.write_text("experiment = pair_hard\nM = twelve\n", encoding="utf-8")
    assert cli.main(["run", "--config", str(bad),
                     "--out", str(tmp_path / "o")]) == cli.EXIT_BAD_CONFIG
    assert cli.main(["run", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "o")]) == cli.EXIT_BAD_CONFIG
    capsys.readouterr()


def test_run_unwritable_outdir(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory", encoding="utf-8")
    cfg = _write_cfg(tmp_path / "c.cfg", experiment="pair_hard", M=10_000)
    code = cli.main(["run", "--config", cfg,
                     "--out", str(blocker / "sub")])
    assert code == cli.EXIT_UNWRITABLE
    capsys.readouterr()


def test_seed_environment_override(tmp_path, capsys, monkeypatch):
    cfg = _write_cfg(tmp_path / "c.cfg", experiment="pair_hard",
                     rho=0.5, M=40_000, seed=1)
    monkeypatch.setenv("BIAS_LAB_SEED", "123")
    code = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_OK
    report = (tmp_path / "o" / "report.txt").read_text(encoding="utf-8")
    assert "seed = 123" in report
    capsys.readouterr()
    monkeypatch.setenv("BIAS_LAB_SEED", "not-an-integer")
    code = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o2")])
    assert code == cli.EXIT_BAD_CONFIG
    capsys.readouterr()


# ------------------------------------------------------------- determinism

def test_run_twice_identical_csv(tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "c.cfg", experiment="pair_soft",
                     rho=0.2, beta=1.0, M=50_000, seed=4)
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", "--config", cfg, "--out", str(a)]) == cli.EXIT_OK
    assert cli.main(["run", "--config", cfg, "--out", str(b)]) == cli.EXIT_OK
    capsys.readouterr()
    csvs = sorted(p.name for p in a.glob("*.csv"))
    assert csvs
    for name in csvs:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_threads_do_not_change_artifacts(tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "c.cfg", experiment="pair_hard",
                     rho=0.0, M=50_000, chunks=6)
    a, b = tmp_path / "a", tmp_path / "b"
    cli.main(["run", "--config", cfg, "--out", str(a), "--threads", "1"])
    cli.main(["run", "--config", cfg, "--out", str(b), "--threads", "4"])
    capsys.readouterr()
    for name in sorted(p.name for p in a.glob("*.csv")):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


# ------------------------------------------------------- other experiments

def test_gumbel_sweep_small(tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "c.cfg", experiment="gumbel_sweep",
                     levels="16, 64", M=60_000)
    out = tmp_path / "o"
    assert cli.main(["run", "--config", cfg,
                     "--out", str(out)]) == cli.EXIT_OK
    capsys.readouterr()
    lines = (out / "gumbel_sweep.csv").read_text(
        encoding="utf-8").splitlines()
    assert lines[0].startswith("L,measured_self_corr,stderr,a_L,b_L")
    assert len(lines) == 3
    first = lines[1].split(",")
    assert int(first[0]) == 16


def test_gumbel_sweep_unsorted_or_repeated_levels(tmp_path, capsys):
    # the drift rule runs along increasing L, whatever order the config
    # lists the levels in
    for i, levels in enumerate(("64, 16", "16, 16")):
        cfg = _write_cfg(tmp_path / f"c{i}.cfg", experiment="gumbel_sweep",
                         levels=levels, M=200_000)
        out = tmp_path / f"o{i}"
        assert cli.main(["run", "--config", cfg,
                         "--out", str(out)]) == cli.EXIT_OK
        lines = (out / "gumbel_sweep.csv").read_text(
            encoding="utf-8").splitlines()[1:]
        assert [int(line.split(",")[0]) for line in lines] == \
            sorted({int(v) for v in levels.split(",")})
    assert "[FAIL]" not in capsys.readouterr().out


def _timings(report_path):
    text = report_path.read_text(encoding="utf-8")
    block = text.split("## timings\n", 1)[1].split("##", 1)[0]
    return {name: float(secs) for name, secs in
            (line.split(" = ") for line in block.splitlines())}


def test_report_times_every_check(tmp_path, capsys):
    out = tmp_path / "v"
    assert cli.main(["verify", "--suite", "fast",
                     "--out", str(out)]) == cli.EXIT_OK
    assert "## timings" in capsys.readouterr().out
    assert len(list(out.glob("*.csv"))) == 11
    assert set(_timings(out / "report.txt")) == set(checks.CHECKS)
    for experiment, names in (("gumbel_sweep", {"gumbel"}),
                              ("pair_hard", {"pair_hard"})):
        cfg = _write_cfg(tmp_path / f"{experiment}.cfg",
                         experiment=experiment, levels="16", M=20_000)
        run = tmp_path / experiment
        cli.main(["run", "--config", cfg, "--out", str(run)])
        assert set(_timings(run / "report.txt")) == names
    capsys.readouterr()
    # seconds go to report.txt and stdout, never into a CSV artifact
    for path in (*out.glob("*.csv"), *tmp_path.glob("*/*.csv")):
        assert " = " not in path.read_text(encoding="utf-8")


def test_bias_demo_synthetic(tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "c.cfg", experiment="bias_demo",
                     width=6, height=6, L=4, M=40_000)
    out = tmp_path / "o"
    assert cli.main(["run", "--config", cfg,
                     "--out", str(out)]) == cli.EXIT_OK
    capsys.readouterr()
    estimates = sorted(out.glob("estimate_*.pgm"))
    templates = sorted(out.glob("template_*.pgm"))
    assert len(estimates) == 4 and len(templates) == 4
    v, w, h = tpl.load_pgm(estimates[0])
    assert (w, h) == (6, 6)
    pearson = (out / "bias_demo_pearson.csv").read_text(encoding="utf-8")
    assert pearson.count("\n") == 5          # header plus four rows


def test_bias_demo_from_pgm_dir(tmp_path, capsys):
    src = tmp_path / "faces"
    src.mkdir()
    rng = np.random.default_rng(3)
    for k in range(3):
        vec = rng.standard_normal(25)
        cli.render_pgm(vec, 5, 5, str(src / f"face{k}.pgm"))
    cfg = _write_cfg(tmp_path / "c.cfg", experiment="bias_demo",
                     template_dir=str(src), M=40_000)
    out = tmp_path / "o"
    assert cli.main(["run", "--config", cfg,
                     "--out", str(out)]) == cli.EXIT_OK
    capsys.readouterr()
    assert len(list(out.glob("estimate_*.pgm"))) == 3


# --------------------------------------------------------------- render_pgm

def test_render_pgm_constant_maps_to_128(tmp_path):
    path = tmp_path / "flat.pgm"
    cli.render_pgm(np.full(12, 3.7), 4, 3, str(path))
    v, w, h = tpl.load_pgm(path)
    assert (w, h) == (4, 3)
    np.testing.assert_array_equal(v, 128.0)


def test_render_pgm_affine_and_idempotent(tmp_path):
    rng = np.random.default_rng(8)
    vec = rng.standard_normal(30)
    p1 = tmp_path / "one.pgm"
    p2 = tmp_path / "two.pgm"
    cli.render_pgm(vec, 6, 5, str(p1))
    v1, _, _ = tpl.load_pgm(p1)
    assert v1.min() == 0.0 and v1.max() == 255.0
    # the rendered bytes are an affine image of the input
    assert np.corrcoef(vec, v1)[0, 1] > 0.999
    cli.render_pgm(v1, 6, 5, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_render_pgm_rejects_bad_input(tmp_path):
    with pytest.raises(ConfigError):
        cli.render_pgm(np.ones(10), 4, 3, str(tmp_path / "x.pgm"))
    with pytest.raises(ConfigError):
        cli.render_pgm(np.array([1.0, np.nan, 0.0, 0.0]), 2, 2,
                       str(tmp_path / "x.pgm"))


# ------------------------------------------------------- templates commands

def test_templates_make_and_inspect(tmp_path, capsys):
    out = tmp_path / "sets"
    code = cli.main(["templates", "make", "--family", "circulant",
                     "--rho-seq", "1,0.3,0.1,0.1,0.3",
                     "--out", str(out)])
    assert code == cli.EXIT_OK
    written = out / "circulant_templates.csv"
    ts = tpl.load_csv(written)
    assert ts.L == 5 and ts.labels == ("c0", "c1", "c2", "c3", "c4")
    assert cli.main(["templates", "inspect", str(written)]) == cli.EXIT_OK
    text = capsys.readouterr().out
    assert "5 templates" in text
    assert "off-diagonal correlation range" in text


def test_templates_make_haar(tmp_path, capsys):
    out = tmp_path / "sets"
    code = cli.main(["templates", "make", "--family", "haar",
                     "--d", "20", "--L", "4", "--alpha", "0.2",
                     "--seed", "5", "--out", str(out)])
    assert code == cli.EXIT_OK
    capsys.readouterr()
    ts = tpl.load_csv(out / "haar_templates.csv", rescale=False)
    assert ts.L == 4 and ts.d == 20


def test_templates_make_exponential_profile(tmp_path, capsys):
    out = tmp_path / "sets"
    code = cli.main(["templates", "make", "--family", "exponential",
                     "--d", "30", "--alpha", "0.1", "--out", str(out)])
    assert code == cli.EXIT_OK
    capsys.readouterr()
    stored = np.loadtxt(out / "exponential_profile.csv", skiprows=1)
    np.testing.assert_allclose(stored, tpl.make_exponential(30, 0.1),
                               atol=1e-16)
    # missing required arguments surface as a config error, not a crash
    assert cli.main(["templates", "make", "--family", "circulant",
                     "--out", str(out)]) == cli.EXIT_BAD_CONFIG
    capsys.readouterr()


def test_templates_inspect_bad_path(tmp_path, capsys):
    code = cli.main(["templates", "inspect",
                     str(tmp_path / "missing.csv")])
    assert code == cli.EXIT_BAD_CONFIG
    garbled = tmp_path / "garbled.csv"
    garbled.write_text("a,b\n1,x\n", encoding="utf-8")
    assert cli.main(["templates", "inspect",
                     str(garbled)]) == cli.EXIT_BAD_CONFIG
    capsys.readouterr()


# ---------------------------------------------------------- mutation harness

def _flip_soft_kernels(monkeypatch):
    """Patch the soft kernels so they see the negated sharpness."""
    orig_block = _kernels.soft_block
    orig_diag = _kernels.soft_diag_chunk

    def bad_block(backend, s, beta, *acc):
        return orig_block(backend, s, -beta, *acc)

    def bad_diag(backend, seed, chunk, rows, L, scale, beta, *acc):
        return orig_diag(backend, seed, chunk, rows, L, scale, -beta, *acc)

    monkeypatch.setattr(_kernels, "soft_block", bad_block)
    monkeypatch.setattr(_kernels, "soft_diag_chunk", bad_diag)


def test_sign_mutation_flips_engine_bias(monkeypatch):
    g = GramModel.from_correlation(np.array([[1.0, 0.0], [0.0, 1.0]]))
    cfg = ExperimentConfig(m=50_000, seed=3, beta=1.0, chunks=2)
    clean = engine.soft_assign(g, cfg)
    assert clean.corr[0, 0] > 0.1
    _flip_soft_kernels(monkeypatch)
    mutated = engine.soft_assign(g, cfg)
    assert mutated.corr[0, 0] < -0.1
    mutated_diag = engine.soft_assign_diag(8, cfg)
    assert mutated_diag.avg_self_corr < -0.1


def test_sign_mutation_fails_fast_suite(tmp_path, monkeypatch):
    """An injected softmax sign error must trip the verification net."""
    _flip_soft_kernels(monkeypatch)
    report = cli.verify("fast", str(tmp_path / "v"))
    assert not report.all_pass()
    failing = [row.name for row in report.rows if row.passed is False]
    assert any("soft" in name for name in failing)
    # the hard-assignment half of the suite is untouched by the mutation
    assert any(row.passed for row in report.rows)
