"""Tests for the command line driver: config parsing, exit codes,
artifact determinism, and the kernel mutation harness."""

import dataclasses
import hashlib
import inspect
import math
import pathlib
import re
import time

import numpy as np
import pytest

from bias_lab import (ConfigError, DomainError, _kernels, checks, cli,
                      engine, oracle, templates as tpl)
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
        "  # indented comment\n"
        "template_dir = /data/run#3\t# after a tab\n"
        "\n",
        encoding="utf-8")
    cfg = cli.parse_config(str(p))
    assert cfg["experiment"] == "pair_hard"
    assert cfg["rho"] == 0.5
    assert cfg["M"] == 50_000 and isinstance(cfg["M"], int)
    assert cfg["seed"] == 9
    assert cfg["levels"] == (16, 64)
    # '#' opens a comment only at the start of a line or after whitespace
    assert cfg["template_dir"] == "/data/run#3"


def test_parse_config_reads_integers_exactly(tmp_path, capsys):
    p = tmp_path / "ints.cfg"
    # both lie beyond 2**53, where a float would round them
    p.write_text("seed = 9007199254740993\nM = 123456789012345678\n",
                 encoding="utf-8")
    cfg = cli.parse_config(str(p))
    assert cfg == dict(seed=9007199254740993, M=123456789012345678)
    p.write_text("M = 5e6\n", encoding="utf-8")
    assert cli.parse_config(str(p))["M"] == 5_000_000
    # list items read as scalar integers do
    p.write_text("levels = 16, 6.4e1\n", encoding="utf-8")
    assert cli.parse_config(str(p))["levels"] == (16, 64)
    p.write_text("levels = 16, 2.5\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="'levels'"):
        cli.parse_config(str(p))
    cfg = _write_cfg(tmp_path / "half.cfg", experiment="pair_hard", M=2.5)
    assert cli.main(["run", "--config", cfg, "--out",
                     str(tmp_path / "o")]) == cli.EXIT_BAD_CONFIG
    assert "cannot parse value '2.5'" in capsys.readouterr().err


def test_parse_config_errors(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("experiment = pair_hard\nwarp = 9\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        cli.parse_config(str(p))
    for raw in ("not_a_number", "2.5", "inf", "nan"):
        # inf and nan are floats but not integers
        p.write_text(f"M = {raw}\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            cli.parse_config(str(p))
    p.write_text("seed = 1\nseed = 2\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        cli.parse_config(str(p))
    p.write_text("just a line without equals\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        cli.parse_config(str(p))
    # an empty list would make a run that checks nothing
    p.write_text("levels = ,\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="'levels'"):
        cli.parse_config(str(p))


# --------------------------------------------------------------- exit codes

def test_run_pair_hard_writes_three_estimate_tables(tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "c.cfg", experiment="pair_hard",
                     rho=0.1, M=10_000)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
    capsys.readouterr()
    est = checks.estimate(tpl.make_pair(0.1), 10_000, 0)
    for kind, want, head in (("corr", est.corr, "corr_with_t"),
                             ("stderr", est.stderr, "stderr_t"),
                             ("mass", [est.mass], "mass_t")):
        head_line, *rows = (out / f"pair_hard_estimate_{kind}.csv") \
            .read_text(encoding="utf-8").splitlines()
        assert head_line == f"{head}0,{head}1"
        # 17 significant digits give every value back exactly
        got = np.array([[float(c) for c in r.split(",")] for r in rows])
        np.testing.assert_array_equal(got, want)


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
    # one sample gives an infinite stderr, not a config error: its row
    # fails for want of a finite tolerance
    cfg = _write_cfg(tmp_path / "one.cfg", experiment="pair_soft", M=1)
    code = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_ROW_FAILED
    assert "no finite tolerance" in capsys.readouterr().out


def test_run_row_failure_exit_code(tmp_path, capsys):
    for keys in (
            # three samples give an infinite 3-sigma tolerance, which
            # bounds nothing
            dict(experiment="pair_hard", rho=0.5, M=3),
            # at sharp beta one of two samples carries nearly all of a
            # soft cluster's weight, which leaves no spread: an infinite
            # stderr, not 0
            dict(experiment="pair_soft", rho=0, beta=50, M=2)):
        cfg = _write_cfg(tmp_path / "c.cfg", **keys)
        code = cli.main(["run", "--config", cfg,
                         "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_ROW_FAILED, keys
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
    assert capsys.readouterr().err.startswith("config error: ")


def test_run_refuses_keys_no_experiment_reads(tmp_path, capsys):
    """d, mode and rho_seq are not config keys: bias_demo always runs
    full mode, so "mode = gram" would be silently ignored."""
    for key, value in (("mode", "gram"), ("d", "64"),
                       ("rho_seq", "1, 0.4, 0.4")):
        cfg = _write_cfg(tmp_path / f"{key}.cfg", experiment="bias_demo",
                         M=1000, **{key: value})
        code = cli.main(["run", "--config", cfg,
                         "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert f"unknown config key {key!r}" in err


def test_run_mid_run_error_names_its_type(tmp_path, capsys):
    # the engine runs the antipodal pair; the oracle's factorization then
    # fails, which is not a config error
    cfg = _write_cfg(tmp_path / "c.cfg", experiment="pair_soft", rho=-1,
                     M=1000)
    code = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: FactorizationError: ")
    assert "config error" not in err
    # an experiment run through the check table still exits 3
    cfg = _write_cfg(tmp_path / "g.cfg", experiment="gumbel_sweep",
                     levels="1", M=1000)
    code = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "g")])
    assert code == cli.EXIT_BAD_CONFIG
    assert capsys.readouterr().err.startswith("error: DomainError: ")


@pytest.mark.parametrize("case", [
    dict(experiment="pair_hard", M=0),
    dict(experiment="pair_hard", seed=-1, M=1000),
    dict(experiment="gumbel_sweep", levels=16, seed=-1, M=1000),
    dict(experiment="bias_demo", L=1, width=4, height=4, M=1000),
    dict(experiment="bias_demo", width=0, M=1000),
    dict(experiment="bias_demo", height=0, M=1000),
    dict(experiment="bias_demo", width=-4, height=-4, M=1000),
    dict(experiment="gumbel_sweep", levels=1, M=1000),
    ["templates", "make", "--family", "haar", "--d", "10", "--L", "3",
     "--seed", "-1"],
], ids=["M", "seed", "gumbel_seed", "L", "width", "height", "width_height",
        "levels", "make_seed"])
def test_bad_integers_exit_3_with_one_line(case, tmp_path, capsys):
    """One integer out of range per config key, and a negative --seed:
    each exits 3 with one line, a config error or the error's type."""
    out = str(tmp_path / "o")
    if isinstance(case, dict):
        case = ["run", "--config", _write_cfg(tmp_path / "c.cfg", **case)]
    assert cli.main(case + ["--out", out]) == cli.EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert re.fullmatch(r"(config error|error: \w+Error): .*\n", err), err


def test_thread_count_must_be_positive(tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "c.cfg", experiment="pair_hard", M=1000)
    for threads in ("0", "-3"):
        for argv in (["run", "--config", cfg], ["verify", "--suite", "fast"]):
            code = cli.main(argv + ["--out", str(tmp_path / "o"),
                                    "--threads", threads])
            assert code == cli.EXIT_BAD_CONFIG
            assert capsys.readouterr().err.startswith("config error: threads")
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--threads", "2.5"])
        assert exc.value.code == 2
        assert "invalid integer value: '2.5'" in capsys.readouterr().err
    with pytest.raises(ConfigError):
        cli.verify("fast", str(tmp_path / "v"), threads=0)


def test_verify_survives_a_raising_check(tmp_path, monkeypatch, capsys):
    def broken(**inputs):
        raise DomainError("injected")

    suite = cli._suite
    keep = ("bridge", "span", "finite_l")
    monkeypatch.setattr(cli, "_suite", lambda full: [
        entry for entry in suite(full) if entry[0] in keep])
    monkeypatch.setitem(checks.CHECKS, "span", broken)
    out = tmp_path / "v"
    assert cli.main(["verify", "--suite", "fast", "--out", str(out),
                     "--threads", "2"]) == cli.EXIT_ROW_FAILED
    assert "[FAIL] span raised DomainError: injected" in \
        capsys.readouterr().out
    assert {p.name for p in out.glob("*.csv")} == {
        "verify_bridge.csv", "verify_finite_l.csv"}
    assert set(_timings(out / "report.txt")) == set(keep)


def test_verify_lanes_keep_rows_bytes_and_order(tmp_path, monkeypatch):
    keep = ("bridge", "span", "finite_l", "oracle_self")
    trimmed = [entry for entry in cli._suite(False) if entry[0] in keep]
    monkeypatch.setattr(cli, "_suite", lambda full: trimmed)
    alone = [row.line() for name, inputs in trimmed
             for row in checks.CHECKS[name](threads=1, **inputs).rows]
    csvs = []
    for threads in (1, 2, 3):
        out = tmp_path / str(threads)
        report = cli.verify("fast", str(out), threads)
        assert [row.line() for row in report.rows] == alone
        assert list(report.timings) == list(keep)
        assert [pathlib.Path(p).name for p in report.artifacts] == [
            "verify_bridge.csv", "verify_span.csv", "verify_finite_l.csv"]
        csvs.append({p.name: p.read_bytes() for p in out.glob("*.csv")})
    assert csvs[0] == csvs[1] == csvs[2]

    # a non-package error propagates; the checks queued behind it never
    # start, while the one already running in the other lane finishes
    calls = []

    def slow(**inputs):
        calls.append("slow")
        time.sleep(0.3)
        return checks.CheckResult([])

    def boom(**inputs):
        calls.append("boom")
        raise RuntimeError("not a package error")

    def late(**inputs):
        calls.append("late")
        return checks.CheckResult([])

    for name, fn in zip(keep, (slow, boom, late, late)):
        monkeypatch.setitem(checks.CHECKS, name, fn)
    with pytest.raises(RuntimeError, match="not a package error"):
        cli.verify("fast", str(tmp_path / "boom"), threads=2)
    assert sorted(calls) == ["boom", "slow"]


def test_run_unwritable_outdir(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory", encoding="utf-8")
    cfg = _write_cfg(tmp_path / "c.cfg", experiment="pair_hard", M=10_000)
    code = cli.main(["run", "--config", cfg,
                     "--out", str(blocker / "sub")])
    assert code == cli.EXIT_UNWRITABLE
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
    # the automatic plan splits M = 300000 into two chunks, so 4 threads
    # run both chunks at once, each with a helper drawing ahead
    cfg = _write_cfg(tmp_path / "c.cfg", experiment="pair_hard",
                     rho=0.0, M=300_000)
    # --threads reads its text as an integer key does: 2.0 is 2
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for out, threads in ((a, "1"), (b, "4"), (c, "2.0")):
        assert cli.main(["run", "--config", cfg, "--out", str(out),
                         "--threads", threads]) == cli.EXIT_OK
    capsys.readouterr()
    csvs = sorted(p.name for p in a.glob("*.csv"))
    assert csvs
    for name in csvs:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
        assert (a / name).read_bytes() == (c / name).read_bytes(), name


# sha256 of every CSV and PGM that four small runs and three `templates
# make` calls write, in `sha256sum` format (report.txt holds timings and
# is left out); a change that moves bits updates it and says why
RUN_MANIFEST = pathlib.Path(__file__).with_name("run_artifacts.sha256")
PINNED_RUNS = {
    "pair_hard": dict(rho=0.3, M=40_000, seed=5),
    "pair_soft": dict(rho=-0.2, beta=2, M=40_000, seed=6),
    "gumbel_sweep": dict(levels="16, 64", M=40_000, seed=7),
    "bias_demo": dict(width=8, height=8, L=3, M=20_000, seed=8),
}
PINNED_SETS = (("pair", "--rho", "0.3"),
               ("circulant", "--rho-seq", "1,0.3,0.3"),
               ("haar", "--d", "10", "--L", "3"))


def test_artifacts_match_the_manifest(tmp_path, capsys):
    for name, keys in PINNED_RUNS.items():
        cfg = _write_cfg(tmp_path / f"{name}.cfg", experiment=name, **keys)
        assert cli.main(["run", "--config", cfg,
                         "--out", str(tmp_path / name)]) == cli.EXIT_OK
    for family, *flags in PINNED_SETS:
        assert cli.main(["templates", "make", "--family", family, *flags,
                         "--out", str(tmp_path / "templates")]) == cli.EXIT_OK
    capsys.readouterr()
    got = {p.relative_to(tmp_path).as_posix():
           hashlib.sha256(p.read_bytes()).hexdigest()
           for p in tmp_path.glob("*/*") if p.suffix in (".csv", ".pgm")}
    want = dict(line.split()[::-1] for line in
                RUN_MANIFEST.read_text(encoding="ascii").splitlines())
    assert len(want) == 16
    assert got == want


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
    # a fractional level is refused, not run at its integer part
    with pytest.raises(DomainError):
        checks.gumbel((16.5,), m=2000, seed=0)


def _timings(report_path):
    text = report_path.read_text(encoding="utf-8")
    block = text.split("## timings\n", 1)[1].split("##", 1)[0]
    return {name: float(secs) for name, secs in
            (line.split(" = ") for line in block.splitlines())}


def test_report_times_every_check(tmp_path, capsys):
    out = tmp_path / "v"
    assert cli.main(["verify", "--suite", "fast",
                     "--out", str(out)]) == cli.EXIT_OK
    stdout = capsys.readouterr().out
    assert "## run\n" in stdout and "## timings\n" in stdout
    assert len(list(out.glob("*.csv"))) == 11
    timed = set(_timings(out / "report.txt"))
    # every experiment is timed as its one check; together with verify's
    # checks they cover the check table
    for experiment, check, keys in (
            ("gumbel_sweep", "gumbel", dict(levels="16")),
            ("pair_hard", "pair_hard", {}), ("pair_soft", "pair_soft", {}),
            ("bias_demo", "bias_demo", dict(width=6, height=6, L=3))):
        cfg = _write_cfg(tmp_path / f"{experiment}.cfg",
                         experiment=experiment, M=20_000, **keys)
        run = tmp_path / experiment
        assert cli.main(["run", "--config", cfg, "--out", str(run),
                         "--threads", "1"]) == cli.EXIT_OK
        assert set(_timings(run / "report.txt")) == {check}
        timed.add(check)
    assert timed == set(checks.CHECKS)
    capsys.readouterr()
    # the run record sits just before the timings and has no verdicts
    for path, threads in ((out / "report.txt", "auto"),
                          (tmp_path / "pair_hard" / "report.txt", "1")):
        text = path.read_text(encoding="utf-8")
        block = text.split("## run\n", 1)[1].split("## timings\n", 1)[0]
        record = dict(line.split(" = ") for line in block.splitlines())
        assert record.keys() == {"bias_lab", "python", "numpy", "scipy",
                                 "threads", "cpu_count", "engine_blas",
                                 "peak_rss_mb"}
        assert record["threads"] == threads
        lib = engine.blas_control()
        assert record["engine_blas"] == (
            "not controlled" if lib is None else f"1 thread ({lib})")
        assert float(record["peak_rss_mb"]) > 0
        assert not any(line.startswith(("[PASS]", "[FAIL]"))
                       for line in block.splitlines())
    # seconds and the run record go to report.txt and stdout, never into
    # a CSV artifact
    for path in (*out.glob("*.csv"), *tmp_path.glob("*/*.csv")):
        body = path.read_text(encoding="utf-8")
        assert " = " not in body and "## run" not in body


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


def test_bias_demo_with_an_empty_cluster(tmp_path, capsys):
    """A hard run that leaves a cluster empty writes no estimate image
    for it, names it in the report and fails its row (exit 1)."""
    cfg = _write_cfg(tmp_path / "c.cfg", experiment="bias_demo", M=20,
                     width=6, height=6, seed=1)
    out = tmp_path / "o"
    assert cli.main(["run", "--config", cfg,
                     "--out", str(out)]) == cli.EXIT_ROW_FAILED
    assert "[FAIL]" in capsys.readouterr().out
    report = (out / "report.txt").read_text(encoding="utf-8")
    # the row shows the worst margin over the clusters with estimates
    worst = float(re.search(r"worst margin\): measured=(\S+)", report)[1])
    assert math.isfinite(worst)
    empty = re.findall(r"cluster (\d+) \((h\d+)\)", report)
    assert empty and "no estimate for empty" in report
    assert len(list(out.glob("template_*.pgm"))) == 12
    estimates = {p.name for p in out.glob("estimate_*.pgm")}
    assert len(estimates) == 12 - len(empty)
    for k, label in empty:
        assert label == f"h{k}" and f"estimate_{label}.pgm" not in estimates


def test_pair_soft_csv_records_its_tolerance(tmp_path, capsys):
    """pair_soft.csv has the tolerance its row was judged by, the oracle
    rule's 3 (stderr + oracle bound)."""
    cfg = _write_cfg(tmp_path / "c.cfg", experiment="pair_soft", M=2000)
    out = tmp_path / "o"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
    head, row = (out / "pair_soft.csv").read_text(
        encoding="utf-8").splitlines()
    cells = dict(zip(head.split(","), row.split(",")))
    assert list(cells)[-2:] == ["tolerance", "passed"]
    want = 3.0 * (float(cells["stderr"]) + float(cells["oracle_bound"]))
    assert float(cells["tolerance"]) == pytest.approx(want, rel=1e-9)
    capsys.readouterr()


def _faces(tmp_path):
    """A directory of three random 5 x 5 PGM images."""
    src = tmp_path / "faces"
    src.mkdir()
    rng = np.random.default_rng(3)
    for k in range(3):
        vec = rng.standard_normal(25)
        tpl.render_pgm(vec, 5, 5, str(src / f"face{k}.pgm"))
    return str(src)


def test_bias_demo_from_pgm_dir(tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "c.cfg", experiment="bias_demo",
                     template_dir=_faces(tmp_path), M=40_000)
    out = tmp_path / "o"
    assert cli.main(["run", "--config", cfg,
                     "--out", str(out)]) == cli.EXIT_OK
    capsys.readouterr()
    assert len(list(out.glob("estimate_*.pgm"))) == 3


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
    assert "correlation rank: 5 of 5" in text
    # the antipodal pair is singular: one direction, by the rank rule
    assert cli.main(["templates", "make", "--family", "pair", "--rho", "-1",
                     "--out", str(out)]) == cli.EXIT_OK
    assert cli.main(["templates", "inspect",
                     str(out / "pair_templates.csv")]) == cli.EXIT_OK
    assert "correlation rank: 1 of 2" in capsys.readouterr().out


def test_templates_inspect_prints_the_stored_norm(tmp_path, capsys):
    out = tmp_path / "sets"
    assert cli.main(["templates", "make", "--family", "pair", "--rho", "0.3",
                     "--scale", "2.5", "--out", str(out)]) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.main(["templates", "inspect",
                     str(out / "pair_templates.csv")]) == cli.EXIT_OK
    assert "common norm: 2.5\n" in capsys.readouterr().out
    # columns of different norms still inspect, with their norm range
    mixed = tmp_path / "mixed.csv"
    mixed.write_text("a,b\n1,0\n0,3\n", encoding="utf-8")
    assert cli.main(["templates", "inspect", str(mixed)]) == cli.EXIT_OK
    text = capsys.readouterr().out
    assert "column norms: 1 to 3 (not common" in text
    assert "common norm" not in text
    assert "correlation rank: 2 of 2" in text


def test_templates_make_parses_rho_seq_as_a_float_list(tmp_path, capsys):
    out = tmp_path / "sets"
    code = cli.main(["templates", "make", "--family", "circulant",
                     "--rho-seq", "1,x,0.2", "--out", str(out)])
    assert code == cli.EXIT_BAD_CONFIG
    assert capsys.readouterr().err.startswith("error: ")
    # empty fields are skipped, as in a float list of a config file
    code = cli.main(["templates", "make", "--family", "circulant",
                     "--rho-seq", "1,,0.2,0.2", "--out", str(out)])
    assert code == cli.EXIT_OK
    capsys.readouterr()
    assert tpl.load_csv(out / "circulant_templates.csv").L == 3


def test_templates_make_haar(tmp_path, capsys):
    written = []
    # --d reads its text as an integer key does: 2e1 is 20
    for alpha, d in (("0.2", "20"), ("5", "20"), ("0.2", "2e1")):
        out = tmp_path / (alpha + d)
        code = cli.main(["templates", "make", "--family", "haar",
                         "--d", d, "--L", "4", "--alpha", alpha,
                         "--scale", "3", "--seed", "5", "--out", str(out)])
        assert code == cli.EXIT_OK
        written.append((out / "haar_templates.csv").read_bytes())
        stored, _ = tpl.read_csv(out / "haar_templates.csv")
        assert stored.shape == (20, 4)
        np.testing.assert_allclose(np.linalg.norm(stored, axis=0), 3.0,
                                   rtol=1e-12)
        np.testing.assert_allclose(
            stored[:, 0], tpl.make_exponential(20, float(alpha), norm=3.0),
            rtol=0, atol=1e-15)
    capsys.readouterr()
    # the seed profile is make_exponential(d, alpha), so alpha shapes it
    assert written[0] != written[1]
    assert written[0] == written[2]


def test_templates_make_refuses_missing_flags_and_unknown_families(
        tmp_path, capsys):
    out = tmp_path / "sets"
    # missing required arguments surface as a config error, not a crash
    assert cli.main(["templates", "make", "--family", "circulant",
                     "--out", str(out)]) == cli.EXIT_BAD_CONFIG
    # a lone exponential profile is no template set: argparse refuses it
    with pytest.raises(SystemExit) as exc:
        cli.main(["templates", "make", "--family", "exponential",
                  "--d", "30", "--out", str(out)])
    assert exc.value.code == 2
    capsys.readouterr()


def test_templates_make_unwritable_outdir(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory", encoding="utf-8")
    code = cli.main(["templates", "make", "--family", "pair",
                     "--out", str(blocker / "sub")])
    assert code == cli.EXIT_UNWRITABLE
    assert "cannot write to output directory" in capsys.readouterr().err


def test_templates_errors_name_their_type(tmp_path, capsys):
    # raised by the family, by the flags and by the file, in that order
    for argv, kind in (
            (["make", "--family", "pair", "--rho", "1.5"], "DomainError"),
            (["make", "--family", "circulant"], "ConfigError"),
            (["inspect", str(tmp_path / "missing.csv")],
             "FileNotFoundError")):
        if argv[0] == "make":
            argv = argv + ["--out", str(tmp_path / "sets")]
        assert cli.main(["templates", *argv]) == cli.EXIT_BAD_CONFIG
        assert capsys.readouterr().err.startswith(f"error: {kind}: ")


def test_templates_inspect_bad_path(tmp_path, capsys):
    code = cli.main(["templates", "inspect",
                     str(tmp_path / "missing.csv")])
    assert code == cli.EXIT_BAD_CONFIG
    garbled = tmp_path / "garbled.csv"
    garbled.write_text("a,b\n1,x\n", encoding="utf-8")
    assert cli.main(["templates", "inspect",
                     str(garbled)]) == cli.EXIT_BAD_CONFIG
    capsys.readouterr()


# ------------------------------------------- every input acts or is refused

# the config keys each experiment reads besides experiment, seed and M,
# which every experiment reads
RUN_READS = {
    "pair_hard": {"rho", "scale"},
    "pair_soft": {"rho", "scale", "beta"},
    "gumbel_sweep": {"levels"},
    "bias_demo": {"beta", "template_dir", "width", "height", "L", "alpha"},
}
# a value off every experiment's default for each key
RUN_VALUES = dict(seed=5, M=3000, rho=0.3, scale=2.0, beta=2.0,
                  levels="16, 32", width=8, height=4, L=3, alpha=0.05)
# keys no experiment reads any more: the chunk plan follows M, each check
# keeps its own rule and --out names the output directory
RETIRED_KEYS = dict(chunks=3, tolerance=1e-12, out_dir="elsewhere")


def _parameters(fns):
    return {p for fn in fns for p in inspect.signature(fn).parameters}


def test_only_the_builders_declare_keys():
    """A config key or make flag that no experiment builder or family
    reads would be parsed and then ignored."""
    builders = [build for _, _, build in cli._EXPERIMENTS.values()]
    assert set(cli._KEY_PARSERS) - {"experiment"} == _parameters(builders)
    assert set(cli._MAKE_FLAGS) == _parameters(cli._FAMILIES.values())


def _artifacts(out):
    """Bytes of every file a run wrote except report.txt, which holds
    wall-clock times."""
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())
            if p.name != "report.txt"}


@pytest.mark.parametrize("experiment", sorted(RUN_READS))
def test_every_config_key_acts_or_is_refused(experiment, tmp_path, capsys):
    """Each key either changes an artifact byte or exits 3 naming it."""
    values = dict(RUN_VALUES, template_dir=_faces(tmp_path))
    # small runs; bias_demo on 6 x 6 images (its own keys replace these)
    small = dict(M=2000, **({"width": 6, "height": 6}
                            if experiment == "bias_demo" else {}))

    def run(tag, keys):
        cfg = _write_cfg(tmp_path / f"{tag}.cfg", experiment=experiment,
                         **keys)
        out = tmp_path / tag
        code = cli.main(["run", "--config", cfg, "--out", str(out)])
        return code, out, capsys.readouterr().err

    code, base, _ = run("base", small)
    assert code in (cli.EXIT_OK, cli.EXIT_ROW_FAILED)
    base = _artifacts(base)
    reads = RUN_READS[experiment] | {"seed", "M"}
    for key in sorted(set(cli._KEY_PARSERS) - {"experiment"}):
        keys = dict(small, **{key: values[key]})
        if key == "template_dir":
            keys = dict(M=2000, template_dir=values[key])
        code, out, err = run(key, keys)
        if key in reads:
            assert code != cli.EXIT_BAD_CONFIG, (key, err)
            assert _artifacts(out) != base, key
        else:
            assert code == cli.EXIT_BAD_CONFIG, key
            assert err.startswith("config error: ") and repr(key) in err
    for key, value in RETIRED_KEYS.items():
        code, _, err = run(key, dict(small, **{key: value}))
        assert code == cli.EXIT_BAD_CONFIG, key
        assert f"unknown config key {key!r}" in err
    if experiment == "bias_demo":
        # a PGM directory fixes the set, so the synthetic set's keys would
        # be ignored next to it
        for key in ("width", "height", "L", "alpha"):
            code, _, err = run(f"dir_{key}", {
                "M": 2000, "template_dir": values["template_dir"],
                key: values[key]})
            assert code == cli.EXIT_BAD_CONFIG, key
            assert err.startswith("config error: ") and repr(key) in err


MAKE_BASE = {"pair": [], "circulant": ["--rho-seq", "1,0.3,0.3"],
             "haar": ["--d", "6", "--L", "3"]}
MAKE_READS = {"pair": {"--rho", "--d", "--scale"},
              "circulant": {"--rho-seq", "--d", "--scale"},
              "haar": {"--d", "--L", "--alpha", "--scale", "--seed"}}
MAKE_VALUES = {"--rho": "0.3", "--rho-seq": "1,0.2,0.2", "--alpha": "5",
               "--d": "9", "--L": "4", "--scale": "7", "--seed": "3"}


@pytest.mark.parametrize("family", sorted(MAKE_READS))
def test_every_make_flag_acts_or_is_refused(family, tmp_path, capsys):
    """Each flag either changes the written bytes or exits 3 naming it."""
    def make(tag, *flags):
        out = tmp_path / tag
        argv = ["templates", "make", "--family", family, "--out", str(out)]
        code = cli.main(argv + MAKE_BASE[family] + list(flags))
        err = capsys.readouterr().err
        return code, (_artifacts(out) if out.is_dir() else None), err

    code, base, _ = make("base")
    assert code == cli.EXIT_OK
    for flag, value in MAKE_VALUES.items():
        code, written, err = make(flag, flag, value)
        if flag in MAKE_READS[family]:
            assert code == cli.EXIT_OK, (flag, err)
            assert written != base, flag
        else:
            assert code == cli.EXIT_BAD_CONFIG, flag
            assert flag in err.replace(",", " ").split(), (flag, err)


# ---------------------------------------------------------- mutation harness

def _flip_soft_kernels(monkeypatch):
    """Patch the soft kernels so they see the negated sharpness."""
    orig_block = _kernels.soft_block
    orig_diag = _kernels.soft_diag_chunk

    def bad_block(backend, s, beta, *acc):
        return orig_block(backend, s, -beta, *acc)

    def bad_diag(backend, seed, chunk, rows, L, beta, *acc, **kw):
        return orig_diag(backend, seed, chunk, rows, L, -beta, *acc, **kw)

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


def test_oracle_nan_fails_its_self_check_row(monkeypatch):
    """A NaN from the oracle fails the oracle_self row it reaches, wherever
    it falls among the values the row reduces."""
    inputs = cli._oracle_inputs(4)
    clean = checks.oracle_self(**inputs).rows
    assert all(row.passed for row in clean)
    ibp, hard = oracle.ibp_residual, oracle.hard_moments
    calls = []

    def nan_second_ibp(g, beta, ell):
        calls.append(g)
        return math.nan if len(calls) == 2 else ibp(g, beta, ell)

    def nan_quadrature(g, ell, method="exact", nodes=None):
        res = hard(g, ell, method, nodes)
        if method != "quadrature":
            return res
        return dataclasses.replace(res, value=np.full_like(res.value,
                                                           math.nan))

    for row, mutant in ((0, ("ibp_residual", nan_second_ibp)),
                        (1, ("hard_moments", nan_quadrature))):
        with monkeypatch.context() as patch:
            patch.setattr(oracle, *mutant)
            rows = checks.oracle_self(**inputs).rows
        assert rows[row].passed is False, rows[row].line()
        assert math.isnan(rows[row].measured)
        others = [i for i in range(len(rows)) if i != row]
        assert [rows[i].line() for i in others] == [clean[i].line()
                                                   for i in others]


def test_sign_mutation_fails_fast_suite(tmp_path, monkeypatch):
    """An injected softmax sign error must trip the verification net."""
    _flip_soft_kernels(monkeypatch)
    report = cli.verify("fast", str(tmp_path / "v"))
    assert not report.all_pass()
    failing = [row.name for row in report.rows if row.passed is False]
    assert any("soft" in name for name in failing)
    # the hard-assignment half of the suite is untouched by the mutation
    assert any(row.passed for row in report.rows)
