import gc
import json
import math
import os
import re
import subprocess
import sys
import weakref
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.io

import rt0eig.cli as cli
import rt0eig.eigensolver
from rt0eig import (assemble, build_structured_mesh, get_preset,
                    solve_mixed_eigenproblem)
from rt0eig.cli import (ConfigError, StudyConfig, emit_reports, main,
                        parse_config, run_study)
from rt0eig.eigensolver import NumericalError
import oracles

GOOD_CONFIG = """\
[study]
preset = laplace
levels = 2 4
k = 2

[output]
directory = {out}
"""


def _write(tmp_path, text, name="study.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_parse_good_config(tmp_path):
    cfg = parse_config(_write(tmp_path, GOOD_CONFIG.format(out=tmp_path / "r")))
    assert cfg.preset == "laplace"
    assert cfg.levels == [2, 4]
    assert cfg.k == 2
    assert cfg.solver == "iterative"
    assert not cfg.compute_superclose


def test_parse_readme_example(tmp_path):
    """The INI block of README.md, copied verbatim, comments and all."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    (block,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
    cfg = parse_config(_write(tmp_path, block)).validate()
    assert cfg.preset == "laplace"
    assert cfg.levels == [8, 16, 32]
    assert cfg.k == 4
    assert cfg.seed == 0
    assert cfg.compute_superclose
    assert not cfg.dump_matrices
    assert cfg.solver == "iterative"  # the solver line is commented out
    assert cfg.output_dir == Path("results/laplace")


def test_parse_rejects_unknown_key(tmp_path):
    bad = GOOD_CONFIG.format(out=tmp_path) + "typo_key = 1\n"
    with pytest.raises(ConfigError, match="unknown \\[output\\] keys"):
        parse_config(_write(tmp_path, bad))
    # the expansion order is a constant of the method, not a setting
    bad = GOOD_CONFIG.format(out=tmp_path).replace(
        "[output]", "expansion_order = 2\n[output]")
    with pytest.raises(ConfigError, match="unknown \\[study\\] keys"):
        parse_config(_write(tmp_path, bad))
    # an override is text for a key, which must be known too
    good = _write(tmp_path, GOOD_CONFIG.format(out=tmp_path))
    with pytest.raises(ConfigError, match="unknown \\[study\\] keys"):
        parse_config(good, {("study", "typo_key"): "1"})


def test_parse_rejects_unknown_section(tmp_path):
    bad = GOOD_CONFIG.format(out=tmp_path) + "\n[plotting]\nstyle = x\n"
    with pytest.raises(ConfigError, match="unknown config sections"):
        parse_config(_write(tmp_path, bad))


def test_parse_rejects_missing_required(tmp_path):
    with pytest.raises(ConfigError, match="missing required"):
        parse_config(_write(tmp_path, "[study]\npreset = laplace\nk = 1\n"))


def test_parse_rejects_bad_boolean(tmp_path):
    bad = GOOD_CONFIG.format(out=tmp_path).replace(
        "[output]", "compute_superclose = yes\n[output]")
    with pytest.raises(ConfigError, match="compute_superclose"):
        parse_config(_write(tmp_path, bad))


@pytest.mark.parametrize("key, text", [
    ("k", "two"), ("seed", "1.5"), ("dump_matrices", "1"),
    ("levels", "2 four")])
def test_parse_malformed_value_names_its_key(tmp_path, key, text):
    good = GOOD_CONFIG.format(out=tmp_path)
    bad = re.sub(rf"^{key} = .*$", f"{key} = {text}", good, flags=re.M)
    if bad == good:
        bad = good.replace("[output]", f"{key} = {text}\n[output]")
    with pytest.raises(ConfigError, match=rf"\b{key}\b"):
        parse_config(_write(tmp_path, bad))


def test_every_config_field_has_a_key():
    """Each StudyConfig field is settable from a config file, by one key."""
    names = [name for name, _, _ in cli._KEYS.values()]
    assert sorted(names) == sorted(f.name for f in fields(StudyConfig))


def test_every_override_flag_maps_to_a_key():
    """Each `rt0eig run` flag names the field of a config key, whose text
    it replaces."""
    args = vars(cli._build_parser().parse_args(["run", "study.ini"]))
    flags = set(args) - {"command", "config"}
    assert flags == {"output_dir", "levels", "k"}
    assert flags <= {name for name, _, _ in cli._KEYS.values()}


def test_parse_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        parse_config(tmp_path / "absent.ini")


def test_percent_in_a_value_is_literal(tmp_path):
    out = tmp_path / "50%"
    cfgfile = _write(tmp_path, GOOD_CONFIG.format(out=out))
    assert main(["run", str(cfgfile)]) == 0
    assert (out / "report.csv").is_file()
    assert (out / "report.json").is_file()


def test_interpolation_syntax_is_literal(tmp_path):
    cfgfile = _write(tmp_path, GOOD_CONFIG.format(out="r/%(preset)s"))
    cfg = parse_config(cfgfile)
    assert cfg.output_dir == "r/%(preset)s"


def test_default_section_is_an_unknown_section(tmp_path, capsys):
    """[DEFAULT] does not lend its keys to [study]."""
    text = "[DEFAULT]\nk = 3\n\n" + GOOD_CONFIG.format(
        out=tmp_path / "r").replace("k = 2\n", "")
    assert main(["run", str(_write(tmp_path, text))]) == 1
    assert capsys.readouterr().err == (
        "config error: unknown config sections: ['DEFAULT']\n")
    assert not (tmp_path / "r").exists()


def test_invalid_utf8_is_config_error(tmp_path, capsys):
    path = tmp_path / "study.ini"
    path.write_bytes(b"# caf\xe9\n"
                     + GOOD_CONFIG.format(out=tmp_path / "r").encode())
    assert main(["run", str(path)]) == 1
    assert capsys.readouterr().err.startswith(
        f"config error: cannot parse {path}: 'utf-8' codec can't decode "
        f"byte 0xe9")


def test_config_is_utf8_whatever_the_locale(tmp_path):
    """An ASCII locale does not change how a config file is decoded."""
    path = tmp_path / "study.ini"
    path.write_text(GOOD_CONFIG.format(out=tmp_path / "r").replace(
        "k = 2", "k = 2  # café"), encoding="utf-8")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0",
           "PYTHONCOERCECLOCALE": "0", "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run(
        [sys.executable, "-m", "rt0eig.cli", "run", str(path)],
        capture_output=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert json.loads((tmp_path / "r" / "report.json").read_text())[
        "study"]["k"] == 2


@pytest.mark.parametrize("key, text", [("k", "two"), ("levels", "8,x")])
def test_a_bad_value_reads_the_same_in_the_file_and_as_a_flag(
        tmp_path, capsys, key, text):
    good = GOOD_CONFIG.format(out=tmp_path / "r")
    bad = re.sub(rf"^{key} = .*$", f"{key} = {text}", good, flags=re.M)
    assert main(["run", str(_write(tmp_path, bad, "bad.ini"))]) == 1
    from_file = capsys.readouterr().err
    assert main(["run", str(_write(tmp_path, good)), f"--{key}", text]) == 1
    assert capsys.readouterr().err == from_file


def test_non_doubling_levels_rejected_before_computation(tmp_path):
    bad = GOOD_CONFIG.format(out=tmp_path).replace("levels = 2 4",
                                                   "levels = 8 24")
    with pytest.raises(ConfigError, match="double"):
        parse_config(_write(tmp_path, bad)).validate()


def test_validate_bounds():
    with pytest.raises(ConfigError, match="at least two"):
        StudyConfig(preset="laplace", levels=[4], k=1).validate()
    with pytest.raises(ConfigError, match="k must be"):
        StudyConfig(preset="laplace", levels=[2, 4], k=0).validate()
    with pytest.raises(ConfigError,
                       match=r"level n = 1: k must be between 1 and 2 "):
        StudyConfig(preset="laplace", levels=[1, 2], k=5,
                    solver="dense").validate()
    with pytest.raises(ConfigError, match="unknown preset"):
        StudyConfig(preset="euler", levels=[2, 4], k=1).validate()
    with pytest.raises(ConfigError, match="solver"):
        StudyConfig(preset="laplace", levels=[2, 4], k=1,
                    solver="quantum").validate()


def test_presets_command(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["laplace", "shifted", "variable"]


def test_main_config_error_exit_code(tmp_path, capsys):
    bad = _write(tmp_path, "[study]\npreset = laplace\nlevels = 8 24\nk = 1\n")
    assert main(["run", str(bad)]) == 1
    assert "config error" in capsys.readouterr().err


def test_run_study_writes_reports(tmp_path, capsys):
    out = tmp_path / "res"
    cfgfile = _write(tmp_path, GOOD_CONFIG.format(out=out))
    assert main(["run", str(cfgfile)]) == 0
    csv_lines = (out / "report.csv").read_text().splitlines()
    assert csv_lines[0] == ",".join(cli.CSV_COLUMNS)
    # one row per (eigenvalue-or-cluster, level), constant field count
    counts = {len(line.split(",")) for line in csv_lines}
    assert counts == {len(cli.CSV_COLUMNS)}
    payload = json.loads((out / "report.json").read_text())
    assert payload["status"] == "ok"
    assert [lv["n"] for lv in payload["levels"]] == [2, 4]
    assert (out / "timings.json").exists()
    assert "total time" in capsys.readouterr().out


@pytest.mark.parametrize("solver, levels", [("dense", []),
                                            ("iterative", [4, 8])])
def test_the_iterative_solver_orders_the_multipliers_once_per_level(
        tmp_path, monkeypatch, solver, levels):
    """The nested-dissection order of the interface multipliers is the
    iterative solver's: it is computed once per iterative level, and
    neither by assembly nor on the dense path."""
    order, seen = rt0eig.eigensolver.nested_dissection_order, []

    def counted(mesh):
        seen.append(mesh.n)
        return order(mesh)

    monkeypatch.setattr(rt0eig.eigensolver, "nested_dissection_order",
                        counted)
    run_study(StudyConfig(preset="laplace", levels=[4, 8], k=2,
                          solver=solver, output_dir=tmp_path))
    assert seen == levels


def test_timings_record_peak_rss_per_level(tmp_path):
    cfg = StudyConfig(preset="laplace", levels=[2, 4, 8], k=2,
                      output_dir=tmp_path)
    run_study(cfg)
    levels = json.loads((tmp_path / "timings.json").read_text())["levels"]
    assert [lv["n"] for lv in levels] == [2, 4, 8]
    peaks = [lv["peak_rss_mb"] for lv in levels]
    assert peaks[0] > 0
    assert peaks == sorted(peaks)


def test_timings_peak_rss_is_not_the_launchers(tmp_path):
    """A small study launched from a process 256 MB larger reports its own
    peak; Linux's ru_maxrss would report the launcher's."""
    cfgfile = _write(tmp_path, GOOD_CONFIG.format(out=tmp_path / "res"))
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    ballast = np.ones(2**25)  # 256 MB, resident while the study runs
    subprocess.run([sys.executable, "-m", "rt0eig.cli", "run", str(cfgfile)],
                   check=True, capture_output=True, env=env, timeout=120)
    del ballast
    timings = json.loads((tmp_path / "res" / "timings.json").read_text())
    assert 0 < max(lv["peak_rss_mb"] for lv in timings["levels"]) < 256


class _UnreadablePath:
    """Stands in for pathlib.Path where /proc/self/status is not there."""

    def __init__(self, path):
        self.path = path

    def read_text(self, encoding=None):
        raise FileNotFoundError(self.path)


@pytest.mark.parametrize("platform,peak_mb", [("linux", 3072.0),
                                              ("darwin", 3.0)])
def test_peak_rss_falls_back_to_ru_maxrss(monkeypatch, platform, peak_mb):
    """Without /proc, ru_maxrss gives the peak: KiB on Linux, bytes on
    macOS."""
    monkeypatch.setattr(cli, "Path", _UnreadablePath)
    monkeypatch.setattr(cli, "resource", SimpleNamespace(
        RUSAGE_SELF=0,
        getrusage=lambda who: SimpleNamespace(ru_maxrss=3 * 2**20)))
    monkeypatch.setattr(cli.sys, "platform", platform)
    assert cli._peak_rss_mb() == peak_mb


def test_peak_rss_is_none_without_proc_or_resource(monkeypatch):
    monkeypatch.setattr(cli, "Path", _UnreadablePath)
    monkeypatch.setattr(cli, "resource", None)
    assert cli._peak_rss_mb() is None


def test_cli_overrides(tmp_path):
    out = tmp_path / "a"
    cfgfile = _write(tmp_path, GOOD_CONFIG.format(out=out))
    out2 = tmp_path / "b"
    assert main(["run", str(cfgfile), "--output-dir", str(out2),
                 "--levels", "4,8", "--k", "3"]) == 0
    payload = json.loads((out2 / "report.json").read_text())
    assert payload["study"]["levels"] == [4, 8]
    assert payload["study"]["k"] == 3
    assert not out.exists()


@pytest.mark.parametrize("flag, text, message", [
    ("--k", "two", "k must be an integer, got 'two'"),
    ("--k", "2.5", "k must be an integer, got '2.5'"),
    ("--levels", "8,x", "levels must be integers, got '8,x'"),
    ("--levels", "", "need at least two levels"),
    ("--output-dir", "", "output_dir is empty"),
], ids=["k_word", "k_float", "levels", "levels_empty", "output_dir_empty"])
def test_malformed_override_is_config_error(tmp_path, capsys, flag, text,
                                            message):
    """Exit code 2 is kept for numerical failures, so a malformed override
    exits 1 with a config error, not through argparse.  An empty override
    is malformed too, not the absence of one."""
    cfgfile = _write(tmp_path, GOOD_CONFIG.format(out=tmp_path / "r"))
    assert main(["run", str(cfgfile), flag, text]) == 1
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("study, levels", [
    ("levels = 8 17\nk = 2", "4,8"), ("levels = 2 4\nk = 9", "8,16"),
], ids=["bad_levels", "k_above_levels"])
def test_overrides_are_validated_together_with_the_file(tmp_path, study,
                                                        levels):
    """An override replaces a file value that would fail on its own: the
    study is validated once, after the overrides."""
    out = tmp_path / "r"
    cfgfile = _write(tmp_path, f"[study]\npreset = laplace\n{study}\n"
                               f"[output]\ndirectory = {out}\n")
    assert main(["run", str(cfgfile), "--levels", levels]) == 0
    payload = json.loads((out / "report.json").read_text())
    assert payload["study"]["levels"] == [int(n) for n in levels.split(",")]


def test_an_override_supplies_a_missing_key(tmp_path):
    out = tmp_path / "r"
    cfgfile = _write(tmp_path, GOOD_CONFIG.format(out=out).replace(
        "k = 2\n", ""))
    assert main(["run", str(cfgfile), "--k", "3"]) == 0
    assert json.loads((out / "report.json").read_text())["study"]["k"] == 3


def test_shifted_study_columns_shift_by_five(tmp_path):
    base = StudyConfig(preset="laplace", levels=[4, 8], k=3,
                       output_dir=tmp_path / "lap")
    shifted = StudyConfig(preset="shifted", levels=[4, 8], k=3,
                          output_dir=tmp_path / "shf")
    t0, _ = run_study(base)
    t5, _ = run_study(shifted)
    for r0, r5 in zip(t0.rows, t5.rows):
        assert np.abs((r5.raw - 5.0) - r0.raw).max() <= 1e-8 * np.abs(r0.raw).max()


def test_json_round_trip_at_12_digits(tmp_path):
    cfg = StudyConfig(preset="laplace", levels=[2, 4], k=2,
                      output_dir=tmp_path / "r")
    table, _ = run_study(cfg)
    payload = json.loads((tmp_path / "r" / "report.json").read_text())
    for row, entry in zip(table.rows, payload["eigen"]):
        for want, got in zip(row.raw, entry["lambda_h"]):
            assert got == float(f"{want:.12g}")
        for want, got in zip(row.extrapolated, entry["lambda_extrap"]):
            assert got == float(f"{want:.12g}")
    for res_level, entry in zip([2, 4], payload["levels"]):
        assert entry["n"] == res_level


def test_determinism_byte_identical(tmp_path):
    cfg_a = StudyConfig(preset="laplace", levels=[2, 4], k=2,
                        compute_superclose=True, output_dir=tmp_path / "a")
    cfg_b = StudyConfig(preset="laplace", levels=[2, 4], k=2,
                        compute_superclose=True, output_dir=tmp_path / "b")
    run_study(cfg_a)
    run_study(cfg_b)
    assert ((tmp_path / "a" / "report.csv").read_bytes()
            == (tmp_path / "b" / "report.csv").read_bytes())
    assert ((tmp_path / "a" / "report.json").read_bytes()
            == (tmp_path / "b" / "report.json").read_bytes())


def test_emit_reports_without_table(tmp_path):
    """No convergence rows: header-only CSV, valid JSON with empty array."""
    cfg = StudyConfig(preset="laplace", levels=[2, 4], k=2,
                      output_dir=tmp_path / "empty")
    paths = emit_reports(None, cfg, [])
    lines = paths["csv"].read_text().splitlines()
    assert lines == [",".join(cli.CSV_COLUMNS)]
    payload = json.loads(paths["json"].read_text())
    assert payload["eigen"] == []
    assert payload["levels"] == []


def test_emit_reports_unwritable_path_named(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    cfg = StudyConfig(preset="laplace", levels=[2, 4], k=2,
                      output_dir=blocker / "sub")
    with pytest.raises(ConfigError, match="file"):
        emit_reports(None, cfg, [])


def test_unwritable_matrix_dump_is_config_error(tmp_path, capsys):
    """A dump directory under a regular file fails like the reports do:
    the study finds it before the first level, and a level run on its own
    when it writes the dumps."""
    blocker = tmp_path / "afile"
    blocker.write_text("x")
    text = GOOD_CONFIG.format(out=blocker / "sub").replace(
        "k = 2", "k = 2\ndump_matrices = true")
    assert main(["run", str(_write(tmp_path, text))]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write reports under")
    assert str(blocker / "sub") in err
    cfg = StudyConfig(preset="laplace", levels=[2, 4], k=2,
                      dump_matrices=True, output_dir=blocker / "sub")
    with pytest.raises(ConfigError,
                       match="^cannot write matrix dumps under .*afile"):
        cli.run_level(cfg, get_preset("laplace"), 2)


@pytest.mark.parametrize("key,value,numpy_value", [
    ("levels", [2.0, 4.0], list(np.array([2, 4]))),
    ("k", 2.0, np.int64(2)),
    ("seed", 1.0, np.int64(1)),
    # bool is an int subclass, but k = True is no eigenvalue count
    ("levels", [True, 2], list(np.array([1, 2]))),
    ("levels", [np.True_, 2], list(np.array([1, 2]))),
    ("k", True, np.int64(1)),
    ("k", np.True_, np.int64(1)),
    ("seed", False, np.int64(0)),
    ("seed", np.False_, np.int64(0)),
], ids=["levels", "k", "seed", "levels_bool", "levels_numpy_bool", "k_bool",
        "k_numpy_bool", "seed_bool", "seed_numpy_bool"])
def test_non_integer_sizes_are_config_errors(key, value, numpy_value):
    # levels [1, 2] hold k = 2 on the dense path only
    base = dict(preset="laplace", levels=[2, 4], k=2, seed=0, solver="dense")
    with pytest.raises(ConfigError, match=rf"^{key}: .* is not an integer"):
        StudyConfig(**(base | {key: value})).validate()
    StudyConfig(**(base | {key: numpy_value})).validate()


@pytest.mark.parametrize("key, numpy_value", [
    ("levels", list(np.array([2, 4]))), ("k", np.int64(2)),
    ("seed", np.int64(1))])
def test_numpy_integer_study_writes_the_int_study_reports(tmp_path, key,
                                                          numpy_value):
    """validate stores the ints that numpy integers stand for, so the
    study runs and writes the reports of the int study byte for byte."""
    base = dict(preset="laplace", levels=[2, 4], k=2, seed=1,
                solver="iterative")
    run_study(StudyConfig(**base, output_dir=tmp_path / "int"))
    run_study(StudyConfig(**(base | {key: numpy_value}),
                          output_dir=tmp_path / "numpy"))
    for name in ("report.csv", "report.json"):
        assert ((tmp_path / "numpy" / name).read_bytes()
                == (tmp_path / "int" / name).read_bytes())


def test_output_dir_may_be_a_path_string(tmp_path):
    cfg = StudyConfig(preset="laplace", levels=[2, 4], k=2,
                      output_dir=str(tmp_path / "r"))
    run_study(cfg)
    assert cfg.output_dir == tmp_path / "r"
    assert (tmp_path / "r" / "report.json").is_file()


@pytest.mark.parametrize("value", [3, None, b"out"],
                         ids=["int", "None", "bytes"])
def test_output_dir_of_no_path_type_is_config_error(monkeypatch, value):
    monkeypatch.setattr(cli, "run_level", lambda *args: pytest.fail(
        "a level ran"))
    with pytest.raises(ConfigError, match=r"^output_dir: .* is not a path"):
        run_study(StudyConfig(preset="laplace", levels=[2, 4], k=2,
                              output_dir=value))


def test_empty_output_dir_is_config_error(tmp_path):
    """Path("") is the working directory, which an empty value does not
    name."""
    with pytest.raises(ConfigError, match="^output_dir is empty"):
        StudyConfig(preset="laplace", levels=[2, 4], k=2,
                    output_dir="").validate()
    with pytest.raises(ConfigError, match="^output_dir is empty"):
        parse_config(_write(tmp_path, GOOD_CONFIG.format(out=""))).validate()


def test_empty_directory_key_is_named_through_main(tmp_path, capsys):
    """An empty `[output] directory` names its key, as README says a
    malformed value does, before any level runs."""
    cfgfile = _write(tmp_path, GOOD_CONFIG.format(out=""))
    assert main(["run", str(cfgfile)]) == 1
    err = capsys.readouterr().err
    assert err == "config error: output_dir is empty ([output] directory)\n"


def _closed_pipe():
    """A pipe whose read end is closed: a write to it fails with EPIPE."""
    read, write = os.pipe()
    os.close(read)
    return write


def _full_device():
    if not Path("/dev/full").exists():
        pytest.skip("no /dev/full")
    return os.open("/dev/full", os.O_WRONLY)


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered",
                                                       "buffered"])
@pytest.mark.parametrize("stdout, message", [
    (_closed_pipe, "[Errno 32] Broken pipe"),
    (_full_device, "[Errno 28] No space left on device")],
    ids=["closed_pipe", "full_device"])
def test_a_failed_summary_write_is_one_line_after_the_reports(
        tmp_path, stdout, message, unbuffered):
    """The reports and timings.json are written before the summary, and a
    stdout that cannot take it is a config error: exit 1, one line on
    stderr, no traceback and no "Exception ignored" at shutdown."""
    out = tmp_path / "res"
    cfgfile = _write(tmp_path, GOOD_CONFIG.format(out=out))
    run = _run_cli_into(stdout, unbuffered, "run", str(cfgfile))
    assert run.returncode == 1
    assert run.stderr == (
        f"config error: cannot write the summary to stdout: {message}\n")
    for name in ("report.csv", "report.json", "timings.json"):
        assert (out / name).is_file()
    assert json.loads((out / "report.json").read_text())["status"] == "ok"


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered",
                                                       "buffered"])
@pytest.mark.parametrize("stdout, message", [
    (_closed_pipe, "[Errno 32] Broken pipe"),
    (_full_device, "[Errno 28] No space left on device")],
    ids=["closed_pipe", "full_device"])
def test_a_failed_presets_write_is_one_line(stdout, message, unbuffered):
    """`rt0eig presets` into a stdout that cannot take the names is a
    config error, as run's summary is: exit 1, one line on stderr."""
    run = _run_cli_into(stdout, unbuffered, "presets")
    assert run.returncode == 1
    assert run.stderr == (
        f"config error: cannot write the preset names to stdout: "
        f"{message}\n")


def _run_cli_into(stdout, unbuffered, *args):
    """`python -m rt0eig.cli *args` in a fresh interpreter, with stdout on
    the descriptor that `stdout()` opens, PYTHONUNBUFFERED set to
    `unbuffered`, and stderr captured."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONUNBUFFERED": unbuffered,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    fd = stdout()
    try:
        return subprocess.run(
            [sys.executable, "-m", "rt0eig.cli", *args], stdout=fd,
            stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    finally:
        os.close(fd)


class _FullStdout:
    def write(self, text):
        raise OSError(28, "No space left on device")

    def flush(self):
        pass


def test_a_failed_level_outranks_a_failed_summary_write(tmp_path,
                                                        monkeypatch):
    cfg = StudyConfig(preset="laplace", levels=[2, 4], k=2,
                      output_dir=tmp_path)
    monkeypatch.setattr(sys, "stdout", _FullStdout())
    with pytest.raises(ConfigError, match="^cannot write the summary"):
        run_study(cfg)

    def breakdown(*args, **kwargs):
        raise NumericalError("synthetic breakdown")

    monkeypatch.setattr(cli, "solve_mixed_eigenproblem", breakdown)
    with pytest.raises(NumericalError, match="synthetic breakdown"):
        run_study(cfg)


def test_unwritable_output_dir_fails_before_any_level(tmp_path, monkeypatch,
                                                      capsys):
    blocker = tmp_path / "afile"
    blocker.write_text("x")
    monkeypatch.setattr(cli, "run_level", lambda *args: pytest.fail(
        "a level ran"))
    text = GOOD_CONFIG.format(out=blocker / "sub")
    assert main(["run", str(_write(tmp_path, text))]) == 1
    assert capsys.readouterr().err.startswith(
        f"config error: cannot write reports under {blocker / 'sub'}: ")


def test_default_solver_is_iterative(tmp_path):
    cfg = StudyConfig(preset="laplace", levels=[8, 16], k=4,
                      output_dir=tmp_path).validate()
    assert cfg.solver == "iterative"
    run_study(cfg)
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["study"]["solver"] == "iterative"


def test_config_without_solver_runs_past_the_dense_cap(tmp_path):
    """n = 64 holds more triangles than the dense path takes; a config that
    names no solver runs it."""
    cfgfile = _write(tmp_path, GOOD_CONFIG.format(out=tmp_path / "r").replace(
        "levels = 2 4", "levels = 16 32 64"))
    assert parse_config(cfgfile).levels == [16, 32, 64]
    assert main(["run", str(cfgfile)]) == 0
    payload = json.loads((tmp_path / "r" / "report.json").read_text())
    assert [(lv["n"], lv["status"]) for lv in payload["levels"]] == [
        (16, "ok"), (32, "ok"), (64, "ok")]


@pytest.mark.parametrize("config, message", [
    (dict(levels=[1, 2], k=2, solver="iterative"),
     r"^level n = 1: k must be between 1 and 1 for the iterative solver"),
    (dict(levels=[33, 66], k=1, solver="dense"),
     r"^level n = 33: 2178 triangles .*use solver = iterative"),
    (dict(levels=[2, 4], k=1, seed=-1), r"^level n = 2: seed must be >= 0"),
    (dict(levels=[2, 4], k=1, solver="quantum"),
     r"^level n = 2: solver must be 'dense' or 'iterative'"),
], ids=["k", "dense_cap", "seed", "solver"])
def test_solver_limit_errors_name_the_level_and_the_key(config, message):
    with pytest.raises(ConfigError, match=message):
        StudyConfig(preset="laplace", **config).validate()


@pytest.mark.parametrize("key", ["compute_superclose", "dump_matrices"])
@pytest.mark.parametrize("value", ["false", 1, None, np.True_],
                         ids=["str", "int", "None", "numpy_bool"])
def test_flags_must_be_bools(key, value):
    """A flag that is not a bool would be read by its truth value and
    written as it is into report.json."""
    base = dict(preset="laplace", levels=[2, 4], k=2)
    with pytest.raises(ConfigError, match=rf"^{key}: .* is not a bool"):
        StudyConfig(**(base | {key: value})).validate()
    StudyConfig(**(base | {key: True})).validate()


def test_numerical_failure_marks_level_and_exit_code(tmp_path, monkeypatch, capsys):
    calls = {"count": 0}

    def explode(mesh, sys_, k, method="dense", seed=0):
        calls["count"] += 1
        if calls["count"] >= 2:
            raise NumericalError("synthetic breakdown")
        return real(mesh, sys_, k, method=method, seed=seed)

    real = cli.solve_mixed_eigenproblem
    monkeypatch.setattr(cli, "solve_mixed_eigenproblem", explode)
    out = tmp_path / "fail"
    cfgfile = _write(tmp_path, GOOD_CONFIG.format(out=out))
    assert main(["run", str(cfgfile)]) == 2
    assert "numerical failure" in capsys.readouterr().err
    payload = json.loads((out / "report.json").read_text())
    assert payload["status"] == "failed"
    statuses = {lv["n"]: lv["status"] for lv in payload["levels"]}
    assert statuses == {2: "ok", 4: "failed"}
    assert "synthetic breakdown" in payload["levels"][-1]["error"]


@pytest.mark.parametrize("site, error", [
    ("splu", SystemError("gstrf was called with invalid arguments")),
    ("splu", MemoryError("out of memory")),
    ("assemble", MemoryError("Unable to allocate 75.0 MiB for an array")),
], ids=["SystemError", "MemoryError", "assemble-MemoryError"])
def test_multiplier_factorization_failure_fails_the_level(
        tmp_path, monkeypatch, capsys, site, error):
    """SuperLU running out of memory on H at level n=4, or numpy running
    out of it outside SuperLU, here while assembling that level, fails that
    level by name, with exit code 2 and a report, instead of a
    traceback."""
    owner = rt0eig.eigensolver.spla if site == "splu" else cli
    real, calls = getattr(owner, site), []

    def failing(*args, **kwargs):
        calls.append(args)
        if len(calls) >= 2:
            raise error
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, site, failing)
    text = GOOD_CONFIG.format(out=tmp_path / "r").replace(
        "k = 2", "k = 2\nsolver = iterative")
    assert main(["run", str(_write(tmp_path, text))]) == 2
    message = (("multiplier factorization failed: " if site == "splu"
                else "") + f"{type(error).__name__}: {error}")
    assert (f"numerical failure: level n=4 failed: {message}"
            in capsys.readouterr().err)
    payload = json.loads((tmp_path / "r" / "report.json").read_text())
    assert payload["status"] == "failed"
    assert [(lv["n"], lv["status"]) for lv in payload["levels"]] == [
        (2, "ok"), (4, "failed")]
    assert payload["levels"][-1]["error"] == message


def test_superclose_study_from_n1_measures_every_level(tmp_path):
    """The midpoint rule's weights are positive, so no quadrature of a
    squared error comes out negative: a superclose study that starts at
    n = 1 completes with finite measures on every level."""
    text = GOOD_CONFIG.format(out=tmp_path / "r").replace(
        "levels = 2 4\nk = 2",
        "levels = 1 2 4 8\nk = 1\ncompute_superclose = true")
    assert main(["run", str(_write(tmp_path, text))]) == 0
    payload = json.loads((tmp_path / "r" / "report.json").read_text())
    assert [(lv["n"], lv["status"]) for lv in payload["levels"]] == [
        (1, "ok"), (2, "ok"), (4, "ok"), (8, "ok")]
    for name in ("distance", "err_u", "err_sigma"):
        values = payload["superclose"][name]
        assert len(values) == 4 and all(
            v is not None and math.isfinite(v) for v in values), name


def test_dump_matrices_flag(tmp_path):
    cfg = StudyConfig(preset="laplace", levels=[1, 2], k=1,
                      dump_matrices=True, output_dir=tmp_path / "dumps")
    run_study(cfg)
    for n in (1, 2):
        for name in ("M", "B", "C", "D"):
            assert (tmp_path / "dumps" / f"matrix_n{n}_{name}.mtx").exists()
    # C of the laplace preset is all zeros: diagonal dump carries the zeros
    c = scipy.io.mmread(tmp_path / "dumps" / "matrix_n1_C.mtx")
    assert (c.row.tolist(), c.col.tolist(), c.data.tolist()) == (
        [0, 1], [0, 1], [0.0, 0.0])


def test_import_does_not_load_scipy_io():
    """Only matrix dumps need scipy.io, so importing the command line,
    which the benchmark times, does not load it."""
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys, rt0eig.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.io')))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout == "[]\n"


def test_iterative_solver_study(tmp_path):
    cfg = StudyConfig(preset="laplace", levels=[4, 8], k=2,
                      solver="iterative", seed=7, output_dir=tmp_path / "it")
    table, _ = run_study(cfg)
    dense = StudyConfig(preset="laplace", levels=[4, 8], k=2,
                        solver="dense", output_dir=tmp_path / "dn")
    table_d, _ = run_study(dense)
    for ri, rd in zip(table.rows, table_d.rows):
        assert np.abs(ri.raw - rd.raw).max() <= 1e-8 * np.abs(rd.raw).max()


def test_iterative_k_above_unknowns_minus_one_is_config_error(tmp_path,
                                                              capsys):
    with pytest.raises(ConfigError, match="iterative"):
        StudyConfig(preset="laplace", levels=[1, 2], k=2,
                    solver="iterative").validate()
    StudyConfig(preset="laplace", levels=[1, 2], k=1,
                solver="iterative").validate()
    StudyConfig(preset="laplace", levels=[1, 2], k=2,
                solver="dense").validate()
    text = GOOD_CONFIG.format(out=tmp_path / "r").replace(
        "levels = 2 4", "levels = 1 2\nsolver = iterative")
    assert main(["run", str(_write(tmp_path, text))]) == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_negative_seed_is_config_error(tmp_path, capsys):
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        StudyConfig(preset="laplace", levels=[2, 4], k=1, seed=-1,
                    solver="iterative").validate()
    StudyConfig(preset="laplace", levels=[2, 4], k=1, seed=0,
                solver="iterative").validate()
    text = GOOD_CONFIG.format(out=tmp_path / "r").replace(
        "levels = 2 4", "levels = 2 4\nsolver = iterative\nseed = -1")
    assert main(["run", str(_write(tmp_path, text))]) == 1
    assert ("config error: level n = 2: seed must be >= 0"
            in capsys.readouterr().err)
    assert not (tmp_path / "r").exists()


def test_superclose_needs_analytic_preset(tmp_path, capsys):
    with pytest.raises(ConfigError, match="'variable'"):
        StudyConfig(preset="variable", levels=[2, 4], k=1,
                    compute_superclose=True).validate()
    StudyConfig(preset="variable", levels=[2, 4], k=1).validate()
    for preset in ("laplace", "shifted"):
        StudyConfig(preset=preset, levels=[2, 4], k=1,
                    compute_superclose=True).validate()
    text = GOOD_CONFIG.format(out=tmp_path / "r").replace(
        "preset = laplace", "preset = variable\ncompute_superclose = true")
    assert main(["run", str(_write(tmp_path, text))]) == 1
    assert "compute_superclose" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_dense_solver_rejects_levels_it_cannot_hold(tmp_path, capsys):
    assert 2 * 32 * 32 == rt0eig.eigensolver.DENSE_MAX_TRIANGLES
    StudyConfig(preset="laplace", levels=[16, 32], k=1,
                solver="dense").validate()
    StudyConfig(preset="laplace", levels=[64, 128], k=1,
                solver="iterative").validate()
    with pytest.raises(ConfigError,
                       match=r"n = 64: .*use solver = iterative"):
        StudyConfig(preset="laplace", levels=[32, 64], k=1,
                    solver="dense").validate()
    dense = GOOD_CONFIG.format(out=tmp_path / "r").replace(
        "k = 2", "k = 2\nsolver = dense")
    text = dense.replace("levels = 2 4", "levels = 32 64")
    assert main(["run", str(_write(tmp_path, text))]) == 1
    assert "n = 64" in capsys.readouterr().err
    cfgfile = _write(tmp_path, dense, "ok.ini")
    assert main(["run", str(cfgfile), "--levels", "64,128"]) == 1
    assert "solver = iterative" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("solver", ["dense", "iterative"])
def test_no_level_outlives_its_level(tmp_path, monkeypatch, solver):
    """A study keeps no level's mesh or assembled system: by the time the
    next level assembles, the previous one's are gone."""
    refs, alive = [], []
    real = cli.assemble

    def spy(mesh, prob):
        gc.collect()
        alive.extend((m() is not None, s() is not None) for m, s in refs)
        refs.clear()
        sys_ = real(mesh, prob)
        refs.append((weakref.ref(mesh), weakref.ref(sys_)))
        return sys_

    monkeypatch.setattr(cli, "assemble", spy)
    cfg = StudyConfig(preset="laplace", levels=[4, 8, 16], k=3,
                      solver=solver, compute_superclose=True,
                      output_dir=tmp_path)
    run_study(cfg)
    assert alive == [(False, False)] * 2


@pytest.mark.parametrize("solver", ["dense", "iterative"])
def test_streamed_superclose_equals_posthoc_reference(tmp_path, solver):
    """Each level measured while it is alive gives exactly the block that
    measuring every level after the study would."""
    cfg = StudyConfig(preset="laplace", levels=[4, 8, 16], k=4,
                      solver=solver, seed=3, compute_superclose=True,
                      output_dir=tmp_path)
    table, _ = run_study(cfg)
    prob = get_preset(cfg.preset)
    solved = []
    for n in cfg.levels:
        mesh = build_structured_mesh(prob.domain, n)
        sys_ = assemble(mesh, prob)
        solved.append((mesh, sys_, solve_mixed_eigenproblem(
            mesh, sys_, cfg.k, method=solver, seed=cfg.seed)))
    want = oracles.posthoc_superclose_block(prob, solved)
    for f in fields(want):
        assert np.array_equal(getattr(table.superclose, f.name),
                              getattr(want, f.name)), f.name
