import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from bplab import acceptance, propagator, solver
from bplab.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from bplab.solver import NORM_REPORT_COLUMNS, parse_config
from bplab.spectral import (
    ConfigurationError,
    Grid2D,
    RealField2D,
    besov_norm,
    linf_norm,
    read_field,
    shell_field,
    transform_inverse,
    write_field,
)

CONFIG = """\
# small smoke-test run
n = 32
L = 20.0
beta = 1.0
dt = 0.05
t_end = 0.5
k_energy = 3
output_stride = 2
init = gaussian
eps = 0.5
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(CONFIG)
    return str(path)


def read_noncomment(path):
    with open(path) as fh:
        return [line for line in fh if not line.startswith("#")]


class TestSimulate:
    def test_round_trip_with_diagnose(self, tmp_path, config_file):
        out = str(tmp_path / "run.csv")
        chk = str(tmp_path / "chk")
        rc = main(["simulate", "--config", config_file, "--out", out,
                   "--checkpoints", chk, "--seed", "1"])
        assert rc == EXIT_OK
        lines = read_noncomment(out)
        assert lines[0].strip().split(",")[:2] == ["t", "l2"]
        assert len(lines) > 2
        assert any(name.startswith("chk_") for name in os.listdir(chk))

        diag = str(tmp_path / "diag.csv")
        rc = main(["diagnose", "--in", out, "--checkpoints", chk,
                   "--out", diag, "--k", "3"])
        assert rc == EXIT_OK
        rows = read_noncomment(diag)
        assert rows[0].startswith("t,hk,energy_envelope")

    def test_diagnose_refuses_hk_past_float64(self, tmp_path):
        # on this grid H^180 is finite and H^181 overflows: the first is
        # certified, the second refused, and neither warns
        out, chk, diag = _finished_run_csv(tmp_path), str(tmp_path / "chk"), str(tmp_path / "d")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["diagnose", "--in", out, "--checkpoints", chk, "--out", diag,
                         "--k", "180"]) == EXIT_OK
            hk = [float(row.split(",")[1]) for row in read_noncomment(diag)[1:]]
            assert main(["diagnose", "--in", out, "--checkpoints", chk, "--out", diag,
                         "--k", "181"]) == EXIT_CONFIG
        assert [str(w.message) for w in caught] == []
        assert all(0 < h < np.inf for h in hk)

    def test_deterministic_output(self, tmp_path, config_file):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = str(tmp_path / name)
            assert main(["simulate", "--config", config_file, "--out", out,
                         "--seed", "7"]) == EXIT_OK
            with open(out) as fh:
                outs.append([l for l in fh if not l.startswith("# ")
                             or "date" not in l])
        assert read_noncomment(str(tmp_path / "a.csv")) == \
            read_noncomment(str(tmp_path / "b.csv"))

    def test_no_temp_files_left(self, tmp_path, config_file):
        out = str(tmp_path / "run.csv")
        assert main(["simulate", "--config", config_file, "--out", out]) == EXIT_OK
        leftovers = [n for n in os.listdir(tmp_path) if n not in ("run.csv", "run.cfg")
                     and not n.endswith(".dump.bpf")]
        assert leftovers == []

    def test_warnings_reported(self, tmp_path, capsys):
        # a vortex wider than the central half-box trips the boundary warning
        cfg = tmp_path / "wide.cfg"
        cfg.write_text(CONFIG + "init_width = 4.0\n")
        out, chk, diag = (str(tmp_path / name) for name in ("run.csv", "chk", "diag.csv"))
        assert main(["simulate", "--config", str(cfg), "--out", out,
                     "--checkpoints", chk]) == EXIT_OK
        assert main(["diagnose", "--in", out, "--checkpoints", chk, "--out", diag,
                     "--k", "3"]) == EXIT_OK
        line = "warnings: 6, first at t=0: boundary contamination"
        err = capsys.readouterr().err.splitlines()
        assert [e.startswith(line) for e in err] == [True, True]
        for path in (out, diag):
            with open(path) as fh:
                comments = [c for c in fh if c.startswith("# warnings")]
            assert len(comments) == 1 and comments[0].startswith("# " + line)

    def test_no_warnings_no_line(self, tmp_path, config_file, capsys):
        out = str(tmp_path / "run.csv")
        assert main(["simulate", "--config", config_file, "--out", out]) == EXIT_OK
        assert capsys.readouterr().err == ""
        with open(out) as fh:
            assert not any(line.startswith("# warnings") for line in fh)

    def test_report_not_finite_refused(self, tmp_path, capsys):
        # at k_energy = 0 the H^k norm is finite, but the weighted norms of
        # this amplitude overflow: the run is refused before any row is
        # written, and nothing warns
        cfg = tmp_path / "big.cfg"
        cfg.write_text(CONFIG + "k_energy = 0\neps = 1e154\n")
        out = str(tmp_path / "run.csv")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["simulate", "--config", str(cfg), "--out", out]) == EXIT_CONFIG
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == "configuration error: norm report not finite at t=0.0\n"
        assert not os.path.exists(out)

    def test_out_of_memory_is_a_runtime_error(self, tmp_path, config_file, capsys,
                                              monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 8.00 GiB for an array")
        monkeypatch.setattr(solver, "run", exhausted)
        out = str(tmp_path / "run.csv")
        assert main(["simulate", "--config", config_file, "--out", out]) == EXIT_RUNTIME
        assert capsys.readouterr().err == \
            "runtime error: Unable to allocate 8.00 GiB for an array\n"

    def test_handoff_is_exact(self, tmp_path):
        # every config key and each checkpoint time reach diagnose unrounded,
        # so it unwinds the profiles with the very beta and t of the run
        cfg = tmp_path / "exact.cfg"
        cfg.write_text(CONFIG.replace("beta = 1.0", "beta = 1.23456789")
                       + "init_width = 1.3\noutput_stride = 3\nnonlinear = true\n")
        out, chk, diag = (str(tmp_path / name) for name in ("run.csv", "chk", "diag.csv"))
        assert main(["simulate", "--config", str(cfg), "--out", out,
                     "--checkpoints", chk]) == EXIT_OK
        with open(out) as fh:
            header = [line for line in fh if line.startswith("# config-line: ")]
        assert "# config-line: beta=1.23456789\n" in header
        assert "# config-line: init_width=1.3\n" in header
        assert "# config-line: output_stride=3\n" in header
        assert any(name.endswith("_t=0.30000000000000004.bpf") for name in os.listdir(chk))
        assert main(["diagnose", "--in", out, "--checkpoints", chk, "--out", diag,
                     "--k", "3"]) == EXIT_OK
        sim_rows = [line.strip().split(",") for line in read_noncomment(out)]
        diag_rows = [line.strip().split(",") for line in read_noncomment(diag)]
        assert len(sim_rows) == len(diag_rows) == 6      # header and t = 0 .. 0.5
        # the report norms pass through diagnose as written, byte for byte
        for name in ("t", "linf_omega", "weighted2", "weighted3", "fhat_sup2"):
            col_s, col_d = sim_rows[0].index(name), diag_rows[0].index(name)
            assert [a[col_s] for a in sim_rows[1:]] == [b[col_d] for b in diag_rows[1:]]

    def test_diagnose_builds_no_report(self, tmp_path, config_file, monkeypatch):
        # the norm reports come from the run CSV; the checkpoints only add
        # the H^k norm at --k
        out, chk, diag = (str(tmp_path / name) for name in ("run.csv", "chk", "diag.csv"))
        assert main(["simulate", "--config", config_file, "--out", out,
                     "--checkpoints", chk]) == EXIT_OK

        def refuse(*args):
            raise AssertionError("diagnose called make_report")
        monkeypatch.setattr(solver, "make_report", refuse)
        assert main(["diagnose", "--in", out, "--checkpoints", chk, "--out", diag,
                     "--k", "3"]) == EXIT_OK
        assert len(read_noncomment(diag)) == 7      # columns and t = 0 .. 0.5

    def test_diagnose_reads_only_the_runs_checkpoints(self, tmp_path, config_file):
        # a longer run left later checkpoints in the directory; diagnose of
        # the short run reads the files its rows name and no others
        stale, clean = str(tmp_path / "stale"), str(tmp_path / "clean")
        long_cfg = tmp_path / "long.cfg"
        long_cfg.write_text(CONFIG.replace("t_end = 0.5", "t_end = 1.0"))
        assert main(["simulate", "--config", str(long_cfg), "--out", str(tmp_path / "a.csv"),
                     "--checkpoints", stale]) == EXIT_OK
        out = str(tmp_path / "b.csv")
        for chk in (stale, clean):
            assert main(["simulate", "--config", config_file, "--out", out,
                         "--checkpoints", chk]) == EXIT_OK
        diags = []
        for chk in (stale, clean):
            diags.append(tmp_path / f"diag-{os.path.basename(chk)}.csv")
            assert main(["diagnose", "--in", out, "--checkpoints", chk, "--out",
                         str(diags[-1]), "--k", "3"]) == EXIT_OK
        assert len(os.listdir(stale)) == 11 and len(os.listdir(clean)) == 6
        assert len(read_noncomment(str(diags[0]))) == 7      # columns and t = 0 .. 0.5
        assert diags[0].read_bytes() == diags[1].read_bytes()

    def test_checkpoints_of_another_run_named(self, tmp_path, config_file, capsys):
        # simulate names the count of chk_*.bpf files in --checkpoints that it
        # did not write; the exit code stays 0, and a repeat run warns nothing
        out, mixed, clean = (str(tmp_path / name) for name in ("run.csv", "mixed", "clean"))
        long_cfg = tmp_path / "long.cfg"
        long_cfg.write_text(CONFIG.replace("t_end = 0.5", "t_end = 1.0"))
        for cfg, chk, err in ((str(long_cfg), mixed, []), (config_file, mixed, [
                f"checkpoints: {mixed} holds 5 chk_*.bpf files that this run did not write"]),
                (config_file, clean, []), (config_file, clean, [])):
            assert main(["simulate", "--config", cfg, "--out", out,
                         "--checkpoints", chk]) == EXIT_OK
            assert capsys.readouterr().err.splitlines() == err
        assert len(os.listdir(mixed)) == 11 and len(os.listdir(clean)) == 6

    def test_diagnose_refuses_checkpoints_of_another_grid(self, tmp_path, config_file,
                                                          capsys):
        # an n=64 run with the same L, dt, t_end and stride overwrote the
        # n=32 run's checkpoints under the same names
        out, chk = str(tmp_path / "run.csv"), str(tmp_path / "chk")
        fine = tmp_path / "fine.cfg"
        fine.write_text(CONFIG.replace("n = 32", "n = 64"))
        for cfg, csv in ((config_file, out), (str(fine), str(tmp_path / "fine.csv"))):
            assert main(["simulate", "--config", cfg, "--out", csv,
                         "--checkpoints", chk]) == EXIT_OK
        capsys.readouterr()
        assert main(["diagnose", "--in", out, "--checkpoints", chk,
                     "--out", str(tmp_path / "diag.csv")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "(n=64, L=20.0)" in err and "(n=32, L=20.0)" in err

    @pytest.mark.parametrize("first, second", [
        ("", "init = pair\n"),
        ("init = pair\n", "init = pair\nbeta = 0.0\n"),
        ("init = pair\nnonlinear = false\n", "init = pair\nnonlinear = false\nbeta = 2.0\n"),
    ], ids=["gaussian-then-pair", "pair-beta-1-then-0", "linear-beta-1-then-2"])
    def test_diagnose_refuses_checkpoints_of_another_run(self, tmp_path, capsys, first,
                                                         second):
        # a run on the same grid, dt, t_end and stride overwrote the first
        # run's checkpoints under the same names; |omega|_Linf tells them apart
        chk, cfg = str(tmp_path / "chk"), tmp_path / "run.cfg"
        runs = [str(tmp_path / f"run{i}.csv") for i in range(2)]
        for run_csv, extra in zip(runs, (first, second)):
            cfg.write_text(CONFIG + extra)
            assert main(["simulate", "--config", str(cfg), "--out", run_csv,
                         "--checkpoints", chk]) == EXIT_OK
        capsys.readouterr()
        assert main(["diagnose", "--in", runs[0], "--checkpoints", chk,
                     "--out", str(tmp_path / "diag.csv")]) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "|omega|_Linf" in err and "chk_" in err and f"of {runs[0]}" in err
        assert main(["diagnose", "--in", runs[1], "--checkpoints", chk,
                     "--out", str(tmp_path / "diag.csv")]) == EXIT_OK

    def test_diagnose_refuses_a_checkpoint_with_a_mean(self, tmp_path, config_file, capsys):
        out, chk = str(tmp_path / "run.csv"), tmp_path / "chk"
        assert main(["simulate", "--config", config_file, "--out", out,
                     "--checkpoints", str(chk)]) == EXIT_OK
        path = chk / sorted(os.listdir(chk))[-1]
        field = read_field(path)
        write_field(path, RealField2D(field.grid, field.samples + 1e-3))
        assert main(["diagnose", "--in", out, "--checkpoints", str(chk),
                     "--out", str(tmp_path / "diag.csv")]) == EXIT_RUNTIME
        assert "nonzero mean" in capsys.readouterr().err

    def test_bad_config_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("n = 32\nL = twenty\n")
        rc = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_CONFIG

    def test_missing_config_exit_code(self, tmp_path):
        rc = main(["simulate", "--config", str(tmp_path / "nope.cfg"),
                   "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_CONFIG

    def test_aborted_run_exit_code(self, tmp_path, capsys):
        # dt far above the advective bound: the run stops at its first step,
        # and the CSV holds the report at t = 0 and the reason it printed;
        # diagnose prints and writes that reason, and certifies the one row
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 32\nL = 10.0\ninit = pair\neps = 5.0\ndt = 5.0\nt_end = 10.0\n"
                       "output_stride = 1\n")
        out, chk, diag = (str(tmp_path / name) for name in ("run.csv", "chk", "diag.csv"))
        assert main(["simulate", "--config", str(cfg), "--out", out,
                     "--checkpoints", chk]) == EXIT_RUNTIME
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(
            "run aborted: stability: dt=5.0 violates advective bound 6.136e-02 (try dt=")
        assert len(read_noncomment(out)) == 2
        note = err[0][len("run "):]
        with open(out) as fh:
            assert [c for c in fh if c.startswith("# aborted")] == [f"# {note}\n"]
        assert main(["diagnose", "--in", out, "--checkpoints", chk, "--out", diag]) == EXIT_OK
        assert capsys.readouterr().err.splitlines() == [note]
        with open(diag) as fh:
            assert [c for c in fh if c.startswith("# aborted")] == [f"# {note}\n"]

    @pytest.mark.parametrize("cell", ["inf", "nan"])
    def test_diagnose_refuses_a_report_not_finite(self, tmp_path, capsys, cell):
        # a norm report is finite wherever it is built: a run CSV with an
        # edited cell is refused as bad input, by name, before anything warns
        out = _finished_run_csv(tmp_path)
        with open(out) as fh:
            lines = fh.read().splitlines()
        col, row = NORM_REPORT_COLUMNS.index("linf_omega"), len(lines) - 1
        cells = lines[row].split(",")
        cells[col] = cell
        lines[row] = ",".join(cells)
        with open(out, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        assert main(["diagnose", "--in", out, "--checkpoints", str(tmp_path / "chk"),
                     "--out", str(tmp_path / "diag.csv")]) == EXIT_RUNTIME
        assert capsys.readouterr().err == \
            f"runtime error: run CSV {out}: norm report not finite at t=0.5\n"
        assert not os.path.exists(tmp_path / "diag.csv")


def _truncated_field_config(tmp_path):
    field = tmp_path / "init.bpf"
    write_field(field, RealField2D(Grid2D(32, 20.0), [[0.0] * 32] * 32))
    field.write_bytes(field.read_bytes()[:-8])
    cfg = tmp_path / "file.cfg"
    cfg.write_text(f"n = 32\nL = 20.0\nt_end = 0.1\ninit = file\ninit_file = {field}\n")
    return str(cfg)


def _init_file_config(n, box_length):
    """A fixture: a config on the grid (n, box_length) whose init_file holds
    a mean-free field on the grid (32, 10.0)."""
    def make(tmp_path):
        field = tmp_path / "init.bpf"
        write_field(field, transform_inverse(shell_field(Grid2D(32, 10.0))))
        cfg = tmp_path / "file.cfg"
        cfg.write_text(f"n = {n}\nL = {box_length}\nt_end = 0.1\ninit = file\n"
                       f"init_file = {field}\n")
        return str(cfg)
    return make


def _config_with(line):
    """A fixture: CONFIG with `line` appended, which overrides its key."""
    def make(tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG + line + "\n")
        return str(cfg)
    return make


def _finished_run_csv(tmp_path, lines=""):
    """A run CSV from simulate on CONFIG with `lines` appended, with its
    checkpoints in tmp_path/chk."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG + lines)
    out = str(tmp_path / "run.csv")
    assert main(["simulate", "--config", str(cfg), "--out", out,
                 "--checkpoints", str(tmp_path / "chk")]) == EXIT_OK
    return out


def _edited_run_csv(old, new):
    """A fixture: a finished run whose CSV has its last `old` replaced by `new`."""
    def make(tmp_path):
        out = _finished_run_csv(tmp_path)
        with open(out) as fh:
            head, _, tail = fh.read().rpartition(old)
        with open(out, "w") as fh:
            fh.write(head + new + tail)
        return out
    return make


def _ten_column_run_csv(tmp_path):
    """A finished run whose CSV lacks the linf_u2 column, as simulate wrote
    run CSVs before the column was added."""
    out = _finished_run_csv(tmp_path)
    with open(out) as fh:
        lines = fh.read().splitlines()
    col = NORM_REPORT_COLUMNS.index("linf_u2")
    with open(out, "w") as fh:
        for line in lines:
            cells = line.split(",")
            fh.write(line if line.startswith("#") else ",".join(cells[:col] + cells[col + 1:]))
            fh.write("\n")
    return out


def _init_file_with(*values):
    """A fixture: a config on the grid (32, 20.0) whose init_file holds a
    mean-free field with `values` in its first samples."""
    def make(tmp_path):
        samples = transform_inverse(shell_field(Grid2D(32, 20.0))).samples
        samples.flat[:len(values)] = values
        field = tmp_path / "init.bpf"
        write_field(field, RealField2D(Grid2D(32, 20.0), samples))
        cfg = tmp_path / "file.cfg"
        cfg.write_text(f"n = 32\nL = 20.0\nt_end = 0.1\ninit = file\ninit_file = {field}\n")
        return str(cfg)
    return make


def _run_csv_with_a_nan_checkpoint(tmp_path):
    out = _finished_run_csv(tmp_path)
    path = tmp_path / "chk" / "chk_00003_t=0.30000000000000004.bpf"
    samples = read_field(path).samples
    samples[7, 9] = np.nan
    write_field(path, RealField2D(Grid2D(32, 20.0), samples))
    return out


def _run_csv_missing_a_checkpoint(tmp_path):
    out = _finished_run_csv(tmp_path)
    (tmp_path / "chk" / "chk_00003_t=0.30000000000000004.bpf").unlink()
    return out


RUN_COLUMNS = ",".join(NORM_REPORT_COLUMNS) + "\n"


def _run_csv_without_config(tmp_path):
    path = tmp_path / "run.csv"
    path.write_text(RUN_COLUMNS + "0.0" + ",1.0" * 10 + "\n")
    return str(path)


def _run_csv_text(text):
    """A fixture: a run CSV whose header holds a config, then `text`."""
    def make(tmp_path):
        path = tmp_path / "run.csv"
        path.write_text("# config-line: n=32\n" + text)
        return str(path)
    return make


@pytest.mark.parametrize("argv, code", [
    (["resonance", "verify", "--id", "z"], EXIT_CONFIG),
    (["resonance", "verify", "--id", "dz"], EXIT_CONFIG),
    (["resonance", "classify"], EXIT_CONFIG),
    (["resonance", "classify", "--xi", "1,1"], EXIT_CONFIG),
    (["simulate", "--config", _truncated_field_config], EXIT_RUNTIME),
    (["resonance", "verify", "--n", "100"], EXIT_CONFIG),
    (["bootstrap", "--mu", "2"], EXIT_CONFIG),
    (["decay", "--n", "32", "--L", "20", "--t-min", "-1"], EXIT_CONFIG),
    (["decay", "--n", "32", "--L", "20", "--t-min", "0"], EXIT_CONFIG),
    (["decay", "--n", "32", "--L", "20", "--mu", "2"], EXIT_CONFIG),
    (["stphase", "--x-over-t", "a,b"], EXIT_CONFIG),
    (["stphase", "--x-over-t", "1,nan"], EXIT_CONFIG),
    (["stphase", "--x-over-t", "inf,0"], EXIT_CONFIG),
    (["simulate"], EXIT_CONFIG),
    (["decay", "--config", "x.cfg"], EXIT_CONFIG),
    (["diagnose", "--in", lambda p: str(p / "missing.csv"), "--checkpoints", str],
     EXIT_RUNTIME),
    (["diagnose", "--in", str, "--checkpoints", str], EXIT_RUNTIME),
    (["diagnose", "--in", _run_csv_text(RUN_COLUMNS), "--checkpoints",
      lambda p: str(p / "chk")], EXIT_RUNTIME),
    (["decay", "--j", "40", "--n", "32", "--L", "20"], EXIT_CONFIG),
    (["reproduce-all", "--only", "99"], EXIT_CONFIG),
    (["resonance", "verify", "--id", ""], EXIT_CONFIG),
    (["bootstrap", "--out", lambda p: str(p / "b.csv")], EXIT_CONFIG),
    (["resonance", "classify", "--xi", "1,1", "--eta", "1,0",
      "--out", lambda p: str(p / "c.csv")], EXIT_CONFIG),
    (["bootstrap", "--search", "--k", "5", "--eps", "1e-3", "--mu", "0.9"], EXIT_CONFIG),
    (["bootstrap", "--search", "--mu", "0.01"], EXIT_CONFIG),
    (["resonance", "verify", "--xi", "1,1"], EXIT_CONFIG),
    (["resonance", "classify", "--xi", "1,1", "--eta", "1,0", "--id", "q", "--n", "5"],
     EXIT_CONFIG),
    (["simulate", "--config", _config_with("k_energy = -1")], EXIT_CONFIG),
    (["diagnose", "--in", _finished_run_csv, "--checkpoints", lambda p: str(p / "chk"),
      "--k", "-1"], EXIT_CONFIG),
    (["diagnose", "--in", _run_csv_missing_a_checkpoint, "--checkpoints",
      lambda p: str(p / "chk")], EXIT_RUNTIME),
    (["diagnose", "--in", _run_csv_text(RUN_COLUMNS + "zero" + ",1.0" * 10 + "\n"),
      "--checkpoints", str], EXIT_RUNTIME),
    (["diagnose", "--in", _edited_run_csv(",weighted3,", ",w3,"), "--checkpoints",
      lambda p: str(p / "chk")], EXIT_RUNTIME),
    (["diagnose", "--in", _edited_run_csv("\n", ",1.0\n"), "--checkpoints",
      lambda p: str(p / "chk")], EXIT_RUNTIME),
    (["diagnose", "--in", lambda p: str(p / "missing.csv"), "--checkpoints", str,
      "--k", "-1"], EXIT_CONFIG),
    (["simulate", "--config", _config_with("L = nan")], EXIT_CONFIG),
    (["simulate", "--config", _config_with("L = inf")], EXIT_CONFIG),
    (["simulate", "--config", _config_with("beta = nan")], EXIT_CONFIG),
    (["simulate", "--config", _config_with("eps = inf")], EXIT_CONFIG),
    (["simulate", "--config", _config_with("init_width = nan")], EXIT_CONFIG),
    (["decay", "--n", "32", "--L", "nan"], EXIT_CONFIG),
    (["decay", "--n", "32", "--L", "20", "--t-max", "inf"], EXIT_CONFIG),
    (["bootstrap", "--M", "nan"], EXIT_CONFIG),
    (["bootstrap", "--M", "-1"], EXIT_CONFIG),
    (["simulate", "--config", _init_file_config(32, 20.0)], EXIT_CONFIG),
    (["simulate", "--config", _init_file_config(64, 10.0)], EXIT_CONFIG),
    (["simulate", "--config", _config_with("init_width = -3")], EXIT_CONFIG),
    (["bootstrap", "--eps", "inf"], EXIT_CONFIG),
    (["bootstrap", "--k", "inf"], EXIT_CONFIG),
    (["diagnose", "--in", _ten_column_run_csv, "--checkpoints", lambda p: str(p / "chk")],
     EXIT_RUNTIME),
    (["simulate", "--config", _config_with("nonlinear = on")], EXIT_CONFIG),
    (["reproduce-all", "--only"], EXIT_CONFIG),
    (["decay", "--n", "64", "--L", "1e160"], EXIT_CONFIG),
    (["decay", "--n", "64", "--L", "1e-160"], EXIT_CONFIG),
    (["simulate", "--config", _config_with("L = 1e160")], EXIT_CONFIG),
    (["simulate", "--config", _config_with("init_width = 1e200")], EXIT_CONFIG),
    (["decay", "--n", "32", "--L", "20", "--N", "inf"], EXIT_CONFIG),
    (["decay", "--n", "16", "--L", "20", "--N", "1e30"], EXIT_CONFIG),
    (["decay", "--n", "16", "--L", "20", "--N", "1e300"], EXIT_CONFIG),
    (["decay", "--n", "16", "--L", "20", "--N", "1e-300"], EXIT_CONFIG),
    (["decay", "--n", "16", "--L", "20", "--k", "2000"], EXIT_CONFIG),
    (["decay", "--n", "16", "--L", "20", "--k", "600"], EXIT_CONFIG),
    (["decay", "--n", "16", "--L", "20", "--j", "2000"], EXIT_CONFIG),
    (["simulate", "--config", _config_with("init_width = 1e-200")], EXIT_CONFIG),
    (["simulate", "--config", _config_with("init = pair\ninit_width = 1e-200")], EXIT_CONFIG),
    (["simulate", "--config", _config_with("init_width = 1e-160")], EXIT_CONFIG),
    (["simulate", "--config", _config_with("init = file")], EXIT_CONFIG),
    (["simulate", "--config", _config_with("output_stride = 0")], EXIT_CONFIG),
    (["diagnose", "--in", _run_csv_without_config, "--checkpoints", str], EXIT_RUNTIME),
    (["diagnose", "--in", _finished_run_csv, "--checkpoints", lambda p: str(p / "chk"),
      "--k", "181"], EXIT_CONFIG),
    (["diagnose", "--in", _finished_run_csv, "--checkpoints", lambda p: str(p / "chk"),
      "--k", "200"], EXIT_CONFIG),
    (["diagnose", "--in", _finished_run_csv, "--checkpoints", lambda p: str(p / "chk"),
      "--k", "300"], EXIT_CONFIG),
    (["diagnose", "--in", _finished_run_csv, "--checkpoints", lambda p: str(p / "chk"),
      "--k", "2000"], EXIT_CONFIG),
    (["diagnose", "--in", lambda p: _finished_run_csv(p, "L = 100.0\n"), "--checkpoints",
      lambda p: str(p / "chk"), "--k", "600"], EXIT_CONFIG),
    (["simulate", "--config", _config_with("k_energy = 400")], EXIT_CONFIG),
    (["simulate", "--config", _config_with("dt = 1e-30")], EXIT_CONFIG),
    (["simulate", "--config", _config_with("t_end = 1e30")], EXIT_CONFIG),
    (["simulate", "--config", _config_with("t_end = 1e300")], EXIT_CONFIG),
    (["simulate", "--config", _init_file_with(np.inf, -np.inf)], EXIT_RUNTIME),
    (["simulate", "--config", _init_file_with(np.nan)], EXIT_RUNTIME),
    (["diagnose", "--in", _run_csv_with_a_nan_checkpoint, "--checkpoints",
      lambda p: str(p / "chk")], EXIT_RUNTIME),
], ids=["unknown-id", "partly-unknown-ids", "classify-no-vectors", "classify-no-eta",
        "truncated-init-file", "too-few-samples", "mu-out-of-range", "negative-t-min",
        "zero-t-min", "decay-mu-out-of-range", "stphase-not-a-number", "stphase-nan",
        "stphase-inf", "simulate-no-config", "decay-config", "diagnose-in-missing",
        "diagnose-in-directory", "diagnose-checkpoints-missing", "decay-empty-shell",
        "unknown-criterion", "empty-id", "bootstrap-out", "classify-out",
        "search-with-point", "search-with-default-mu", "verify-xi", "classify-id-n",
        "simulate-negative-k-energy", "diagnose-negative-k", "diagnose-row-file-missing",
        "diagnose-row-bad-t", "diagnose-wrong-columns", "diagnose-row-12-values",
        "diagnose-negative-k-unread-in", "simulate-L-nan", "simulate-L-inf",
        "simulate-beta-nan", "simulate-eps-inf", "simulate-init-width-nan", "decay-L-nan",
        "decay-t-max-inf", "bootstrap-M-nan", "bootstrap-M-negative",
        "simulate-init-file-other-L", "simulate-init-file-other-n",
        "simulate-init-width-negative", "bootstrap-eps-inf", "bootstrap-k-inf",
        "diagnose-ten-column-run-csv", "simulate-nonlinear-on", "only-no-index",
        "decay-L-1e160", "decay-L-1e-160", "simulate-L-1e160", "simulate-init-width-1e200",
        "decay-N-inf", "decay-N-1e30", "decay-N-1e300", "decay-N-1e-300", "decay-k-2000",
        "decay-bound-nan", "decay-j-2000", "simulate-init-width-1e-200",
        "simulate-pair-init-width-1e-200", "simulate-init-width-1e-160",
        "simulate-init-file-unset", "simulate-output-stride-0", "diagnose-no-config-line",
        "diagnose-hk-181-overflows", "diagnose-hk-200-overflows", "diagnose-hk-300-overflows",
        "diagnose-k-2000", "diagnose-4k-600-overflows", "simulate-hk-400-overflows",
        "simulate-dt-1e-30-steps-uncountable", "simulate-t-end-1e30-steps-uncountable",
        "simulate-t-end-1e300-steps-uncountable", "simulate-init-file-inf",
        "simulate-init-file-nan", "diagnose-checkpoint-nan"])
def test_bad_input_exit_codes(tmp_path, argv, code):
    argv = [a(tmp_path) if callable(a) else a for a in argv]
    # --out only where the subcommand writes a file, so that each case fails
    # for the reason its id names; bootstrap and classify write none
    if argv[0] != "bootstrap" and argv[:2] != ["resonance", "classify"]:
        argv += ["--out", str(tmp_path / "out.csv")]
    assert main(argv) == code


@pytest.mark.parametrize("argv, code", [
    (["decay", "--n", "32", "--L", "20"], EXIT_CONFIG),
    (["simulate", "--config", "run.cfg"], EXIT_CONFIG),
    (["diagnose", "--in", "run.csv", "--checkpoints", "chk"], EXIT_CONFIG),
    (["decay", "--n", "32", "--L", "20", "--out", lambda p: str(p / "no-dir" / "out.csv")],
     EXIT_RUNTIME),
], ids=["decay-no-out", "simulate-no-out", "diagnose-no-out", "out-directory-missing"])
def test_bad_output_exit_codes(tmp_path, capsys, argv, code):
    # --out is required wherever a CSV is always written; an OSError is one line
    argv = [a(tmp_path) if callable(a) else a for a in argv]
    assert main(argv) == code
    if code == EXIT_RUNTIME:
        assert capsys.readouterr().err.startswith("runtime error: ")


@pytest.mark.parametrize("alias", ["gaussian-vortex", "shell-bump", "vortex-pair"])
def test_init_aliases_refused(tmp_path, alias):
    # only the documented init values gaussian, shell, pair and file are accepted
    with pytest.raises(ConfigurationError):
        parse_config(f"init={alias}")
    cfg = tmp_path / "alias.cfg"
    cfg.write_text(CONFIG.replace("init = gaussian", f"init = {alias}"))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) \
        == EXIT_CONFIG


def test_thread_cap_exported_before_numpy():
    # BPLAB_THREADS fills each thread variable that is unset when numpy is
    # first imported, and keeps one that is set
    spy = (
        "import os, sys\n"
        "seen = {}\n"
        "class Spy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'numpy' and not seen:\n"
        "            seen.update((v, os.environ.get(v)) for v in\n"
        "                        ('OMP_NUM_THREADS', 'OPENBLAS_NUM_THREADS', 'MKL_NUM_THREADS'))\n"
        "sys.meta_path.insert(0, Spy())\n"
        "import bplab.cli\n"
        "print(sorted(seen.items()))\n")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env.update(BPLAB_THREADS="3", OMP_NUM_THREADS="2")
    out = subprocess.run([sys.executable, "-c", spy], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out == str([("MKL_NUM_THREADS", "3"), ("OMP_NUM_THREADS", "2"),
                       ("OPENBLAS_NUM_THREADS", "3")]) + "\n"


SWEEP_VALUES = ("0", "1e300", "-1e300", "1e30", "1e-30", "600", "2000", "-600", "-2000")
SWEEP_OPTIONS = {
    ("decay", "--n", "16", "--L", "20"):
        ("--n", "--L", "--j", "--t-min", "--t-max", "--n-times", "--N", "--mu", "--k"),
    ("bootstrap",): ("--M", "--k", "--eps", "--mu"),
    ("stphase", "--x-over-t", "1,1"): ("--x-over-t",),
    ("resonance", "classify", "--xi", "1,1", "--eta", "1,0"): ("--xi", "--eta"),
}
SWEEP = [(base, option) for base, options in SWEEP_OPTIONS.items() for option in options]


@pytest.mark.parametrize("base, option", SWEEP, ids=[f"{b[0]}{o}" for b, o in SWEEP])
def test_extreme_values_never_raise(tmp_path, capsys, base, option):
    # each numeric option at each extreme value gives an exit code, never a
    # traceback or a warning; a vector option takes the value in both entries
    argv = list(base) + (["--out", str(tmp_path / "out.csv")] if base[0] == "decay" else [])
    codes, warned = {}, {}
    for value in SWEEP_VALUES:
        arg = f"{value},{value}" if option in ("--x-over-t", "--xi", "--eta") else value
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            codes[value] = main(argv + [option, arg])
        if caught:
            warned[value] = [str(w.message) for w in caught]
    capsys.readouterr()
    assert set(codes.values()) <= {EXIT_OK, EXIT_CONFIG, EXIT_RUNTIME}, codes
    assert warned == {}


SIMULATE_KEYS = ("n", "L", "beta", "dt", "t_end", "k_energy", "output_stride", "eps",
                 "init_width")


@pytest.mark.parametrize("key", SIMULATE_KEYS)
def test_simulate_extreme_values_never_raise(tmp_path, capsys, key):
    # each numeric config key at each extreme value gives an exit code, never
    # a traceback or a warning. A run that float64 cannot count would hang
    # the sweep instead, so its refusal is checked first
    for line in ("dt = 1e-30", "t_end = 1e30", "t_end = 1e300"):
        with pytest.raises(ConfigurationError, match=r"2\^53"):
            parse_config(CONFIG + line)
    codes, warned = {}, {}
    for value in SWEEP_VALUES:
        if key == "t_end" and value in ("600", "2000"):
            continue          # legal runs of 12000 and 40000 steps
        argv = ["simulate", "--config", _config_with(f"{key} = {value}")(tmp_path),
                "--out", str(tmp_path / "out.csv")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            codes[value] = main(argv)
        if caught:
            warned[value] = [str(w.message) for w in caught]
    capsys.readouterr()
    assert set(codes.values()) <= {EXIT_OK, EXIT_CONFIG, EXIT_RUNTIME}, codes
    assert warned == {}


class TestStphase:
    def test_prints_roots(self, capsys, tmp_path):
        out = str(tmp_path / "st.csv")
        assert main(["stphase", "--x-over-t=-1,0", "--out", out]) == EXIT_OK
        text = capsys.readouterr().out
        assert "2 stationary point(s)" in text
        assert len(read_noncomment(out)) == 3  # header plus two roots

    def test_vector_parse_error(self, tmp_path):
        assert main(["stphase", "--x-over-t", "1"]) == EXIT_CONFIG


class TestDecay:
    def test_small_run(self, tmp_path):
        out = str(tmp_path / "decay.csv")
        rc = main(["decay", "--n", "64", "--L", "50", "--t-min", "5",
                   "--t-max", "20", "--n-times", "4", "--out", out])
        assert rc == EXIT_OK
        rows = read_noncomment(out)
        assert rows[0].strip() == "t,sup_norm,besov311,t_times_sup,bound_lemma52"
        assert len(rows) == 5

    def test_numbers_match_the_library(self, tmp_path):
        # the rows share decay_curve's sup norms and Besov norm, and equal
        # the norms computed afresh
        out = str(tmp_path / "decay.csv")
        assert main(["decay", "--n", "64", "--L", "50", "--t-min", "5",
                     "--t-max", "20", "--n-times", "4", "--out", out]) == EXIT_OK
        data = shell_field(Grid2D(64, 50.0), 0)
        times = np.geomspace(5.0, 20.0, 4)
        fit = propagator.decay_curve(data, times)
        rows = [line.strip().split(",") for line in read_noncomment(out)[1:]]
        for row, t in zip(rows, times):
            assert float(row[0]) == t
            assert float(row[1]) == linf_norm(propagator.apply_semigroup(data, t))
            assert float(row[2]) == besov_norm(data)
        with open(out) as fh:
            fitted = [line for line in fh if line.startswith("# fitted")]
        assert fitted == [f"# fitted exponent={fit.exponent:.6f} constant={fit.constant:.6g} "
                          f"c_emp={fit.c_emp:.6g}\n"]

    def test_large_k_with_a_finite_bound(self, tmp_path):
        # 2^k N^-k |f|_H^(3+k) stays finite at k = 600 on this grid
        out = str(tmp_path / "decay.csv")
        assert main(["decay", "--n", "64", "--k", "600", "--out", out]) == EXIT_OK
        bounds = [float(line.split(",")[4]) for line in read_noncomment(out)[1:]]
        assert len(bounds) == 8 and all(0 < b < np.inf for b in bounds)

    def test_bound_column_is_the_per_time_bound(self, tmp_path):
        # the three t-independent norms are computed once for all times; the
        # bound at each time equals a call with that time alone, bitwise
        out = str(tmp_path / "decay.csv")
        assert main(["decay", "--n", "64", "--L", "50", "--t-min", "5", "--t-max", "20",
                     "--n-times", "4", "--N", "3", "--mu", "0.3", "--k", "3",
                     "--out", out]) == EXIT_OK
        data = shell_field(Grid2D(64, 50.0), 0)
        rows = [line.strip().split(",") for line in read_noncomment(out)[1:]]
        times = np.geomspace(5.0, 20.0, 4).tolist()
        assert [float(row[4]) for row in rows] == \
            [propagator.split_decay_bound(data, [t], 3.0, 0.3, 3)[0] for t in times]


class TestResonance:
    def test_classify(self, capsys):
        assert main(["resonance", "classify", "--xi", "1,1", "--eta", "1,0"]) == EXIT_OK
        assert "region = " in capsys.readouterr().out

    def test_verify_single_id(self, tmp_path, capsys):
        out = str(tmp_path / "res.csv")
        rc = main(["resonance", "verify", "--id", "d", "--n", "10000",
                   "--out", out, "--seed", "3"])
        assert rc == EXIT_OK
        assert "0 violations" in capsys.readouterr().out
        assert len(read_noncomment(out)) == 2

    def test_verify_runs_each_id_once(self, tmp_path, capsys):
        out = str(tmp_path / "res.csv")
        assert main(["resonance", "verify", "--id", "aa", "--n", "10000",
                     "--out", out]) == EXIT_OK
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == 1 and printed[0].startswith("id=a:")
        rows = read_noncomment(out)[1:]
        assert len(rows) == 1 and rows[0].startswith("a,")

    def test_classify_refuses_out(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert main(["resonance", "classify", "--xi", "1,1", "--eta", "1,0",
                     "--out", str(out)]) == EXIT_CONFIG
        assert "unrecognized arguments: --out" in capsys.readouterr().err
        assert not out.exists()

    def test_verify_writes_ratio_range(self, tmp_path, capsys):
        out = str(tmp_path / "res.csv")
        assert main(["resonance", "verify", "--id", "d", "--n", "10000",
                     "--out", out]) == EXIT_OK
        assert "ratio range [" in capsys.readouterr().out
        header, row = (line.strip().split(",") for line in read_noncomment(out))
        values = dict(zip(header, row))
        lo, hi = float(values["constant_min"]), float(values["empirical_constant"])
        assert 0.5 <= lo <= hi <= 4.0


class TestBootstrap:
    def test_search(self, capsys):
        assert main(["bootstrap", "--search", "--M", "1.0"]) == EXIT_OK
        assert "feasible" in capsys.readouterr().out

    def test_explicit_point(self, capsys):
        rc = main(["bootstrap", "--k", "24", "--eps", "1e-160", "--mu", "0.03"])
        assert rc == EXIT_OK
        assert "all conditions satisfied" in capsys.readouterr().out

    def test_search_infeasible(self, capsys):
        assert main(["bootstrap", "--search", "--M", "5"]) == EXIT_RUNTIME
        assert capsys.readouterr().out == "infeasible in box\n"

    def test_cond1_margin_past_float64(self, capsys):
        # c(k) = 2^(2k) overflows float64 at k = 600: the margin is -inf, a verdict
        assert main(["bootstrap", "--k", "600"]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert "cond1: margin -inf (violated)" in out
        assert out[-1] == "not feasible at these parameters"


class TestReproduceAll:
    def test_failed_criterion_exit_code(self, capsys, monkeypatch):
        @acceptance._criterion(4, "forced failure")
        def criterion(seed=0):
            return False, {}

        monkeypatch.setattr(acceptance, "ALL_CRITERIA", [criterion])
        assert main(["reproduce-all"]) == EXIT_RUNTIME
        captured = capsys.readouterr()
        assert "criterion  4 [FAIL] forced failure" in captured.out
        assert captured.err == "failed criteria: [4]\n"

    def test_only_fast_criterion(self, capsys, tmp_path):
        out = str(tmp_path / "rep.csv")
        rc = main(["reproduce-all", "--only", "11", "--out", out])
        assert rc == EXIT_OK
        text = capsys.readouterr().out
        assert "criterion 11 [PASS]" in text
        assert len(read_noncomment(out)) == 2

    def test_details_sidecar_round_trips(self, tmp_path):
        out = str(tmp_path / "rep.csv")
        assert main(["reproduce-all", "--only", "8", "11", "--out", out]) == EXIT_OK
        with open(out + ".json") as fh:
            records = json.load(fh)
        assert [(r["criterion"], r["verdict"]) for r in records] == [(8, "PASS"), (11, "PASS")]
        for rec, crit in zip(records, (acceptance.criterion_8, acceptance.criterion_11)):
            want = crit()
            assert rec["name"] == want.name
            assert rec["details"] == want.details
            assert isinstance(rec["seconds"], float)
        assert not [p for p in os.listdir(tmp_path) if p.startswith(".tmp-")]

    def test_sidecar_is_strict_json(self, tmp_path, monkeypatch):
        # criterion 7 reports ids without a ratio with a NaN empirical_constant;
        # the sidecar writes it, and any infinity, as null
        @acceptance._criterion(1, "non-finite details")
        def criterion(seed=0):
            details = {"a": {"violations": 0, "empirical_constant": np.float64("nan")},
                       "range": (0.5, float("nan")), "c": {2: np.inf}}
            return True, details

        def refuse(token):
            raise ValueError(f"bare {token} in the sidecar")

        monkeypatch.setattr(acceptance, "ALL_CRITERIA", [criterion])
        out = str(tmp_path / "rep.csv")
        assert main(["reproduce-all", "--out", out]) == EXIT_OK
        with open(out + ".json") as fh:
            records = json.loads(fh.read(), parse_constant=refuse)
        assert records[0]["details"] == {"a": {"violations": 0, "empirical_constant": None},
                                         "range": [0.5, None], "c": {"2": None}}

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_output_mode_follows_umask(self, tmp_path, umask, mode):
        out = str(tmp_path / "rep.csv")
        old = os.umask(umask)
        try:
            assert main(["reproduce-all", "--only", "8", "--out", out]) == EXIT_OK
        finally:
            os.umask(old)
        for path in (out, out + ".json"):
            assert os.stat(path).st_mode & 0o777 == mode
