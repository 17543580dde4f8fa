import os

import pytest

from bplab.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from bplab.spectral import Grid2D, RealField2D, write_field

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

    def test_bad_config_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("n = 32\nL = twenty\n")
        rc = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_CONFIG

    def test_missing_config_exit_code(self, tmp_path):
        rc = main(["simulate", "--config", str(tmp_path / "nope.cfg"),
                   "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_CONFIG


def _truncated_field_config(tmp_path):
    field = tmp_path / "init.bpf"
    write_field(field, RealField2D(Grid2D(32, 20.0), [[0.0] * 32] * 32))
    field.write_bytes(field.read_bytes()[:-8])
    cfg = tmp_path / "file.cfg"
    cfg.write_text(f"n = 32\nL = 20.0\nt_end = 0.1\ninit = file\ninit_file = {field}\n")
    return str(cfg)


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
], ids=["unknown-id", "partly-unknown-ids", "classify-no-vectors", "classify-no-eta",
        "truncated-init-file", "too-few-samples", "mu-out-of-range", "negative-t-min",
        "zero-t-min", "decay-mu-out-of-range"])
def test_bad_input_exit_codes(tmp_path, argv, code):
    argv = [a(tmp_path) if callable(a) else a for a in argv]
    assert main(argv + ["--out", str(tmp_path / "out.csv")]) == code


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


class TestReproduceAll:
    def test_only_fast_criterion(self, capsys, tmp_path):
        out = str(tmp_path / "rep.csv")
        rc = main(["reproduce-all", "--only", "11", "--out", out])
        assert rc == EXIT_OK
        text = capsys.readouterr().out
        assert "criterion 11 [PASS]" in text
        assert len(read_noncomment(out)) == 2
