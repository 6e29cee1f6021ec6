"""The ``python -m repro`` compiler CLI."""

import pytest

from repro.cli import main

A4_SOURCE = """
input A(n, n);
B := A * A;
C := B * B;
output C;
"""

OLS_SOURCE = """
input X(m, n);
beta := inv(X' * X) * (X' * eye(m)) ;
output beta;
"""


@pytest.fixture
def a4_file(tmp_path):
    path = tmp_path / "a4.lvw"
    path.write_text(A4_SOURCE)
    return str(path)


class TestShow:
    def test_show_prints_program(self, a4_file, capsys):
        assert main(["show", a4_file]) == 0
        out = capsys.readouterr().out
        assert "B := A * A;" in out and "output: C" in out

    def test_missing_file(self, capsys):
        assert main(["show", "/nonexistent.lvw"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_syntax_error_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.lvw"
        path.write_text("input A(n, n); B := A *;")
        assert main(["show", str(path)]) == 2
        err = capsys.readouterr().err
        assert "error" in err and "line" in err


class TestCompile:
    def test_default_trigger_backend(self, a4_file, capsys):
        assert main(["compile", a4_file]) == 0
        out = capsys.readouterr().out
        assert "ON UPDATE A BY (u_A, v_A):" in out
        assert "U_B := [u_A, A * u_A + u_A * (v_A' * u_A)];" in out

    def test_python_backend(self, a4_file, capsys):
        assert main(["compile", a4_file, "--backend", "python"]) == 0
        out = capsys.readouterr().out
        assert "def on_update_A(views, u_A, v_A):" in out
        assert "U_B = _hstack(u_A, _t4, _b3)" in out

    def test_octave_backend(self, a4_file, capsys):
        assert main(["compile", a4_file, "--backend", "octave"]) == 0
        out = capsys.readouterr().out
        assert "function on_update_A(u_A, v_A)" in out

    def test_input_filter(self, tmp_path, capsys):
        path = tmp_path / "two.lvw"
        path.write_text("input A(n, n); input B(n, n); C := A * B;")
        assert main(["compile", str(path), "--input", "B"]) == 0
        out = capsys.readouterr().out
        assert "ON UPDATE B" in out and "ON UPDATE A" not in out

    def test_unknown_input_rejected(self, a4_file, capsys):
        assert main(["compile", a4_file, "--input", "Q"]) == 2
        assert "Q" in capsys.readouterr().err

    def test_rank_option(self, a4_file, capsys):
        assert main(["compile", a4_file, "--rank", "3"]) == 0
        out = capsys.readouterr().out
        assert "eye(3)" not in out  # no inversion here, just sanity
        assert "ON UPDATE A" in out

    def test_optimize_flag(self, a4_file, capsys):
        assert main(["compile", a4_file, "--optimize"]) == 0
        assert "ON UPDATE A" in capsys.readouterr().out

    def test_materialize_inversions_flag(self, tmp_path, capsys):
        path = tmp_path / "ols.lvw"
        path.write_text(
            "input X(m, n);\ninput Y(m, p);\n"
            "beta := inv(X' * X) * (X' * Y);\noutput beta;\n"
        )
        assert main(["compile", str(path), "--materialize-inversions",
                     "--input", "X"]) == 0
        out = capsys.readouterr().out
        assert "inv1" in out
        assert "after inverse materialization" in out
