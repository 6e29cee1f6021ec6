"""The ``python -m repro`` compiler CLI."""

import pytest

import repro.compiler.compile as compile_mod
from repro.cli import main
from repro.compiler import compiled_program
from repro.compiler.codegen import (
    fused,
    generate_octave_trigger,
    generate_python_trigger,
    generate_spark_trigger,
)
from repro.frontend import parse_program

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


TWO_INPUT_SOURCE = """
input A(n, n);
input D(n, n);
B := A * D;
C := B * A;
output C;
"""

OLS_XY_SOURCE = """
input X(m, n);
input Y(m, p);
beta := inv(X' * X) * (X' * Y);
output beta;
"""

PROGRAMS = {"chain": A4_SOURCE, "two_inputs": TWO_INPUT_SOURCE,
            "ols": OLS_XY_SOURCE}

#: ``repro compile --backend`` -> the printer it applies to one input's form.
PRINTERS = {
    "trigger": str,
    "octave": generate_octave_trigger,
    "spark": generate_spark_trigger,
    "python": generate_python_trigger,
}


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

    @pytest.mark.parametrize("rank", ["0", "-1"])
    def test_rank_below_one_rejected(self, a4_file, capsys, rank):
        assert main(["compile", a4_file, "--rank", rank]) == 2
        captured = capsys.readouterr()
        assert "update rank must be at least 1" in captured.err
        assert "ON UPDATE" not in captured.out

    def test_optimize_flag_removed(self, a4_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compile", a4_file, "--optimize"])
        assert exc.value.code == 2
        assert "--optimize" in capsys.readouterr().err

    @pytest.mark.parametrize("backend", sorted(PRINTERS))
    @pytest.mark.parametrize("program", sorted(PROGRAMS))
    def test_prints_the_memoized_artifact(self, tmp_path, capsys, program,
                                          backend):
        """Every printer reads ``compiled_program(program, rank)``: the AST
        printers its Algorithm 1 triggers, python the lowered list
        sessions run, one input after another in name order."""
        path = tmp_path / f"{program}.lvw"
        path.write_text(PROGRAMS[program])
        assert main(["compile", str(path), "--backend", backend,
                     "--rank", "2"]) == 0
        compiled = compiled_program(parse_program(PROGRAMS[program]), 2)
        forms = [compiled.lowered(name) if backend == "python"
                 else compiled.triggers[name]
                 for name in sorted(compiled.triggers)]
        expected = "\n\n".join(PRINTERS[backend](form) for form in forms)
        assert capsys.readouterr().out == expected + "\n"

    @pytest.mark.parametrize("backend", sorted(PRINTERS))
    def test_one_algorithm_1_run(self, tmp_path, capsys, monkeypatch,
                                 backend):
        """One compile runs Algorithm 1 once, for the input it prints,
        and lowers only the triggers the python printer prints."""
        counts = {"compile": 0, "lower": 0}
        real_compile, real_lower = (compile_mod._compile_for_input,
                                    fused.lower_trigger)

        def compile_(*args, **kwargs):
            counts["compile"] += 1
            return real_compile(*args, **kwargs)

        def lower(trigger):
            counts["lower"] += 1
            return real_lower(trigger)

        monkeypatch.setattr(compile_mod, "_compile_for_input", compile_)
        monkeypatch.setattr(fused, "lower_trigger", lower)
        path = tmp_path / "two.lvw"
        path.write_text(TWO_INPUT_SOURCE)
        assert main(["compile", str(path), "--backend", backend,
                     "--input", "D"]) == 0
        assert counts == {"compile": 1,
                          "lower": 1 if backend == "python" else 0}
        # ``--rank`` defaults to 1, the width the printers show.
        compiled = compiled_program(parse_program(TWO_INPUT_SOURCE), 1)
        form = (compiled.lowered("D") if backend == "python"
                else compiled.triggers["D"])
        assert capsys.readouterr().out == PRINTERS[backend](form) + "\n"

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
