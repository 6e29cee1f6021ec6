"""CLI extensions: spark backend, --dims chain ordering, advise command."""

import pytest

from repro.cli import main

A4_SOURCE = """
input A(n, n);
B := A * A;
C := B * B;
output C;
"""

CHAIN_SOURCE = """
input A(n, n);
input v(n, 1);
w := A * A * v;
output w;
"""


@pytest.fixture
def a4_file(tmp_path):
    path = tmp_path / "a4.lvw"
    path.write_text(A4_SOURCE)
    return str(path)


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain.lvw"
    path.write_text(CHAIN_SOURCE)
    return str(path)


class TestSparkBackend:
    def test_emits_scala_trigger(self, a4_file, capsys):
        assert main(["compile", a4_file, "--backend", "spark"]) == 0
        out = capsys.readouterr().out
        assert "def onUpdateA(" in out
        assert "sc.broadcast(u_A)" in out
        assert "blockwiseAdd" in out

    def test_spark_filters_inputs(self, chain_file, capsys):
        assert main(["compile", chain_file, "--backend", "spark",
                     "--input", "v"]) == 0
        out = capsys.readouterr().out
        assert "def onUpdatev(" in out and "def onUpdateA(" not in out


class TestDimsChainOrdering:
    def test_dims_accepted(self, chain_file, capsys):
        assert main(["compile", chain_file, "--dims", "n=512"]) == 0
        assert "ON UPDATE" in capsys.readouterr().out

    def test_malformed_dims_rejected(self, chain_file, capsys):
        assert main(["compile", chain_file, "--dims", "n:512"]) == 2
        assert "NAME=SIZE" in capsys.readouterr().err

    def test_unbound_dim_reported(self, chain_file, capsys):
        assert main(["compile", chain_file, "--dims", "m=4"]) == 2
        assert "unbound dimension" in capsys.readouterr().err

    def test_python_backend_rejects_dims(self, chain_file, capsys):
        """Sessions never re-associate products, so the lowered list the
        python backend prints has no chain order to choose."""
        assert main(["compile", chain_file, "--backend", "python",
                     "--dims", "n=512"]) == 2
        captured = capsys.readouterr()
        assert "--dims" in captured.err and "python" in captured.err
        assert captured.out == ""

    def test_dims_reassociates_vector_chain(self, chain_file, capsys):
        # The w view's reconstruction references A * A * v; with dims
        # bound the update statement for w must keep matrix-vector
        # association (no bare "A * A" subchain).
        assert main(["compile", chain_file, "--dims", "n=512",
                     "--backend", "octave"]) == 0
        out = capsys.readouterr().out
        assert "A*(A*" in out.replace(" ", "") or "A*A" not in out.replace(" ", "")


class TestAdvise:
    def test_powers_recommendation(self, capsys):
        assert main(["advise", "powers", "--n", "10000", "--k", "16"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[2].split()[1] == "INCR-EXP"
        assert "predicted gain" in out

    def test_general_p1_recommends_hybrid(self, capsys):
        assert main(["advise", "general", "--n", "30000", "--p", "1",
                     "--k", "16"]) == 0
        out = capsys.readouterr().out
        assert "HYBRID" in out.splitlines()[2]

    def test_memory_budget_flag(self, capsys):
        assert main(["advise", "powers", "--n", "1000", "--k", "16",
                     "--memory-budget", "3000000"]) == 0
        out = capsys.readouterr().out
        assert "REEVAL" in out.splitlines()[2]

    def test_impossible_budget_errors(self, capsys):
        assert main(["advise", "powers", "--n", "1000", "--k", "16",
                     "--memory-budget", "10"]) == 2
        assert "no configuration fits" in capsys.readouterr().err

    def test_top_limits_rows(self, capsys):
        assert main(["advise", "powers", "--n", "100", "--k", "16",
                     "--top", "2"]) == 0
        out = capsys.readouterr().out
        ranked_rows = [line for line in out.splitlines()
                       if line and line[0].isdigit()]
        assert len(ranked_rows) == 2

    def test_gamma_changes_reeval_cost(self, capsys):
        # With gamma -> 2 (hypothetical optimal matmul), re-evaluation
        # catches up; the advisor must reflect that.
        assert main(["advise", "powers", "--n", "100", "--k", "64",
                     "--gamma", "2.0"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[2].split()[1].startswith("REEVAL")
