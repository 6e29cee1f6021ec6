"""The ``repro run`` subcommand, the density-aware advise options, and
the bad ``serve`` / ``catalog`` flag values."""

import json

import pytest

from repro.cli import main

A4_SOURCE = """
input A(n, n);
B := A * A;
C := B * B;
output C;
"""


@pytest.fixture
def a4_file(tmp_path):
    path = tmp_path / "a4.lvw"
    path.write_text(A4_SOURCE)
    return str(path)


class TestRun:
    def test_dense_small_selects_dense_backend(self, a4_file, capsys):
        assert main(["run", a4_file, "--dims", "n=48", "--updates", "8"]) == 0
        out = capsys.readouterr().out
        assert "backend  : dense" in out
        assert "strategy : INCR" in out
        assert "FLOPs" in out

    def test_sparse_graph_selects_sparse_backend(self, a4_file, capsys):
        pytest.importorskip("scipy")
        assert main(["run", a4_file, "--dims", "n=256", "--density", "0.01",
                     "--updates", "4"]) == 0
        out = capsys.readouterr().out
        assert "backend  : sparse" in out

    def test_forced_plan_and_backend(self, a4_file, capsys):
        pytest.importorskip("scipy")
        assert main(["run", a4_file, "--dims", "n=24", "--updates", "4",
                     "--plan", "reeval", "--backend", "sparse"]) == 0
        out = capsys.readouterr().out
        assert "strategy : REEVAL" in out
        assert "backend  : sparse" in out

    def test_codegen_mode_and_rank(self, a4_file, capsys):
        # Force INCR: at n=24 the overhead-aware planner prefers REEVAL.
        assert main(["run", a4_file, "--dims", "n=24", "--updates", "6",
                     "--rank", "2", "--plan", "incr",
                     "--mode", "codegen", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["plan"]["mode"] == "codegen"
        # --updates counts update events regardless of their rank.
        assert data["updates"] == 6

    def test_replan_flag_reports_events(self, a4_file, capsys):
        assert main(["run", a4_file, "--dims", "n=64", "--updates", "12",
                     "--replan", "4", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert "replans" in data  # monitor attached; events may be empty

    def test_json_output(self, a4_file, capsys):
        assert main(["run", a4_file, "--dims", "n=24", "--updates", "4",
                     "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["plan"]["strategy"] in ("INCR", "REEVAL")
        assert data["updates"] == 4
        assert data["total_flops"] > 0
        assert "matmul_into" in data["flops_by_op"]

    def test_codegen_reports_the_interpret_ledger(self, a4_file, capsys):
        """Both modes run the same kernels, and the kernels charge."""
        ledgers = []
        for mode in ("interpret", "codegen"):
            assert main(["run", a4_file, "--dims", "n=24", "--updates", "6",
                         "--plan", "incr", "--mode", mode, "--json"]) == 0
            data = json.loads(capsys.readouterr().out)
            assert data["plan"]["mode"] == mode
            ledgers.append({key: data[key] for key in
                            ("flops_by_op", "total_flops", "setup_flops")})
        assert ledgers[0] == ledgers[1]
        assert ledgers[0]["total_flops"] > 0

    def test_auto_plan_reports_flops(self, a4_file, capsys):
        assert main(["run", a4_file, "--dims", "n=48", "--updates", "300",
                     "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["total_flops"] > 0
        assert data["total_flops"] == sum(data["flops_by_op"].values())

    def test_unbound_dimension_reported(self, a4_file, capsys):
        assert main(["run", a4_file]) == 2
        assert "--dims" in capsys.readouterr().err

    def test_unknown_input_reported(self, a4_file, capsys):
        assert main(["run", a4_file, "--dims", "n=16", "--input", "Z"]) == 2
        assert "Z" in capsys.readouterr().err

    def test_zero_updates_rejected(self, a4_file, capsys):
        assert main(["run", a4_file, "--dims", "n=16", "--updates", "0"]) == 2
        assert "--updates" in capsys.readouterr().err

    def test_oversized_rank_rejected(self, a4_file, capsys):
        assert main(["run", a4_file, "--dims", "n=4", "--rank", "8"]) == 2
        assert "--rank" in capsys.readouterr().err

    def test_forced_batch_width_reports_compression(self, a4_file, capsys):
        assert main(["run", a4_file, "--dims", "n=24", "--updates", "9",
                     "--batch", "4", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["batch"]["width"] == 4
        assert data["batch"]["updates"] == 9
        assert data["batch"]["flushes"] >= 2
        assert data["batch"]["compression"] >= 1.0

    def test_batch_off_disables_batching(self, a4_file, capsys):
        assert main(["run", a4_file, "--dims", "n=24", "--updates", "4",
                     "--batch", "off"]) == 0
        assert "batch    : off" in capsys.readouterr().out

    def test_batch_auto_prints_plan_width(self, a4_file, capsys):
        assert main(["run", a4_file, "--dims", "n=24", "--updates", "40",
                     "--batch", "auto"]) == 0
        out = capsys.readouterr().out
        assert "batch    :" in out

    def test_invalid_batch_rejected(self, a4_file, capsys):
        assert main(["run", a4_file, "--dims", "n=16", "--batch", "maybe"]) == 2
        assert "--batch" in capsys.readouterr().err
        assert main(["run", a4_file, "--dims", "n=16", "--batch", "0"]) == 2


@pytest.mark.parametrize("argv", [
    ("serve", "--max-queue", "-1"),
    ("serve", "--duration", "-1"),
    ("serve", "--readers", "0"),
    ("serve", "--max-age", "0"),
    ("catalog", "--memory-budget", "-5"),
], ids=" ".join)
def test_bad_serve_and_catalog_flags_exit_2(a4_file, capsys, argv):
    """A flag value the serving layer or the catalog rejects is a usage
    error, reported like every other one: no traceback."""
    command, *flags = argv
    assert main([command, a4_file, "--dims", "n=8", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


class TestAdviseDensity:
    def test_density_adds_backend_axis(self, capsys):
        pytest.importorskip("scipy")
        assert main(["advise", "powers", "--n", "2000", "--k", "16",
                     "--density", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "@sparse" in out
        assert "nnz-aware grid" in out

    def test_json_ranking(self, capsys):
        assert main(["advise", "general", "--n", "500", "--p", "1",
                     "--k", "8", "--density", "0.05", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["computation"] == "general"
        assert data["ranking"]
        assert {"label", "backend", "time"} <= set(data["ranking"][0])

    def test_classic_table2_output_unchanged(self, capsys):
        assert main(["advise", "powers", "--n", "1000", "--k", "16"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "@sparse" not in out
