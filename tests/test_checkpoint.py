"""Checkpoint/restore: format, manager fallback, bitwise round-trips.

The load-bearing claim (ROADMAP: fault tolerance) is *exactness*:
restoring the newest valid snapshot and replaying the logged tail must
land on state **bitwise identical** to the live session — across every
plan axis (backend x mode x batch x partition), because batching and
heavy-light deferral change summation order and a checkpoint that
forgets them restores to merely-close state that then drifts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.compiler import Program, Statement
from repro.expr.ast import MatrixSymbol, matmul, transpose
from repro.runtime.checkpoint import (
    CheckpointCorruptError,
    CheckpointError,
    CheckpointManager,
    Checkpointer,
    deserialize_state,
    load_checkpoint,
    capture_session,
    rebuild_session,
    restore_session,
    serialize_state,
    write_checkpoint,
)
from repro.runtime.session import IVMSession, open_session
from repro.runtime.updates import FactoredUpdate
from repro.testing import faults

N = 24


def gram_chain(n: int = N) -> Program:
    a = MatrixSymbol("A", n, n)
    v = MatrixSymbol("V", n, n)
    w = MatrixSymbol("W", n, n)
    return Program([a], [Statement(v, matmul(transpose(a), a)),
                         Statement(w, matmul(v, v))], outputs=("W",))


def stream(count: int, n: int = N, seed: int = 3, rank: int = 1):
    rng = np.random.default_rng(seed)
    return [
        FactoredUpdate("A", 0.01 * rng.standard_normal((n, rank)),
                       rng.standard_normal((n, rank)))
        for _ in range(count)
    ]


def operator(n: int = N, seed: int = 9) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return 0.4 * rng.standard_normal((n, n)) / np.sqrt(n)


class TestFormat:
    def test_round_trip(self):
        header = {"strategy": "INCR", "update_count": 7}
        arrays = {"A": np.arange(12.0).reshape(3, 4),
                  "V": np.eye(3)}
        got_header, got = deserialize_state(serialize_state(header, arrays))
        assert got_header["strategy"] == "INCR"
        assert got_header["update_count"] == 7
        for name in arrays:
            assert np.array_equal(arrays[name], got[name])

    @pytest.mark.parametrize("fraction", [0.0, 0.3, 0.6, 0.99])
    def test_any_truncation_is_detected(self, fraction):
        blob = serialize_state({"x": 1}, {"A": np.ones((8, 8))})
        torn = blob[: int(len(blob) * fraction)]
        with pytest.raises(CheckpointCorruptError):
            deserialize_state(torn)

    def test_bitflip_is_detected(self):
        blob = bytearray(serialize_state({"x": 1}, {"A": np.ones((8, 8))}))
        blob[len(blob) // 2] ^= 0x40
        with pytest.raises(CheckpointCorruptError):
            deserialize_state(bytes(blob))

    def test_bad_magic(self):
        with pytest.raises(CheckpointCorruptError):
            deserialize_state(b"NOPE" + b"\x00" * 64)

    @pytest.mark.parametrize("version", [1, 2, 99])
    def test_unsupported_version(self, version):
        """Version 1 is the pre-deferral-slot header, version 2 stores
        the build axes beside the plan instead of in it: refused, not
        mis-read."""
        blob = bytearray(serialize_state({}, {}))
        import hashlib
        import struct
        struct.pack_into("<I", blob, 4, version)
        body = bytes(blob[:-32])
        with pytest.raises(CheckpointError, match=f"version {version} "):
            deserialize_state(body + hashlib.sha256(body).digest())

    def test_write_is_atomic_no_tmp_left(self, tmp_path):
        path = write_checkpoint(tmp_path / "a.lvck", {"k": 1},
                                {"A": np.zeros((4, 4))})
        header, arrays = load_checkpoint(path)
        assert header["k"] == 1 and arrays["A"].shape == (4, 4)
        assert [p.name for p in tmp_path.iterdir()] == ["a.lvck"]


class TestManager:
    def test_keep_bound_prunes_oldest(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep=2)
        for i in range(5):
            manager.save({"i": i}, {"A": np.full((2, 2), float(i))})
        paths = manager.paths()
        assert len(paths) == 2
        _, header, _ = manager.latest()
        assert header["i"] == 4

    def test_latest_walks_past_corrupt_files(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep=4)
        manager.save({"i": 0}, {"A": np.zeros((2, 2))})
        good = manager.save({"i": 1}, {"A": np.ones((2, 2))})
        with faults.inject_faults() as injector:
            injector.inject("checkpoint.write", faults.truncate_bytes(0.5))
            manager.save({"i": 2}, {"A": np.full((2, 2), 2.0)})
        path, header, arrays = manager.latest()
        assert path == good and header["i"] == 1
        assert np.array_equal(arrays["A"], np.ones((2, 2)))

    def test_latest_none_when_all_corrupt(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        with faults.inject_faults() as injector:
            injector.inject("checkpoint.write", faults.truncate_bytes(0.2),
                            times=3)
            for i in range(3):
                manager.save({"i": i}, {"A": np.zeros((2, 2))})
        assert manager.latest() is None
        with pytest.raises(CheckpointError, match="no valid checkpoint"):
            restore_session(gram_chain(), tmp_path)


GRID = [
    # backend, mode, batch, partition  — the plan axes that change
    # summation order and therefore must survive a checkpoint.
    ("dense", "interpret", "off", "uniform"),
    ("dense", "codegen", "off", "uniform"),
    ("sparse", "interpret", "off", "uniform"),
    ("dense", "interpret", 3, "uniform"),
    ("dense", "codegen", 4, "uniform"),
    ("dense", "interpret", "off", "heavy-light"),
    ("dense", "interpret", 3, "heavy-light"),
]


class TestRoundTrip:
    @pytest.mark.parametrize("backend,mode,batch,partition", GRID)
    def test_restore_replay_is_bitwise(self, tmp_path, backend, mode,
                                       batch, partition):
        if backend == "sparse":
            pytest.importorskip("scipy")
        prog = gram_chain()
        a0 = operator()
        kwargs = {}
        if partition == "heavy-light":
            kwargs["heavy_budget"] = 4
        session = open_session(
            prog, {"A": a0}, plan="incr", backend=backend, mode=mode,
            batch=batch, partition=partition,
            checkpoint={"directory": tmp_path, "every": 8}, **kwargs)
        for update in stream(17):
            session.apply_update(update)
        live = {name: np.asarray(session[name]).copy() for name in ("V", "W")}
        checkpointer = session.checkpointer
        assert checkpointer.saves >= 2
        restored = session.restore()
        assert restored.update_count == session.update_count
        for name in live:
            assert np.array_equal(live[name], np.asarray(restored[name])), name
        # The restored session keeps maintaining identically.
        tail = stream(4, seed=8)
        for update in tail:
            session.apply_update(update)
            restored.apply_update(update)
        session.flush()
        restored.flush()
        for name in live:
            assert np.array_equal(np.asarray(session[name]),
                                  np.asarray(restored[name])), name

    @pytest.mark.parametrize("mode,rank,optimize", [
        ("codegen", 2, True), ("codegen", 2, False), ("interpret", 2, True)])
    def test_compile_axes_survive_a_direct_capture(self, mode, rank,
                                                   optimize):
        """The plan is the whole recipe: a directly built session's
        compile width and optimizer switch restore from the one-argument
        ``capture_session`` form, and the restored triggers keep
        summing in the live session's order."""
        prog = gram_chain()
        session = IVMSession(prog, {"A": operator()}, rank=rank,
                             optimize=optimize, mode=mode)
        for update in stream(5, rank=rank):
            session.apply_update(update)
        header, arrays = capture_session(session)
        assert "fused" not in header
        # A v3 file written while sessions had a ``fused`` switch still
        # carries it (here: its off position); it is read and ignored.
        header["fused"] = False
        restored = rebuild_session(prog, *deserialize_state(
            serialize_state(header, arrays)))
        assert restored.plan.label == session.plan.label
        assert restored.plan.rank == rank
        assert restored.plan.optimize is optimize
        assert str(restored.triggers["A"]) == str(session.triggers["A"])
        assert restored.triggers["A"].params[0].shape.cols == rank
        for update in stream(50, seed=8, rank=rank):
            session.apply_update(update)
            restored.apply_update(update)
        for name in ("V", "W"):
            assert np.array_equal(np.asarray(session[name]),
                                  np.asarray(restored[name])), name

    def test_cold_restore_resumes_update_count(self, tmp_path):
        prog = gram_chain()
        a0 = operator()
        session = open_session(prog, {"A": a0},
                               checkpoint={"directory": tmp_path, "every": 4})
        for update in stream(12):
            session.apply_update(update)
        session.checkpointer.checkpoint()
        want = {name: np.asarray(session[name]).copy() for name in ("V", "W")}
        # A brand-new process: only the program and the directory survive.
        cold = open_session(prog, {"A": a0},
                            checkpoint={"directory": tmp_path,
                                        "restore": True})
        assert cold.update_count == 12
        for name in want:
            assert np.array_equal(want[name], np.asarray(cold[name])), name

    def test_restore_true_without_snapshot_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="no valid checkpoint"):
            open_session(gram_chain(), {"A": operator()},
                         checkpoint={"directory": tmp_path / "empty",
                                     "restore": True})

    def test_restore_auto_falls_through_to_fresh(self, tmp_path):
        session = open_session(gram_chain(), {"A": operator()},
                               checkpoint={"directory": tmp_path / "empty",
                                           "restore": "auto"})
        assert session.update_count == 0
        assert session.checkpointer is not None

    def test_torn_final_write_falls_back_one_snapshot(self, tmp_path):
        prog = gram_chain()
        a0 = operator()
        session = open_session(prog, {"A": a0},
                               checkpoint={"directory": tmp_path, "every": 4})
        updates = stream(8)
        for update in updates[:4]:
            session.apply_update(update)
        good = {name: np.asarray(session[name]).copy() for name in ("V", "W")}
        with faults.inject_faults() as injector:
            injector.inject("checkpoint.write", faults.truncate_bytes(0.5))
            for update in updates[4:]:
                session.apply_update(update)
        assert injector.count("checkpoint.write") == 1
        # Crash-restart: the torn snapshot is skipped, recovery lands on
        # the update-4 boundary state.
        cold = restore_session(prog, tmp_path)
        assert cold.update_count == 4
        for name in good:
            assert np.array_equal(good[name], np.asarray(cold[name])), name

    def test_write_fault_fires_under_the_lazy_hook_import(self, tmp_path):
        """The fault hooks load with the checkpointer, not with the
        module: a fresh process that imported the checkpoint module has
        not loaded them, an opened checkpointing session has, and its
        first write still passes the ``checkpoint.write`` seam."""
        import json
        import os
        import subprocess
        import sys
        from pathlib import Path

        from repro.frontend import parse_program

        source = "input A(n, n); B := A * A; output B;"
        script = (
            "import json, sys, numpy\n"
            "import repro.runtime.checkpoint\n"
            "from repro.frontend import parse_program\n"
            "from repro.runtime.session import open_session\n"
            "from repro.runtime.updates import FactoredUpdate\n"
            "before = 'repro.testing.faults' in sys.modules\n"
            f"session = open_session(parse_program({source!r}),\n"
            "    {'A': numpy.eye(8)}, dims={'n': 8}, plan='incr', batch='off',\n"
            "    checkpoint={'directory': sys.argv[1], 'every': 2})\n"
            "opened = 'repro.testing.faults' in sys.modules\n"
            "from repro.testing import faults\n"
            "with faults.inject_faults() as injector:\n"
            "    injector.inject('checkpoint.write', faults.truncate_bytes(0.5))\n"
            "    for _ in range(2):\n"
            "        session.apply_update(FactoredUpdate(\n"
            "            'A', numpy.ones((8, 1)), numpy.ones((8, 1))))\n"
            "print(json.dumps({'before': before, 'opened': opened,\n"
            "                  'hits': injector.count('checkpoint.write'),\n"
            "                  'fired': len(injector.fired)}))\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        out = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)], check=True,
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src)).stdout
        report = json.loads(out)
        assert report == {"before": False, "opened": True, "hits": 1,
                          "fired": 1}
        # The one snapshot on disk is the torn one.
        with pytest.raises(CheckpointError, match="no valid checkpoint"):
            restore_session(parse_program(source), tmp_path)

    def test_with_plan_hands_the_checkpointer_over(self, tmp_path):
        import dataclasses

        from repro.planner import plan_program

        prog = gram_chain()
        a0 = operator()
        session = open_session(prog, {"A": a0},
                               checkpoint={"directory": tmp_path, "every": 50})
        checkpointer = session.checkpointer
        for update in stream(3):
            session.apply_update(update)
        plan = dataclasses.replace(plan_program(prog, {"A": a0}),
                                   strategy="REEVAL", mode="interpret")
        switched = session.with_plan(plan)
        assert switched.checkpointer is checkpointer
        assert checkpointer.session is switched
        assert session.checkpointer is None
        switched.apply_update(stream(1, seed=4)[0])
        assert checkpointer.pending == 4

    def test_delta_limit_bounds_the_log(self, tmp_path):
        session = open_session(gram_chain(), {"A": operator()})
        checkpointer = session.attach_checkpointer(
            tmp_path, every=2, auto=False, delta_limit=6)
        for update in stream(14):
            session.apply_update(update)
        # The epoch owner never called maybe_checkpoint, so the backstop
        # must have cut snapshots to keep the log bounded.
        assert checkpointer.pending < 6
        assert checkpointer.saves >= 2


class TestCheckpointerConfig:
    def test_auto_cadence_is_priced(self, tmp_path):
        session = open_session(gram_chain(), {"A": operator()})
        checkpointer = Checkpointer(session, tmp_path, every="auto")
        assert checkpointer.every >= 1

    def test_bad_cadence_rejected(self, tmp_path):
        session = open_session(gram_chain(), {"A": operator()})
        with pytest.raises(ValueError, match="every"):
            Checkpointer(session, tmp_path, every=0)
        with pytest.raises(ValueError, match="delta_limit"):
            Checkpointer(session, tmp_path, every=8, delta_limit=2)

    def test_restore_without_checkpointer_raises(self):
        session = open_session(gram_chain(), {"A": operator()})
        with pytest.raises(CheckpointError, match="no checkpointer"):
            session.restore()


PROGRAM_SOURCE = """
input A(n, n);
B := A * A;
C := B * B;
output C;
"""


class TestCli:
    @pytest.fixture
    def program_file(self, tmp_path):
        path = tmp_path / "chain.lvw"
        path.write_text(PROGRAM_SOURCE)
        return str(path)

    def test_run_checkpoint_then_restore(self, program_file, tmp_path,
                                         capsys):
        ckpt = str(tmp_path / "ckpts")
        assert main(["run", program_file, "--dims", "n=32", "--updates",
                     "12", "--checkpoint-dir", ckpt,
                     "--checkpoint-every", "4"]) == 0
        out = capsys.readouterr().out
        assert "checkpoint :" in out
        assert main(["run", program_file, "--dims", "n=32", "--updates",
                     "5", "--checkpoint-dir", ckpt, "--restore"]) == 0
        out = capsys.readouterr().out
        assert "resumed at update 12" in out

    def test_restore_requires_directory(self, program_file, capsys):
        assert main(["run", program_file, "--dims", "n=32",
                     "--restore"]) == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_bad_cadence_rejected(self, program_file, tmp_path, capsys):
        assert main(["run", program_file, "--dims", "n=32",
                     "--checkpoint-dir", str(tmp_path / "c"),
                     "--checkpoint-every", "nope"]) == 2
        assert "--checkpoint-every" in capsys.readouterr().err
