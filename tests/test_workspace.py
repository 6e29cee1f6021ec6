"""Workspace arena and in-place backend kernels (the sessions'
zero-allocation steady state is pinned in ``test_steady_state.py``)."""

import threading

import numpy as np
import pytest

from repro.backends import get_backend
from repro.iterative.models import Model
from repro.iterative import make_general, make_powers, make_sums
from repro.planner import MaintenancePlan
from repro.runtime import Workspace


def _in_both_modes(strategy: str, model: Model) -> list[MaintenancePlan]:
    """``strategy``'s plans in interpret and in codegen mode."""
    return [MaintenancePlan(strategy, mode=mode, model=model.kind, s=model.s)
            for mode in ("interpret", "codegen")]


class TestWorkspace:
    def test_lease_reissues_same_buffers_per_frame(self):
        ws = Workspace()
        with ws.frame():
            first = ws.lease(4, 4)
            second = ws.lease(4, 4)
        assert first is not second
        with ws.frame():
            assert ws.lease(4, 4) is first
            assert ws.lease(4, 4) is second
        assert ws.allocations == 2
        assert ws.leases == 4

    def test_nested_frames_do_not_recycle(self):
        ws = Workspace()
        with ws.frame():
            outer = ws.lease(3, 3)
            with ws.frame():
                inner = ws.lease(3, 3)
            # Inner frame closed, but the outer one is still open: the
            # next lease must NOT hand `outer` or `inner` back.
            third = ws.lease(3, 3)
        assert third is not outer and third is not inner

    def test_begin_is_noop_inside_frame(self):
        ws = Workspace()
        with ws.frame():
            outer = ws.lease(2, 2)
            ws.begin()
            assert ws.lease(2, 2) is not outer

    def test_concurrent_threads_never_share_buffers(self):
        """Two threads leasing the same shapes get disjoint arenas.

        The serving layer's writer thread runs maintenance concurrently
        with whatever the spawning thread does; a shared lease pool
        would hand both threads the same scratch buffer and corrupt
        in-place kernels.  Regression for the thread-local arena.
        """
        ws = Workspace()
        rounds = 100
        seen: list[set[int]] = [set(), set()]
        errors: list[BaseException] = []
        barrier = threading.Barrier(2)

        def work(slot: int) -> None:
            try:
                barrier.wait()
                for _ in range(rounds):
                    with ws.frame():
                        a = ws.lease(6, 6)
                        a[:] = slot
                        b = ws.lease(6, 6)
                        b[:] = slot + 10
                        seen[slot].add(id(a))
                        seen[slot].add(id(b))
                        # A shared buffer shows up as the other thread's
                        # marker value bleeding in mid-frame.
                        assert np.all(a == slot) and np.all(b == slot + 10)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(slot,))
                   for slot in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not errors, errors[0]
        assert seen[0].isdisjoint(seen[1])
        # Counters aggregate across the per-thread arenas.
        assert ws.allocations == 4
        assert ws.leases == 4 * rounds
        assert ws.buffer_count() == 4

    def test_shape_and_dtype_keying(self):
        ws = Workspace()
        with ws.frame():
            a = ws.lease(2, 3)
            b = ws.lease(3, 2)
            c = ws.lease(2, 3, dtype=np.float32)
        assert a.shape == (2, 3) and b.shape == (3, 2)
        assert c.dtype == np.float32 and a.dtype == np.float64
        assert ws.buffer_count() == 3
        assert ws.nbytes() == a.nbytes + b.nbytes + c.nbytes


#: The dense backend, and the sparse backend's dense leg (the kernels
#: are handed ``ndarray`` operands only).
BACKENDS = ["dense", "sparse"]


def _backend(name: str):
    if name == "sparse":
        pytest.importorskip("scipy")
    return get_backend(name)


class TestInPlaceKernels:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_dense_into_kernels_write_out(self, backend, rng):
        be = _backend(backend)
        a = rng.normal(size=(5, 5))
        b = rng.normal(size=(5, 5))
        out = np.empty((5, 5))
        assert be.matmul_into(a, b, out) is out
        np.testing.assert_array_equal(out, a @ b)
        assert be.add_into(a, b, out) is out
        np.testing.assert_array_equal(out, a + b)
        assert be.sub_into(a, b, out) is out
        np.testing.assert_array_equal(out, a - b)
        assert be.scale_into(2.5, a, out) is out
        np.testing.assert_array_equal(out, 2.5 * a)
        wide = np.empty((5, 10))
        assert be.hstack_into([a, b], wide) is wide
        np.testing.assert_array_equal(wide, np.hstack([a, b]))
        tall = np.empty((10, 5))
        assert be.vstack_into([a, b], tall) is tall
        np.testing.assert_array_equal(tall, np.vstack([a, b]))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_dense_into_kernels_fall_back_without_out(self, backend, rng):
        """``out`` omitted or ``None`` allocates a fresh result, bitwise
        equal to what the same kernel writes into a buffer."""
        be = _backend(backend)
        a = rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4))
        for name, args, shape in [
            ("matmul_into", (a, b), (4, 4)),
            ("add_into", (a, b), (4, 4)),
            ("sub_into", (a, b), (4, 4)),
            ("scale_into", (2.5, a), (4, 4)),
            ("hstack_into", ([a, b],), (4, 8)),
            ("vstack_into", ([a, b],), (8, 4)),
        ]:
            kernel = getattr(be, name)
            buffered = kernel(*args, np.empty(shape))
            for fresh in (kernel(*args), kernel(*args, None)):
                assert isinstance(fresh, np.ndarray), name
                assert not np.shares_memory(fresh, a), name
                assert fresh.shape == shape, name
                assert fresh.tobytes() == buffered.tobytes(), name

    def test_add_into_accumulates_with_aliasing(self, rng):
        be = get_backend("dense")
        acc = rng.normal(size=(4, 4))
        term = rng.normal(size=(4, 4))
        expected = acc + term
        assert be.add_into(acc, term, acc) is acc
        np.testing.assert_array_equal(acc, expected)

    def test_sparse_into_kernels_dense_legs(self, rng):
        pytest.importorskip("scipy")
        be = get_backend("sparse")
        a = rng.normal(size=(8, 8))
        b = rng.normal(size=(8, 8))
        out = np.empty((8, 8))
        assert be.matmul_into(a, b, out) is out
        csr = be.asarray((rng.random((100, 100)) < 0.03) * 1.0)
        x = rng.normal(size=(100, 4))
        res = be.matmul_into(csr, x, np.empty((100, 4)))
        np.testing.assert_allclose(res, be.materialize(csr) @ x)

    def test_sparse_add_outer_inplace_reuses_pattern(self, rng):
        sp = pytest.importorskip("scipy.sparse")
        be = get_backend("sparse")
        a = be.asarray((rng.random((100, 100)) < 0.05) * rng.normal(size=(100, 100)))
        assert sp.issparse(a)
        row = 7
        cols = a[[row]].indices
        assert len(cols) > 0
        u = np.zeros((100, 1))
        u[row, 0] = 1.0
        v = np.zeros((100, 1))
        v[cols[0], 0] = 0.5
        data_buf = a.data
        indices_buf = a.indices
        result = be.add_outer_inplace(a, u, v)
        assert result is a, "pattern-preserving update must keep identity"
        assert result.indices is indices_buf and result.data is data_buf

    def test_sparse_add_outer_inplace_grows_structure(self, rng):
        sp = pytest.importorskip("scipy.sparse")
        be = get_backend("sparse")
        a = be.asarray((rng.random((100, 100)) < 0.02) * 1.0)
        dense_before = be.materialize(a)
        u = np.zeros((100, 1))
        u[3, 0] = 1.0
        v = 0.1 * rng.normal(size=(100, 1))
        result = be.add_outer_inplace(a, u, v)
        assert sp.issparse(result) or isinstance(result, np.ndarray)
        np.testing.assert_allclose(
            be.materialize(result), dense_before + u @ v.T, atol=1e-12,
        )


class TestMaintainerWorkspaces:
    """The iterative families' sessions on their workspaces."""

    @pytest.mark.parametrize("model", [Model.linear(), Model.exponential(),
                                       Model.skip(4)])
    def test_incremental_powers_parity_and_steady_state(self, rng, model):
        """The INCR session's two modes agree bitwise, and once warm a
        refresh leases no new buffer."""
        n, k = 32, 8
        a0 = 0.05 * rng.normal(size=(n, n))
        plain, arena = (make_powers(plan, a0, k)
                        for plan in _in_both_modes("INCR", model))
        ups = [(np.eye(n)[:, [i % n]], 0.01 * rng.normal(size=(n, 1)))
               for i in range(12)]
        for u, v in ups:
            plain.refresh(u, v)
            arena.refresh(u, v)
        assert np.array_equal(plain.result(), arena.result())
        allocations = arena.session.workspace.allocations
        for u, v in ups[:4]:
            arena.refresh(u, v)
        assert arena.session.workspace.allocations == allocations

    def test_reeval_powers_recomputes_into_existing_storage(self, rng):
        n, k = 24, 4
        m = make_powers("REEVAL", 0.05 * rng.normal(size=(n, n)), k,
                        Model.linear())
        views = m.session.views
        storage = {name: views.get(name) for name in views.names()}
        m.refresh(np.eye(n)[:, [0]], 0.01 * rng.normal(size=(n, 1)))
        for name, arr in storage.items():
            assert views.get(name) is arr, f"{name} was reallocated"

    @pytest.mark.parametrize("model", [Model.linear(), Model.exponential(),
                                       Model.skip(4)], ids=lambda m: m.name)
    def test_reeval_general_recomputes_into_existing_storage(self, rng,
                                                              model):
        """No ``inv``: the REEVAL list writes A and every view in place,
        B updates included, and allocates nothing once warm."""
        n, k, p = 24, 8, 3
        m = make_general("REEVAL", 0.05 * rng.normal(size=(n, n)),
                         rng.normal(size=(n, p)), rng.normal(size=(n, p)),
                         k, model)
        views = m.session.views
        storage = {name: views.get(name) for name in views.names()}
        for i in range(3):
            m.refresh(np.eye(n)[:, [i]], 0.01 * rng.normal(size=(n, 1)))
            m.refresh_b(np.eye(n)[:, [i]], 0.01 * rng.normal(size=(p, 1)))
        for name, arr in storage.items():
            assert views.get(name) is arr, f"{name} was reallocated"
        allocations = m.session.workspace.allocations
        m.refresh(np.eye(n)[:, [4]], 0.01 * rng.normal(size=(n, 1)))
        assert m.session.workspace.allocations == allocations

    @pytest.mark.parametrize("strategy", ["INCR", "HYBRID"])
    def test_general_workspace_parity(self, rng, strategy):
        n, k, p = 24, 8, 3
        a0 = 0.05 * rng.normal(size=(n, n))
        b0 = rng.normal(size=(n, p))
        t0 = rng.normal(size=(n, p))
        plain, arena = (make_general(plan, a0, b0, t0, k) for plan in
                        _in_both_modes(strategy, Model.exponential()))
        for i in range(8):
            u = np.eye(n)[:, [i % n]]
            v = 0.01 * rng.normal(size=(n, 1))
            plain.refresh(u, v)
            arena.refresh(u, v)
            ub = np.eye(n)[:, [(i + 1) % n]]
            vb = 0.01 * rng.normal(size=(p, 1))
            plain.refresh_b(ub, vb)
            arena.refresh_b(ub, vb)
        assert np.array_equal(plain.result(), arena.result())

    def test_sums_share_arena_with_owned_powers(self, rng):
        """The sums program's powers and sums views are repaired by one
        list, on one session workspace that stops growing once warm."""
        n, k = 24, 8
        a0 = 0.05 * rng.normal(size=(n, n))
        plain, arena = (make_sums(plan, a0, k) for plan in
                        _in_both_modes("INCR", Model.exponential()))
        assert "P4" in arena.session.views
        for i in range(6):
            u = np.eye(n)[:, [i % n]]
            v = 0.01 * rng.normal(size=(n, 1))
            plain.refresh(u, v)
            arena.refresh(u, v)
            if i == 3:
                allocations = arena.session.workspace.allocations
        assert np.array_equal(plain.result(), arena.result())
        assert arena.session.workspace.allocations == allocations
