"""ViewStore and update-event behaviour."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exprgen import session_scenario, shared_family
from stream_helpers import zipf_row_updates

from repro.catalog import ViewCatalog
from repro.frontend import parse_program
from repro.planner import MaintenancePlan
from repro.runtime import (
    FactoredUpdate,
    IVMSession,
    ReevalSession,
    ViewStore,
    batch_row_update,
    cell_update,
    column_update,
    row_update,
)


def _buffers(matrix):
    if isinstance(matrix, np.ndarray):
        return [matrix]
    return [matrix.data, matrix.indices, matrix.indptr]


def _shares(a, b) -> bool:
    return any(np.shares_memory(x, y) for x in _buffers(a) for y in _buffers(b))


def assert_exclusive(store, foreign=()):
    """The ownership rule: no two names, and no foreign array, share
    memory with a stored matrix."""
    names = store.names()
    for index, name in enumerate(names):
        for other in names[index + 1:]:
            assert not _shares(store.get(name), store.get(other)), (name, other)
        for label, arr in foreign:
            assert not _shares(store.get(name), arr), (name, label)


class TestViewStore:
    def test_set_get_roundtrip(self, rng):
        store = ViewStore()
        a = rng.normal(size=(4, 4))
        store.set("A", a)
        np.testing.assert_array_equal(store.get("A"), a)

    def test_vectors_normalized_to_columns(self):
        store = ViewStore()
        store.set("v", np.ones(5))
        assert store.get("v").shape == (5, 1)

    def test_higher_rank_rejected(self):
        store = ViewStore()
        with pytest.raises(ValueError):
            store.set("T", np.ones((2, 2, 2)))

    def test_missing_view_raises_keyerror(self):
        with pytest.raises(KeyError, match="no view or input"):
            ViewStore().get("missing")

    def test_contains_and_names(self, rng):
        store = ViewStore()
        store.set("A", rng.normal(size=(2, 2)))
        store.set("B", rng.normal(size=(2, 2)))
        assert "A" in store and "Z" not in store
        assert store.names() == ["A", "B"]

    def test_add_in_place(self, rng):
        store = ViewStore()
        a = rng.normal(size=(3, 3))
        d = rng.normal(size=(3, 3))
        store.set("A", a)
        store.add_in_place("A", d)
        np.testing.assert_allclose(store.get("A"), a + d)

    def test_add_in_place_shape_mismatch(self, rng):
        store = ViewStore()
        store.set("A", rng.normal(size=(3, 3)))
        with pytest.raises(ValueError, match="mismatch"):
            store.add_in_place("A", np.ones((2, 2)))

    def test_snapshot_restore(self, rng):
        store = ViewStore()
        a = rng.normal(size=(3, 3))
        store.set("A", a)
        snapshot = store.snapshot()
        store.add_in_place("A", np.ones((3, 3)))
        store.restore(snapshot)
        np.testing.assert_array_equal(store.get("A"), a)

    def test_snapshot_is_deep(self, rng):
        store = ViewStore()
        store.set("A", rng.normal(size=(2, 2)))
        snapshot = store.snapshot()
        snapshot["A"][0, 0] = 99.0
        assert store.get("A")[0, 0] != 99.0

    def test_total_bytes(self):
        store = ViewStore()
        store.set("A", np.ones((10, 10)))
        store.set("B", np.ones((5, 5)))
        assert store.total_bytes() == (100 + 25) * 8
        assert store.total_bytes(iter(["A"])) == 800

    def test_dims_stored(self):
        store = ViewStore({"n": 7})
        assert store.dims == {"n": 7}


class TestOwnership:
    """A stored array is the store's alone, and is written in place."""

    def test_set_copies_and_normalizes_layout(self, rng):
        store = ViewStore()
        a = np.asfortranarray(rng.normal(size=(4, 4)))
        before = a.copy()
        store.set("A", a)
        stored = store.get("A")
        assert not np.shares_memory(stored, a)
        assert stored.flags.c_contiguous and stored.dtype == np.float64
        store.add_outer("A", np.ones((4, 1)), np.ones((4, 1)))
        np.testing.assert_array_equal(a, before)

    def test_set_copies_native_csr(self, rng):
        sp = pytest.importorskip("scipy.sparse")
        csr = sp.csr_array(np.diag(np.arange(1.0, 81.0)))
        before = csr.copy()
        store = ViewStore(backend="sparse")
        store.set("A", csr)
        assert not _shares(store.get("A"), csr)
        u = np.zeros((80, 1))
        u[3, 0] = 1.0
        store.add_outer("A", u, u)  # lands on the stored pattern
        np.testing.assert_array_equal(csr.data, before.data)

    def test_writes_accumulate_into_the_stored_array(self, rng):
        store = ViewStore()
        a = rng.normal(size=(5, 5))
        store.set("A", a)
        stored = store.get("A")
        u, v = rng.normal(size=(5, 2)), rng.normal(size=(5, 2))
        store.add_outer("A", u, v)
        assert store.get("A") is stored
        np.testing.assert_allclose(stored, a + u @ v.T)
        delta = rng.normal(size=(5, 5))
        store.add_in_place("A", delta)
        assert store.get("A") is stored
        np.testing.assert_allclose(stored, a + u @ v.T + delta)

    def test_adopt_takes_fresh_results_without_copying(self, rng):
        store = ViewStore()
        store.set("A", rng.normal(size=(4, 4)))
        fresh = store.get("A") @ store.get("A")
        store.adopt("B", fresh)
        assert store.get("B") is fresh

    @pytest.mark.parametrize("alias", [
        lambda a: a, lambda a: a.T, lambda a: a[:, ::-1]],
        ids=["same-array", "transposed-view", "strided-view"])
    def test_adopt_copies_what_aliases_stored_state(self, rng, alias):
        store = ViewStore()
        store.set("A", rng.normal(size=(4, 4)))
        value = alias(store.get("A"))
        want = value.copy()
        store.adopt("F", value)
        assert_exclusive(store)
        assert store.get("F").flags.c_contiguous
        store.add_outer("A", np.ones((4, 1)), np.ones((4, 1)))
        np.testing.assert_array_equal(store.get("F"), want)

    def test_adopt_checks_every_stored_name(self, rng):
        store = ViewStore()
        store.set("A", rng.normal(size=(4, 4)))
        store.set("B", rng.normal(size=(4, 4)))
        store.adopt("F", store.get("B").T)
        assert_exclusive(store)
        fresh = store.get("A") @ store.get("B")
        store.adopt("G", fresh)
        assert store.get("G") is fresh

    @pytest.mark.parametrize("session_cls", [IVMSession, ReevalSession])
    def test_reference_chain_views_stay_private(self, rng, session_cls):
        """``B := A; C := B'`` evaluate to arrays of ``A``'s; each view
        gets its own buffer and follows ``A`` through an update."""
        program = parse_program("input A(n,n); B := A; C := B'; output C;")
        a = rng.normal(size=(4, 4))
        session = session_cls(program, {"A": a})
        assert_exclusive(session.views, foreign=[("a", a)])
        update = FactoredUpdate("A", rng.normal(size=(4, 1)),
                                rng.normal(size=(4, 1)))
        session.apply_update(update)
        assert_exclusive(session.views, foreign=[("a", a)])
        want = a + update.dense()
        np.testing.assert_allclose(session["B"], want)
        np.testing.assert_allclose(session["C"], want.T)

    def test_same_backend_with_plan_hands_the_store_over(self, rng):
        program = parse_program("input A(n,n); B := A * A; output B;")
        session = IVMSession(program, {"A": rng.normal(size=(4, 4))},
                             dims={"n": 4})
        store, stored = session.views, session.views.get("B")
        switched = session.with_plan(MaintenancePlan("REEVAL", backend="dense"))
        assert switched.views is store and switched.views.get("B") is stored
        assert session.views is None

    def test_converted_store_is_independent(self, rng):
        store = ViewStore()
        a = rng.normal(size=(4, 4))
        store.set("A", a)
        twin = store.converted("dense")
        assert not np.shares_memory(twin.get("A"), store.get("A"))
        twin.add_outer("A", np.ones((4, 1)), np.ones((4, 1)))
        np.testing.assert_array_equal(store.get("A"), a)

    def test_restore_does_not_alias_the_snapshot(self, rng):
        store = ViewStore()
        store.set("A", rng.normal(size=(3, 3)))
        snapshot = store.snapshot()
        store.restore(snapshot)
        store.add_in_place("A", np.ones((3, 3)))
        assert not np.shares_memory(store.get("A"), snapshot["A"])


#: ``F`` is a bare (or transposed) reference: ``evaluate`` returns the
#: referenced view's own array for it, at construction and on rebuild.
ALIAS_PROGRAMS = (
    "input A(n,n); B := A * A; F := B; G := F * A; output G;",
    "input A(n,n); F := A; G := F * A; output G;",
    "input A(n,n); F := A'; G := F * A; output G;",
)

SESSION_KINDS = {
    "interpret": {"mode": "interpret"},
    "codegen": {"mode": "codegen"},
}


class TestAliasStatements:
    """Regression: in-place triggers + alias statement + ``rebuild()``
    used to accumulate two names into one buffer (every delta applied
    twice)."""

    @pytest.mark.parametrize("rebuild", [False, True],
                             ids=["stream", "rebuild-mid-stream"])
    @pytest.mark.parametrize("kind", sorted(SESSION_KINDS))
    @pytest.mark.parametrize("source", ALIAS_PROGRAMS)
    def test_alias_views_track_reevaluation(self, rng, source, kind, rebuild):
        n = 8
        program = parse_program(source)
        a0 = rng.normal(size=(n, n))
        given_input = a0.copy()
        session = IVMSession(program, {"A": given_input}, dims={"n": n},
                             **SESSION_KINDS[kind])
        updates = [row_update("A", n, i, rng.normal(size=n)) for i in range(4)]
        for update in updates[:2]:
            session.apply_update(update)
        if rebuild:
            session.rebuild()
        for update in updates[2:]:
            session.apply_update(update)

        total = a0 + sum(update.dense() for update in updates)
        oracle = ReevalSession(program, {"A": total}, dims={"n": n})
        for name in program.view_names:
            np.testing.assert_allclose(session[name], oracle[name],
                                       rtol=1e-10, atol=1e-10, err_msg=name)
        np.testing.assert_array_equal(given_input, a0)
        assert_exclusive(session.views, [("caller A", given_input)])


def _small_sparse_backend():
    """A sparse backend that really stores these tiny matrices as CSR."""
    from repro.backends import SparseBackend

    return SparseBackend(min_sparse_dim=2, sparsify_below=0.6,
                         densify_above=0.95)


def _open(config, program, inputs, backend):
    strategy, options = config
    if strategy == "REEVAL":
        return ReevalSession(program, inputs, backend=backend)
    return IVMSession(program, inputs, backend=backend, **options)


OWNERSHIP_CONFIGS = (
    ("INCR", {"mode": "interpret"}),
    ("INCR", {"mode": "codegen"}),
    ("REEVAL", {}),
)


class TestOwnershipProperties:
    """The rule holds after any stream, through every hand-off."""

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_sessions_never_share_or_write_through(self, data, tmp_path_factory):
        program, n, inputs = data.draw(session_scenario())
        sparse = data.draw(st.booleans())
        config = data.draw(st.sampled_from(OWNERSHIP_CONFIGS))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
        if sparse:
            pytest.importorskip("scipy")
            backend = _small_sparse_backend()
            inputs = {name: arr * (rng.random(arr.shape) < 0.4)
                      for name, arr in inputs.items()}
        else:
            backend = "dense"
        pristine = {name: arr.copy() for name, arr in inputs.items()}
        foreign = list(inputs.items())
        updates = zipf_row_updates(rng, n, 9, 1.5,
                                   target=program.input_names[0])

        def check(session):
            assert_exclusive(session.views, foreign)
            for name, arr in inputs.items():
                np.testing.assert_array_equal(arr, pristine[name])

        session = _open(config, program, inputs, backend)
        check(session)
        for update in updates[:3]:
            session.apply_update(update)
        check(session)

        session.rebuild()
        check(session)
        session.apply_update(updates[3])
        check(session)

        # with_plan: the superseded session is never written through.
        frozen = {name: np.array(session[name])
                  for name in session.views.names()}
        to_strategy, to_options = data.draw(st.sampled_from(OWNERSHIP_CONFIGS))
        plan = MaintenancePlan(to_strategy, backend="dense",
                               mode=to_options.get("mode", "interpret"))
        switched = session.with_plan(plan)
        for update in updates[4:6]:
            switched.apply_update(update)
        check(switched)
        if sparse:
            # A backend change copies; the old state stays as it was.
            for name, want in frozen.items():
                np.testing.assert_array_equal(session[name], want)
                assert not _shares(session.views.get(name),
                                   switched.views.get(name))
        else:
            # Same backend: the store changed hands, nothing was copied.
            assert session.views is None

        # restore(): the checkpointed state comes back store-owned.
        checkpointer = switched.attach_checkpointer(
            tmp_path_factory.mktemp("ckpt"), every=100, auto=False)
        checkpointer.checkpoint()
        switched.apply_update(updates[6])
        restored = switched.restore()
        for update in updates[7:]:
            restored.apply_update(update)
        check(restored)

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_catalog_store_survives_late_registration(self, data):
        programs, n, inputs = data.draw(shared_family())
        strategy, options = data.draw(st.sampled_from(OWNERSHIP_CONFIGS))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
        pristine = {name: arr.copy() for name, arr in inputs.items()}
        updates = zipf_row_updates(rng, n, 6, 1.5)

        catalog = ViewCatalog(strategy=strategy,
                              mode=options.get("mode", "interpret"))
        first = catalog.open(programs[0], inputs)
        for update in updates[:3]:
            catalog.apply_update(update)
        # Arrays of already-maintained nodes stay where they are when a
        # late tenant forces the inner session to be rebuilt.
        kept = {name: catalog._store.get(name)
                for name in catalog._store.names()}
        tenants = [first] + [catalog.open(program, None)
                             for program in programs[1:]]
        for name, arr in kept.items():
            assert catalog._store.get(name) is arr
        for update in updates[3:]:
            catalog.apply_update(update)
        assert_exclusive(catalog._store, list(inputs.items()))
        for name, arr in inputs.items():
            np.testing.assert_array_equal(arr, pristine[name])
        # Reads are live store state in every mode: no copy per read.
        for tenant, program in zip(tenants, programs):
            for name in program.view_names:
                assert any(tenant[name] is catalog._store.get(stored)
                           for stored in catalog._store.names())


class TestFactoredUpdate:
    def test_rank_and_dense(self, rng):
        u = rng.normal(size=(5, 2))
        v = rng.normal(size=(4, 2))
        update = FactoredUpdate("A", u, v)
        assert update.rank == 2
        np.testing.assert_allclose(update.dense(), u @ v.T)

    def test_vectors_reshaped(self, rng):
        update = FactoredUpdate("A", rng.normal(size=5), rng.normal(size=4))
        assert update.u_block.shape == (5, 1)
        assert update.v_block.shape == (4, 1)

    def test_width_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            FactoredUpdate("A", rng.normal(size=(5, 2)), rng.normal(size=(4, 3)))


class TestUpdateConstructors:
    def test_cell_update(self):
        update = cell_update("A", 4, 5, 2, 3, 7.5)
        dense = update.dense()
        assert dense[2, 3] == 7.5
        assert np.count_nonzero(dense) == 1

    def test_row_update(self, rng):
        delta = rng.normal(size=6)
        update = row_update("A", 4, 1, delta)
        dense = update.dense()
        np.testing.assert_allclose(dense[1], delta)
        assert np.count_nonzero(dense[0]) == 0

    def test_column_update(self, rng):
        delta = rng.normal(size=4)
        update = column_update("A", 6, 2, delta)
        dense = update.dense()
        np.testing.assert_allclose(dense[:, 2], delta)
        assert np.count_nonzero(dense[:, 0]) == 0

    def test_batch_row_update(self, rng):
        rows = np.array([0, 3, 5])
        deltas = rng.normal(size=(3, 7))
        update = batch_row_update("A", 8, rows, deltas)
        assert update.rank == 3
        dense = update.dense()
        for idx, row in enumerate(rows):
            np.testing.assert_allclose(dense[row], deltas[idx])
        untouched = [r for r in range(8) if r not in rows]
        assert np.count_nonzero(dense[untouched]) == 0

    def test_batch_rejects_duplicate_rows(self, rng):
        with pytest.raises(ValueError, match="distinct"):
            batch_row_update("A", 8, np.array([1, 1]), rng.normal(size=(2, 4)))

    def test_batch_rejects_shape_mismatch(self, rng):
        with pytest.raises(ValueError, match="one delta row"):
            batch_row_update("A", 8, np.array([1, 2]), rng.normal(size=(3, 4)))
