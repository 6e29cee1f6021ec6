"""Shared-vs-independent differential harness for the multi-view catalog.

The ISSUE 10 headline proof: N tenant programs registered on one
:class:`~repro.catalog.ViewCatalog` must be indistinguishable from N
independent sessions — bitwise for the statement whose spelling created
each node and for every identically-spelled shared statement, allclose
for canonical-collision aliases (from a later tenant or the same one) —
across generated overlapping-program families
(:func:`exprgen.shared_family`) x Zipf/uniform streams x backend x
(strategy, mode); while the catalog's maintenance work scales with
*distinct* subexpressions, not with tenant count.  Eviction under a
``memory_budget`` demotes nodes to exact REEVAL-on-demand
(bitwise-equal to re-evaluating against the maintained state) and
re-admits them once demand charges out-price admission — mid-stream,
without ever losing allclose parity.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exprgen import shared_family
from stream_helpers import zipf_row_updates

from repro.catalog import (
    Catalog,
    CatalogError,
    CatalogInputMismatchError,
    NODE_PREFIX,
    ViewCatalog,
)
from repro.cost.counters import Counter
from repro.frontend import parse_program
from repro.runtime import FactoredUpdate, IVMSession, ReevalSession, open_session


def _sparse_available() -> bool:
    try:
        import scipy  # noqa: F401

        return True
    except ImportError:
        return False


BACKENDS = ("dense",) + (("sparse",) if _sparse_available() else ())

#: (strategy, mode) cells the catalog's inner session supports.
CATALOG_CONFIGS = (
    ("INCR", "interpret"),
    ("INCR", "codegen"),
    ("REEVAL", "interpret"),
)


def _independent(program, inputs, strategy, mode, backend):
    inputs = {name: arr.copy() for name, arr in inputs.items()}
    if strategy == "REEVAL":
        return ReevalSession(program, inputs, backend=backend)
    return IVMSession(program, inputs, mode=mode, backend=backend)


def _clone(update):
    return FactoredUpdate(update.target, update.u_block.copy(),
                          update.v_block.copy())


def _chain_program():
    return parse_program("input A(n, n); B := A * A; C := B * B; output C;")


def _chain_inputs(rng, n=6):
    return n, {"A": 0.4 * rng.standard_normal((n, n)) / np.sqrt(n)}


def _node_creating_names(tenant):
    """Views of ``tenant`` whose own statement spelling created their node.

    Valid for the first registrant of a catalog (every node it maps to
    was created by one of its statements): a node is created by the
    first statement mapped to it; a later statement of the same program
    hitting the same key reads that node through the creator's spelling.
    """
    seen, names = set(), []
    for name in tenant.program.view_names:
        node = tenant.mapping[name]
        if node not in seen and node in tenant.catalog.nodes:
            names.append(name)
        seen.add(node)
    return names


def _assert_family_parity(programs, inputs, updates, backend, strategy, mode):
    """Catalog vs one private session per tenant over one stream.

    Every tenant read is allclose; bitwise is owed to the statement
    whose spelling created the node (docs/invariants.md) — here, the
    node-creating names of the first registrant.  Returns the catalog
    and its tenant sessions.
    """
    catalog = ViewCatalog(strategy=strategy, mode=mode, backend=backend)
    tenants = [catalog.open(program, inputs if i == 0 else None)
               for i, program in enumerate(programs)]
    independents = [
        _independent(program, inputs, strategy, mode, backend)
        for program in programs
    ]

    for update in updates:
        catalog.apply_update(_clone(update))
        for session in independents:
            session.apply_update(_clone(update))

    for index, (program, tenant, session) in enumerate(
            zip(programs, tenants, independents)):
        for name in program.input_names + program.view_names:
            got = np.asarray(tenant[name])
            want = np.asarray(session[name])
            scale = max(1.0, float(np.max(np.abs(want))))
            np.testing.assert_allclose(
                got, want, rtol=1e-7, atol=1e-8 * scale,
                err_msg=f"tenant {index} view {name} diverged")
    first, solo = tenants[0], independents[0]
    for name in (*programs[0].input_names, *_node_creating_names(first)):
        np.testing.assert_array_equal(
            np.asarray(first[name]), np.asarray(solo[name]),
            err_msg=f"node-creating statement {name} not bitwise")
    return catalog, tenants


class TestSharedVsIndependentDifferential:
    """Generated tenant families: catalog vs N private sessions."""

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_parity_across_family_stream_backend_mode(self, data):
        programs, n, inputs = data.draw(shared_family())
        theta = data.draw(st.sampled_from([0.0, 2.0]))
        backend = data.draw(st.sampled_from(BACKENDS))
        strategy, mode = data.draw(st.sampled_from(CATALOG_CONFIGS))
        count = data.draw(st.integers(4, 12))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
        updates = zipf_row_updates(rng, n, count, theta)
        _assert_family_parity(programs, inputs, updates, backend, strategy,
                              mode)

    @pytest.mark.parametrize("seed", range(3))
    def test_one_tenant_spelling_a_node_twice(self, seed):
        """``P0`` spells ``V1``'s canonical node a second time: it folds
        into that node (exact-by-algebra, 1 ulp off its solo session on
        these streams), while ``V0`` / ``V1`` — whose spellings created
        their nodes — stay bitwise.  The generated harness above draws
        such a first registrant only rarely; it used to demand bitwise
        of every name and failed whenever it did."""
        program = parse_program(
            "input A(3,3); V0 := A*A; V1 := V0*V0; P0 := A*A*(A*A); "
            "output P0;")
        rng = np.random.default_rng(seed)
        inputs = {"A": 0.4 * rng.standard_normal((3, 3))}
        updates = zipf_row_updates(np.random.default_rng(seed), 3, 4, 2.0)
        catalog, [tenant] = _assert_family_parity(
            [program], inputs, updates, "dense", "INCR", "interpret")
        assert tenant.mapping["P0"] == tenant.mapping["V1"]
        assert catalog.nodes[tenant.mapping["V1"]].tenants == 2
        assert _node_creating_names(tenant) == ["V0", "V1"]

    @pytest.mark.parametrize("seed", range(3))
    def test_sum_over_an_alias_is_bitwise(self, seed):
        """``P0 := V0`` folds into ``V0``'s node, so the catalog spells
        ``P1 := V0 + P0`` as ``_S0 + _S0``.  A solo session keeps an
        alias's factors too, so both sum the two equal-right-factor
        deltas into one ``U + U`` block and ``P1`` stays bitwise."""
        programs = [
            parse_program("input A(3,3); V0 := A*A; P0 := V0; "
                          "P1 := V0 + P0; output P1;"),
            parse_program("input A(3,3); V0 := A*A; output V0;"),
        ]
        rng = np.random.default_rng(seed)
        inputs = {"A": 0.2 * rng.standard_normal((3, 3))}
        updates = zipf_row_updates(rng, 3, 8, 0.0)
        catalog, [tenant, _] = _assert_family_parity(
            programs, inputs, updates, "dense", "INCR", "interpret")
        assert tenant.mapping["P0"] == tenant.mapping["V0"]
        assert _node_creating_names(tenant) == ["V0", "P1"]

    @pytest.mark.parametrize("seed", range(3))
    def test_sum_over_a_repeated_spelling_is_bitwise(self, seed):
        """``P0 := A*A`` spells ``V0`` again: the catalog folds it into
        ``V0``'s node and sums ``P1 := V0 + P0`` as ``_S0 + _S0``; a solo
        session gives ``P0`` ``V0``'s factors, so it sums one ``U + U``
        block too and ``P1`` stays bitwise."""
        programs = [
            parse_program("input A(3,3); V0 := A*A; V1 := V0*V0; "
                          "P0 := A*A; P1 := V0 + P0; output P1;"),
            parse_program("input A(3,3); V0 := A*A; V1 := V0*V0; "
                          "output V1;"),
        ]
        rng = np.random.default_rng(seed)
        inputs = {"A": 0.2 * rng.standard_normal((3, 3))}
        updates = zipf_row_updates(rng, 3, 8, 0.0)
        catalog, [tenant, _] = _assert_family_parity(
            programs, inputs, updates, "dense", "INCR", "interpret")
        assert tenant.mapping["P0"] == tenant.mapping["V0"]
        assert _node_creating_names(tenant) == ["V0", "V1", "P1"]

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_identically_spelled_prefix_is_bitwise_for_all(self, data):
        """The common chain prefix is spelled the same by every tenant,
        so *every* tenant's prefix reads are bitwise-equal to its own
        independent session, whatever else the family registered."""
        programs, n, inputs = data.draw(shared_family())
        backend = data.draw(st.sampled_from(BACKENDS))
        strategy, mode = data.draw(st.sampled_from(CATALOG_CONFIGS))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
        updates = zipf_row_updates(rng, n, 6, 1.5)

        catalog = ViewCatalog(strategy=strategy, mode=mode, backend=backend)
        tenants = [catalog.open(program, inputs if i == 0 else None)
                   for i, program in enumerate(programs)]
        independents = [
            _independent(program, inputs, strategy, mode, backend)
            for program in programs
        ]
        for update in updates:
            catalog.apply_update(_clone(update))
            for session in independents:
                session.apply_update(_clone(update))

        prefix = [name for name in programs[0].view_names
                  if name.startswith("V")]
        for index, (tenant, session) in enumerate(
                zip(tenants, independents)):
            for name in prefix:
                np.testing.assert_array_equal(
                    np.asarray(tenant[name]), np.asarray(session[name]),
                    err_msg=f"tenant {index} prefix view {name} not bitwise")

    def test_aliases_share_nodes_without_new_state(self, rng):
        n, inputs = _chain_inputs(rng)
        catalog = ViewCatalog()
        t1 = catalog.open(_chain_program(), inputs, dims={"n": n})
        alias = parse_program("input A(n, n); B := A * A; F := B; output F;")
        t2 = catalog.open(alias, None, dims={"n": n})
        assert catalog.distinct_nodes == 2  # A*A and (A*A)*(A*A), no F node
        for update in zipf_row_updates(rng, n, 5, 0.0):
            catalog.apply_update(update)
        np.testing.assert_array_equal(t2["F"], t2["B"])
        np.testing.assert_array_equal(t2["F"], t1["B"])


class TestWorkScalesWithDistinctSubexpressions:
    """The headline counter: shared work is flat in tenant count."""

    def _run_shared(self, rng_seed, tenants, updates=12, n=8):
        rng = np.random.default_rng(rng_seed)
        n, inputs = _chain_inputs(rng, n)
        counter = Counter()
        catalog = ViewCatalog(counter=counter)
        handles = [catalog.open(_chain_program(),
                                inputs if i == 0 else None, dims={"n": n})
                   for i in range(tenants)]
        counter.reset()
        for update in zipf_row_updates(rng, n, updates, 0.0):
            catalog.apply_update(update)
        catalog.flush()
        assert len(handles) == tenants
        return catalog, counter.total_flops

    def test_node_refreshes_flat_in_tenant_count(self):
        results = {}
        for tenants in (1, 2, 4, 8):
            catalog, flops = self._run_shared(7, tenants)
            results[tenants] = (catalog.stats.node_refreshes, flops)
            # Exactly one refresh per distinct admitted node per update.
            assert (catalog.stats.node_refreshes
                    == catalog.distinct_nodes * catalog.stats.updates)
            assert catalog.distinct_nodes == 2
        # Fully-overlapping tenants: identical work regardless of N.
        assert results[1] == results[8]

    def test_shared_hits_count_deduplicated_registrations(self):
        catalog, _ = self._run_shared(7, 5)
        # 5 tenants x 2 statements; 4 later tenants hit both nodes.
        assert catalog.stats.registered_views == 10
        assert catalog.stats.shared_hits == 8
        assert catalog.stats.tenants == 5

    def test_independent_flops_scale_with_n_shared_do_not(self, rng):
        n, inputs = _chain_inputs(rng, 8)
        program = _chain_program()
        updates = zipf_row_updates(rng, n, 12, 0.0)

        _, shared_flops = self._run_shared(7, 8)
        counter = Counter()
        sessions = [
            IVMSession(program,
                       {k: v.copy() for k, v in inputs.items()},
                       dims={"n": n}, counter=counter)
            for _ in range(8)
        ]
        counter.reset()
        for update in updates:
            for session in sessions:
                session.apply_update(_clone(update))
        independent_flops = counter.total_flops
        # The acceptance bar: >= 3x at N = 8 fully-overlapping tenants.
        assert independent_flops >= 3 * shared_flops


class TestEvictionAndReadmission:
    """Cache-aside under memory_budget, mid-stream, without losing parity."""

    def test_mid_stream_eviction_keeps_parity(self, rng):
        n, inputs = _chain_inputs(rng)
        program = _chain_program()
        budget = n * n * 8  # room for exactly one admitted node
        catalog = ViewCatalog(memory_budget=budget)
        tenant = catalog.open(program, inputs, dims={"n": n})
        oracle = _independent(program, inputs, "INCR", "interpret", None)
        assert catalog.stats.evictions >= 1  # over budget at registration

        for update in zipf_row_updates(rng, n, 8, 0.0):
            catalog.apply_update(_clone(update))
            oracle.apply_update(_clone(update))
            for name in ("B", "C"):
                got, want = tenant[name], oracle[name]
                scale = max(1.0, float(np.max(np.abs(want))))
                np.testing.assert_allclose(
                    got, want, rtol=1e-7, atol=1e-8 * scale,
                    err_msg=f"{name} diverged under eviction")
        assert catalog.stats.demand_reads >= 1
        # Hot demand reads priced the frontier node back in mid-stream.
        assert catalog.stats.readmissions >= 1
        assert catalog.memory_bytes() <= budget + n * n * 8

    def test_evicted_read_is_exact_reevaluation(self, rng):
        n, inputs = _chain_inputs(rng)
        catalog = ViewCatalog(memory_budget=n * n * 8)
        tenant = catalog.open(_chain_program(), inputs, dims={"n": n})
        for update in zipf_row_updates(rng, n, 2, 0.0):
            catalog.apply_update(update)
        evicted = [name for name in catalog.nodes
                   if not catalog.nodes[name].admitted]
        assert evicted, "budget of one node must leave the chain top evicted"
        # The exactness contract: an evicted read IS re-evaluation of
        # the node's expression against the maintained admitted state.
        want = np.asarray(tenant["B"]) @ np.asarray(tenant["B"])
        np.testing.assert_array_equal(tenant["C"], want)

    def test_flush_first_eviction_lands_pending_deltas(self, rng):
        """Evicting immediately after updates must not lose their effect:
        the budget-enforcement pass flushes before demoting."""
        n, inputs = _chain_inputs(rng)
        program = _chain_program()
        catalog = ViewCatalog()
        tenant = catalog.open(program, inputs, dims={"n": n})
        oracle = _independent(program, inputs, "INCR", "interpret", None)
        for update in zipf_row_updates(rng, n, 5, 0.0):
            catalog.apply_update(_clone(update))
            oracle.apply_update(_clone(update))
        # Shrink the budget post-hoc and force an enforcement pass via a
        # new registration: the evicted node's on-demand value must
        # reflect every update applied above.
        catalog.memory_budget = n * n * 8
        catalog.open(parse_program("input A(n, n); B := A * A; output B;"),
                     None, dims={"n": n})
        assert catalog.stats.evictions >= 1
        scale = max(1.0, float(np.max(np.abs(oracle["C"]))))
        np.testing.assert_allclose(tenant["C"], oracle["C"],
                                   rtol=1e-7, atol=1e-8 * scale)

    def test_readmission_pins_value_and_resumes_incrementally(self, rng):
        n, inputs = _chain_inputs(rng)
        catalog = ViewCatalog(memory_budget=n * n * 8)
        tenant = catalog.open(_chain_program(), inputs, dims={"n": n})
        stream = zipf_row_updates(rng, n, 10, 0.0)
        for update in stream[:6]:
            catalog.apply_update(update)
            tenant["C"]  # demand-read pressure prices C back in
        assert catalog.stats.readmissions >= 1
        node = next(n_ for n_ in catalog.nodes.values()
                    if n_.name != f"{NODE_PREFIX}0")
        assert node.admitted
        pinned = np.array(tenant["C"])
        # Re-admitted: an immediate re-read serves the pinned value...
        np.testing.assert_array_equal(tenant["C"], pinned)
        before = catalog.stats.demand_reads
        tenant["C"]
        assert catalog.stats.demand_reads == before  # ...not on demand
        for update in stream[6:]:
            catalog.apply_update(update)
        assert np.isfinite(tenant["C"]).all()


class TestRegistration:
    """Typed errors and mid-stream tenancy changes."""

    def test_mid_stream_registration_joins_current_state(self, rng):
        n, inputs = _chain_inputs(rng)
        program = _chain_program()
        catalog = ViewCatalog()
        t1 = catalog.open(program, inputs, dims={"n": n})
        stream = zipf_row_updates(rng, n, 10, 0.0)
        for update in stream[:5]:
            catalog.apply_update(update)
        # A tenant arriving mid-stream shares from here on out.
        t2 = catalog.open(
            parse_program("input A(n, n); G := A * A; H := G * A; output H;"),
            None, dims={"n": n})
        for update in stream[5:]:
            catalog.apply_update(update)
        np.testing.assert_array_equal(t2["G"], t1["B"])  # same node
        a = np.asarray(catalog.read("A"))
        scale = max(1.0, float(np.max(np.abs(a))))
        np.testing.assert_allclose(t2["H"], (a @ a) @ a,
                                   rtol=1e-7, atol=1e-8 * scale)

    def test_registrations_interleaved_with_updates_keep_the_contract(
            self, rng):
        """Registrations settle the store and leave the build to the next
        update, between bursts of updates and under a budget added
        late: statements whose spelling created a node before the stream
        stay bitwise equal to their solo sessions, every other read
        allclose."""
        n, inputs = _chain_inputs(rng)
        programs = [parse_program(
            f"input A(n, n); B := A * A; C := B * B; "
            f"P := {index + 2} * C + A; output P;") for index in range(6)]
        stream = zipf_row_updates(rng, n, 15, 0.0)
        catalog = ViewCatalog()
        tenants, solos = [], []

        def register(indices):
            for index in indices:
                first = not tenants
                start = inputs if first else {"A": np.array(catalog.read("A"))}
                tenants.append(catalog.open(
                    programs[index], start if first else None, dims={"n": n}))
                solos.append(_independent(programs[index], start, "INCR",
                                          "interpret", None))

        def apply(updates):
            for update in updates:
                catalog.apply_update(_clone(update))
                for solo in solos:
                    solo.apply_update(_clone(update))

        def check():
            # Tenant 0 created B, C and its P; tenants 1 and 2 their P,
            # all before the first update.
            creators = {0: ("B", "C", "P"), 1: ("P",), 2: ("P",)}
            for index, (tenant, solo) in enumerate(zip(tenants, solos)):
                for name in ("A", "B", "C", "P"):
                    got, want = np.asarray(tenant[name]), solo[name]
                    node = catalog.nodes.get(tenant.mapping.get(name))
                    if (name in creators.get(index, ())
                            and node.evicted_at == 0):
                        np.testing.assert_array_equal(
                            got, want, err_msg=f"tenant {index} {name}")
                    scale = max(1.0, float(np.max(np.abs(want))))
                    np.testing.assert_allclose(
                        got, want, rtol=1e-7, atol=1e-8 * scale,
                        err_msg=f"tenant {index} {name}")

        register(range(3))
        apply(stream[:5])
        register(range(3, 5))
        assert catalog._stale  # registered, not yet built
        check()
        apply(stream[5:10])
        check()
        catalog.memory_budget = 4 * n * n * 8
        register([5])
        assert catalog.stats.evictions >= 1
        check()
        apply(stream[10:])
        check()

    def test_conflicting_input_value_rejected(self, rng):
        n, inputs = _chain_inputs(rng)
        catalog = ViewCatalog()
        catalog.open(_chain_program(), inputs, dims={"n": n})
        with pytest.raises(CatalogInputMismatchError, match="bitwise"):
            catalog.open(_chain_program(),
                         {"A": inputs["A"] + 1.0}, dims={"n": n})

    def test_conflicting_input_shape_rejected(self, rng):
        catalog = ViewCatalog()
        catalog.open(_chain_program(),
                     {"A": rng.standard_normal((4, 4))}, dims={"n": 4})
        other = parse_program("input A(m, m); B := A * A; output B;")
        with pytest.raises(CatalogInputMismatchError, match="declared"):
            catalog.open(other, {"A": rng.standard_normal((5, 5))},
                         dims={"m": 5})

    def test_missing_new_input_rejected(self):
        catalog = ViewCatalog()
        with pytest.raises(CatalogError, match="missing initial value"):
            catalog.open(_chain_program(), {}, dims={"n": 4})

    def test_unknown_update_target_rejected(self, rng):
        n, inputs = _chain_inputs(rng)
        catalog = ViewCatalog()
        catalog.open(_chain_program(), inputs, dims={"n": n})
        with pytest.raises(KeyError, match="no catalog input"):
            catalog.apply_update(FactoredUpdate("Z", np.ones((n, 1)),
                                                np.ones((n, 1))))

    def test_matching_input_value_accepted(self, rng):
        n, inputs = _chain_inputs(rng)
        catalog = ViewCatalog()
        catalog.open(_chain_program(), inputs, dims={"n": n})
        # Registering with the catalog's own current value is the
        # documented way to assert agreement explicitly.
        catalog.open(_chain_program(), {"A": catalog.read("A")},
                     dims={"n": n})
        assert catalog.stats.tenants == 2

    def test_open_session_catalog_path(self, rng):
        n, inputs = _chain_inputs(rng)
        catalog = Catalog()
        session = open_session(_chain_program(), inputs, dims={"n": n},
                               catalog=catalog)
        assert session.catalog is catalog
        for update in zipf_row_updates(rng, n, 3, 0.0):
            session.apply_update(update)
        assert session.update_count == 3
        assert catalog.stats.updates == 3
        assert np.isfinite(session["C"]).all()

    @pytest.mark.parametrize("option", [
        {"nodes": 2}, {"shard": "hash"}, {"supervise": True},
        {"drift": True}, {"replan": True}, {"batch": 4}, {"batch": "off"},
        {"max_staleness": 8}, {"partition": "heavy-light"},
        {"heavy_budget": 4}, {"checkpoint": "somewhere"},
    ])
    def test_open_session_catalog_path_refuses_what_it_cannot_honor(
            self, rng, option):
        from repro.runtime import UnsupportedCombinationError

        n, inputs = _chain_inputs(rng)
        catalog = ViewCatalog()
        with pytest.raises(UnsupportedCombinationError,
                           match=next(iter(option))) as caught:
            open_session(_chain_program(), inputs, dims={"n": n},
                         catalog=catalog, **option)
        assert isinstance(caught.value, ValueError)
        assert catalog.stats.tenants == 0  # refused before registering

    def test_canonical_collision_shares_across_spellings(self, rng):
        """``A + A`` and ``2 * A`` are one node: canonical-form identity,
        not surface syntax, decides sharing."""
        n, inputs = _chain_inputs(rng)
        catalog = ViewCatalog()
        t1 = catalog.open(
            parse_program("input A(n, n); S := A + A; output S;"),
            inputs, dims={"n": n})
        t2 = catalog.open(
            parse_program("input A(n, n); D := 2 * A; output D;"),
            None, dims={"n": n})
        assert catalog.distinct_nodes == 1
        assert catalog.stats.shared_hits == 1
        for update in zipf_row_updates(rng, n, 4, 0.0):
            catalog.apply_update(update)
        np.testing.assert_array_equal(t1["S"], t2["D"])
        a = np.asarray(catalog.read("A"))
        scale = max(1.0, float(np.max(np.abs(a))))
        np.testing.assert_allclose(t1["S"], a + a,
                                   rtol=1e-7, atol=1e-8 * scale)


class TestCatalogCLI:
    """``repro catalog`` and ``repro run --tenants --share`` smoke."""

    @pytest.fixture
    def program_file(self, tmp_path):
        path = tmp_path / "chain.lvw"
        path.write_text(
            "input A(n, n);\nB := A * A;\nC := B * B;\noutput C;\n")
        return str(path)

    def test_catalog_command_reports_sharing(self, program_file, capsys):
        from repro.cli import main

        code = main(["catalog", program_file, "--tenants", "3",
                     "--dims", "n=12", "--updates", "5", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tenants"] == 3
        assert payload["distinct_nodes"] == 2
        assert payload["stats"]["shared_hits"] == 4
        assert payload["stats"]["node_refreshes"] == 10
        assert len(payload["lineage"]) == 2
        assert all(rec["name"].startswith(NODE_PREFIX)
                   for rec in payload["lineage"])

    @pytest.mark.parametrize("mode", ["interpret", "codegen"])
    def test_catalog_command_prices_what_it_runs(self, program_file, capsys,
                                                  mode):
        """The shared estimate is the ledger of the merged program the
        catalog maintains; the private one, each tenant's own session."""
        from repro.cli import main

        updates = 5
        code = main(["catalog", program_file, "--tenants", "3",
                     "--dims", "n=12", "--updates", str(updates),
                     "--mode", mode, "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        estimate = payload["estimated_flops_per_update"]
        assert estimate["shared"] * updates == payload["total_flops"]
        # Three tenants of one program: three times its refresh.
        assert estimate["private"] == 3 * estimate["shared"]
        assert main(["catalog", program_file, "--tenants", "3",
                     "--dims", "n=12", "--updates", str(updates),
                     "--mode", mode]) == 0
        assert (f"est. FLOPs : {estimate['shared']:,.0f}/update shared vs "
                f"{estimate['private']:,.0f}/update private (3.0x)"
                in capsys.readouterr().out)

    def test_catalog_command_human_output(self, program_file, capsys):
        from repro.cli import main

        code = main(["catalog", program_file, "--dims", "n=8",
                     "--updates", "3", "--memory-budget", "4096"])
        assert code == 0
        out = capsys.readouterr().out
        assert "lineage DAG:" in out
        assert "distinct nodes" in out

    def test_run_share_beats_independent(self, program_file, capsys):
        from repro.cli import main

        code = main(["run", program_file, "--dims", "n=16", "--updates", "8",
                     "--tenants", "4", "--share", "--json"])
        assert code == 0
        shared = json.loads(capsys.readouterr().out)
        code = main(["run", program_file, "--dims", "n=16", "--updates", "8",
                     "--tenants", "4", "--json"])
        assert code == 0
        independent = json.loads(capsys.readouterr().out)
        assert shared["share"] and not independent["share"]
        assert shared["distinct_nodes"] == 2
        assert independent["total_flops"] >= 3 * shared["total_flops"]

    def test_catalog_command_rejects_bad_args(self, program_file, capsys):
        from repro.cli import main

        assert main(["catalog", program_file, "--updates", "0"]) == 2
        assert main(["catalog", "missing.lvw"]) == 2
        assert main(["catalog", program_file, "--dims", "bogus"]) == 2
        capsys.readouterr()
