"""Unit tests for the dataflow IR: construction, queries, validation, serialization."""

import copy

import numpy as np
import pytest

from repro.sdfg import (
    SDFG,
    AccessNode,
    InterstateEdge,
    InvalidSDFGError,
    MapEntry,
    MapExit,
    Memlet,
    ScheduleType,
    Tasklet,
    float64,
    int32,
    validate_sdfg,
)
from repro.sdfg.analysis import find_loops
from repro.sdfg.graph import GraphError, OrderedMultiDiGraph
from repro.sdfg.serialize import sdfg_to_json
from repro.sdfg.state import propagate_memlet
from repro.symbolic import Range, Subset


def build_elementwise_scale(name="scale", n_symbol="N"):
    """out[i] = inp[i] * 2 over a map, used by several tests."""
    sdfg = SDFG(name)
    sdfg.add_array("inp", [n_symbol], float64)
    sdfg.add_array("out", [n_symbol], float64)
    state = sdfg.add_state("compute")
    state.add_mapped_tasklet(
        "scale",
        {"i": f"0:{n_symbol}-1"},
        {"a": Memlet.simple("inp", "i")},
        "b = a * 2",
        {"b": Memlet.simple("out", "i")},
    )
    return sdfg


class TestGraph:
    def test_add_and_query_nodes(self):
        g = OrderedMultiDiGraph()
        g.add_node("a")
        g.add_node("b")
        g.add_edge("a", "b", data=1)
        assert g.number_of_nodes() == 2
        assert g.number_of_edges() == 1
        assert g.successors("a") == ["b"]
        assert g.predecessors("b") == ["a"]

    def test_parallel_edges(self):
        g = OrderedMultiDiGraph()
        g.add_edge("a", "b", 1)
        g.add_edge("a", "b", 2)
        assert len(g.edges_between("a", "b")) == 2

    def test_remove_node_removes_edges(self):
        g = OrderedMultiDiGraph()
        g.add_edge("a", "b")
        g.remove_node("b")
        assert g.number_of_edges() == 0

    def test_remove_missing_node_raises(self):
        g = OrderedMultiDiGraph()
        with pytest.raises(GraphError):
            g.remove_node("zzz")

    def test_topological_sort(self):
        g = OrderedMultiDiGraph()
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        g.add_edge("a", "c")
        order = g.topological_sort()
        assert order.index("a") < order.index("b") < order.index("c")

    def test_topological_sort_cycle(self):
        g = OrderedMultiDiGraph()
        g.add_edge("a", "b")
        g.add_edge("b", "a")
        with pytest.raises(GraphError):
            g.topological_sort()

    def test_source_sink_nodes(self):
        g = OrderedMultiDiGraph()
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        assert g.source_nodes() == ["a"]
        assert g.sink_nodes() == ["c"]

    def test_has_path(self):
        g = OrderedMultiDiGraph()
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        g.add_node("d")
        assert g.has_path("a", "c")
        assert not g.has_path("c", "a")
        assert not g.has_path("a", "d")

    def test_bfs_reverse(self):
        g = OrderedMultiDiGraph()
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        assert set(g.bfs_nodes(["c"], reverse=True)) == {"a", "b", "c"}


class TestDataDescriptors:
    def test_array_symbolic_shape(self):
        sdfg = SDFG("t")
        _, desc = sdfg.add_array("A", ["N", "N"], float64)
        assert desc.total_size().evaluate({"N": 5}) == 25
        assert "N" in sdfg.symbols

    def test_array_allocation(self):
        sdfg = SDFG("t")
        _, desc = sdfg.add_array("A", ["N", 4], float64)
        arr = desc.allocate({"N": 3})
        assert arr.shape == (3, 4)
        assert arr.dtype == np.float64

    def test_nonpositive_allocation_fails(self):
        sdfg = SDFG("t")
        _, desc = sdfg.add_array("A", ["N"], float64)
        with pytest.raises(ValueError):
            desc.allocate({"N": 0})

    def test_scalar(self):
        sdfg = SDFG("t")
        _, desc = sdfg.add_scalar("alpha", float64)
        assert desc.allocate().shape == (1,)

    def test_transient_flag(self):
        sdfg = SDFG("t")
        sdfg.add_transient("tmp", ["N"], float64)
        assert sdfg.arrays["tmp"].transient
        assert "tmp" not in sdfg.arglist()

    def test_duplicate_name_raises(self):
        sdfg = SDFG("t")
        sdfg.add_array("A", [4], float64)
        with pytest.raises(Exception):
            sdfg.add_array("A", [4], float64)

    def test_find_new_name(self):
        sdfg = SDFG("t")
        sdfg.add_array("A", [4], float64)
        name, _ = sdfg.add_array("A", [4], float64, find_new_name=True)
        assert name != "A"

    def test_remove_data_in_use_raises(self):
        sdfg = build_elementwise_scale()
        with pytest.raises(Exception):
            sdfg.remove_data("inp")


class TestStateConstruction:
    def test_mapped_tasklet_structure(self):
        sdfg = build_elementwise_scale()
        state = sdfg.start_state
        assert len([n for n in state.nodes() if isinstance(n, MapEntry)]) == 1
        assert len([n for n in state.nodes() if isinstance(n, MapExit)]) == 1
        assert len([n for n in state.nodes() if isinstance(n, Tasklet)]) == 1
        assert len([n for n in state.nodes() if isinstance(n, AccessNode)]) == 2
        validate_sdfg(sdfg)

    def test_scope_dict(self):
        sdfg = build_elementwise_scale()
        state = sdfg.start_state
        sdict = state.scope_dict()
        entry = next(n for n in state.nodes() if isinstance(n, MapEntry))
        tasklet = next(n for n in state.nodes() if isinstance(n, Tasklet))
        assert sdict[tasklet] is entry
        assert sdict[entry] is None

    def test_exit_node_lookup(self):
        sdfg = build_elementwise_scale()
        state = sdfg.start_state
        entry = next(n for n in state.nodes() if isinstance(n, MapEntry))
        exit_ = state.exit_node(entry)
        assert isinstance(exit_, MapExit)
        assert exit_.map is entry.map

    def test_read_write_sets(self):
        sdfg = build_elementwise_scale()
        state = sdfg.start_state
        assert state.read_set() == {"inp"}
        assert state.write_set() == {"out"}

    def test_propagate_memlet(self):
        sdfg = build_elementwise_scale()
        state = sdfg.start_state
        entry = next(n for n in state.nodes() if isinstance(n, MapEntry))
        inner = Memlet.simple("inp", "i")
        outer = propagate_memlet(inner, entry.map)
        assert outer.volume().evaluate({"N": 10}) == 10
        assert outer.subset.evaluate({"N": 10}) == [(0, 9, 1)]

    def test_free_symbols(self):
        sdfg = build_elementwise_scale()
        assert sdfg.free_symbols == {"N"}

    def test_arglist(self):
        sdfg = build_elementwise_scale()
        args = sdfg.arglist()
        assert set(args) == {"inp", "out", "N"}


class TestControlFlow:
    def test_add_loop_structure(self):
        sdfg = SDFG("loop")
        sdfg.add_array("A", ["N"], float64)
        body = sdfg.add_state("body")
        init = sdfg.add_state("init", is_start_state=True)
        t = body.add_tasklet("w", [], ["o"], "o = i")
        w = body.add_access("A")
        body.add_edge(t, "o", w, None, Memlet.simple("A", "i"))
        sdfg.add_loop(init, body, None, "i", "0", "i < N", "i + 1")
        loops = find_loops(sdfg)
        assert len(loops) == 1
        assert loops[0].loop_variable == "i"
        assert loops[0].trip_count_estimate({"N": 5}) == 5

    def test_loop_iteration_values_negative_step(self):
        sdfg = SDFG("loop")
        body = sdfg.add_state("body")
        init = sdfg.add_state("init", is_start_state=True)
        sdfg.add_loop(init, body, None, "i", "4", "i >= 1", "i - 1")
        loops = find_loops(sdfg)
        assert len(loops) == 1
        assert loops[0].iteration_values({}) == [4, 3, 2, 1]

    def test_start_state_default(self):
        sdfg = SDFG("s")
        s0 = sdfg.add_state("first")
        sdfg.add_state("second")
        assert sdfg.start_state is s0

    def test_state_by_label(self):
        sdfg = SDFG("s")
        sdfg.add_state("alpha")
        assert sdfg.state_by_label("alpha").label == "alpha"
        with pytest.raises(Exception):
            sdfg.state_by_label("nope")

    def test_unique_state_labels(self):
        sdfg = SDFG("s")
        a = sdfg.add_state("x")
        b = sdfg.add_state("x")
        assert a.label != b.label


class TestValidation:
    def test_valid_program_passes(self):
        validate_sdfg(build_elementwise_scale())

    def test_unknown_container_fails(self):
        sdfg = SDFG("bad")
        state = sdfg.add_state("s")
        state.add_access("ghost")
        with pytest.raises(InvalidSDFGError):
            validate_sdfg(sdfg)

    def test_memlet_dim_mismatch_fails(self):
        sdfg = SDFG("bad")
        sdfg.add_array("A", ["N", "N"], float64)
        sdfg.add_array("B", ["N"], float64)
        state = sdfg.add_state("s")
        a = state.add_access("A")
        b = state.add_access("B")
        t = state.add_tasklet("t", ["x"], ["y"], "y = x")
        state.add_edge(a, None, t, "x", Memlet.simple("A", "i"))  # 1D subset on 2D array
        state.add_edge(t, "y", b, None, Memlet.simple("B", "i"))
        with pytest.raises(InvalidSDFGError):
            validate_sdfg(sdfg)

    def test_disconnected_tasklet_fails(self):
        sdfg = SDFG("bad")
        state = sdfg.add_state("s")
        state.add_tasklet("orphan", [], ["o"], "o = 1")
        with pytest.raises(InvalidSDFGError):
            validate_sdfg(sdfg)

    def test_cycle_in_state_fails(self):
        sdfg = SDFG("bad")
        sdfg.add_array("A", [4], float64)
        state = sdfg.add_state("s")
        a = state.add_access("A")
        t = state.add_tasklet("t", ["x"], ["y"], "y = x")
        state.add_edge(a, None, t, "x", Memlet.simple("A", "0"))
        state.add_edge(t, "y", a, None, Memlet.simple("A", "0"))
        state.add_edge(a, None, t, "x", Memlet.simple("A", "1"))
        # a -> t -> a is a cycle through the same access node object
        with pytest.raises(InvalidSDFGError):
            validate_sdfg(sdfg)

    def test_unreachable_state_fails(self):
        sdfg = SDFG("bad")
        sdfg.add_state("start")
        sdfg.add_state("island")
        with pytest.raises(InvalidSDFGError):
            validate_sdfg(sdfg)

    def test_bad_wcr_fails(self):
        sdfg = SDFG("bad")
        sdfg.add_array("A", [4], float64)
        state = sdfg.add_state("s")
        t = state.add_tasklet("t", [], ["y"], "y = 1")
        a = state.add_access("A")
        state.add_edge(t, "y", a, None, Memlet("A", "0", wcr="xor"))
        with pytest.raises(InvalidSDFGError):
            validate_sdfg(sdfg)


class TestCloningAndSerialization:
    def test_clone_preserves_guids(self):
        sdfg = build_elementwise_scale()
        clone = sdfg.clone()
        orig_guids = sorted(n.guid for _, n in sdfg.all_nodes())
        clone_guids = sorted(n.guid for _, n in clone.all_nodes())
        assert orig_guids == clone_guids

    def test_clone_is_independent(self):
        sdfg = build_elementwise_scale()
        clone = sdfg.clone()
        clone.add_array("extra", [4], float64)
        assert "extra" not in sdfg.arrays

    def test_fresh_copy_changes_guid(self):
        t = Tasklet("t", ["a"], ["b"], "b = a")
        assert t.fresh_copy().guid != t.guid

    def test_json_roundtrip(self):
        sdfg = build_elementwise_scale()
        text = sdfg.to_json()
        restored = SDFG.from_json(text)
        validate_sdfg(restored)
        assert set(restored.arrays) == set(sdfg.arrays)
        assert len(restored.states()) == len(sdfg.states())
        state = restored.start_state
        assert len(state.nodes()) == len(sdfg.start_state.nodes())
        assert len(state.edges()) == len(sdfg.start_state.edges())

    def test_json_roundtrip_with_loop(self):
        sdfg = SDFG("loop")
        sdfg.add_array("A", ["N"], float64)
        body = sdfg.add_state("body")
        init = sdfg.add_state("init", is_start_state=True)
        t = body.add_tasklet("w", [], ["o"], "o = i")
        w = body.add_access("A")
        body.add_edge(t, "o", w, None, Memlet.simple("A", "i"))
        sdfg.add_loop(init, body, None, "i", "0", "i < N", "i + 1")
        restored = SDFG.from_json(sdfg.to_json())
        assert len(find_loops(restored)) == 1

    def test_save_load(self, tmp_path):
        sdfg = build_elementwise_scale()
        path = tmp_path / "prog.json"
        sdfg.save(str(path))
        restored = SDFG.load(str(path))
        assert restored.name == sdfg.name


def _edge_signature(sdfg):
    return [
        (state.label, e.src.guid, e.dst.guid, e.src_conn, e.dst_conn)
        for state in sdfg.states()
        for e in state.edges()
    ]


def _first_map_entry(sdfg):
    return next(n for _, n in sdfg.all_nodes() if isinstance(n, MapEntry))


def _first_memlet_edge(sdfg):
    return next(
        e for st in sdfg.states() for e in st.edges() if e.data.subset is not None
    )


def _replace_map_range(sdfg):
    _first_map_entry(sdfg).map.ranges[0] = Range(0, 3)


def _reassign_memlet_subset(sdfg):
    _first_memlet_edge(sdfg).data.subset = Subset.from_string("0")


def _flip_transient(sdfg):
    desc = next(iter(sdfg.arrays.values()))
    desc.transient = not desc.transient


def _add_node_and_edge(sdfg):
    state = sdfg.start_state
    tasklet = state.add_tasklet("extra", [], ["o"], "o = 1")
    state.add_edge(
        tasklet, "o", state.add_access(next(iter(sdfg.arrays))), None,
        Memlet.simple(next(iter(sdfg.arrays)), "0"),
    )


def _add_symbol(sdfg):
    sdfg.add_symbol("ExtraSymbol")


CLONE_MUTATIONS = [
    _replace_map_range,
    _reassign_memlet_subset,
    _flip_transient,
    _add_node_and_edge,
    _add_symbol,
]


class TestCopyContract:
    """Clones share immutable symbolic values and element types, and deep
    copy every mutable layer (nodes, map range lists, memlets, descriptors,
    states, edges, dicts)."""

    def test_clone_shares_immutable_values(self):
        sdfg = build_elementwise_scale()
        clone = sdfg.clone()
        entry, centry = _first_map_entry(sdfg), _first_map_entry(clone)
        assert centry is not entry and centry.map is not entry.map
        assert centry.map.ranges is not entry.map.ranges
        assert all(a is b for a, b in zip(centry.map.ranges, entry.map.ranges))
        edge, cedge = _first_memlet_edge(sdfg), _first_memlet_edge(clone)
        assert cedge.data is not edge.data
        assert cedge.data.subset is edge.data.subset
        for name, desc in sdfg.arrays.items():
            cdesc = clone.arrays[name]
            assert cdesc is not desc
            assert cdesc.dtype is desc.dtype
            assert all(a is b for a, b in zip(cdesc.shape, desc.shape))
        for name, dtype in sdfg.symbols.items():
            assert clone.symbols[name] is dtype

    def test_clone_preserves_guids_and_order(self):
        sdfg = build_elementwise_scale()
        clone = sdfg.clone()
        assert [n.guid for _, n in clone.all_nodes()] == [
            n.guid for _, n in sdfg.all_nodes()
        ]
        assert _edge_signature(clone) == _edge_signature(sdfg)
        assert list(clone.arrays) == list(sdfg.arrays)

    @pytest.mark.parametrize("mutate", CLONE_MUTATIONS, ids=lambda f: f.__name__[1:])
    def test_mutating_clone_leaves_original_unchanged(self, mutate):
        sdfg = build_elementwise_scale()
        before = sdfg_to_json(sdfg)
        clone = sdfg.clone()
        mutate(clone)
        assert sdfg_to_json(clone) != before
        assert sdfg_to_json(sdfg) == before

    def test_workload_builds_are_private_copies(self):
        from repro.core import FuzzyFlowVerifier
        from repro.pipeline import enumerate_sweep_tasks

        task = enumerate_sweep_tasks(
            suite="npbench", workloads=["gemm"], max_instances=1
        )[0]
        first, second = task.build_sdfg(), task.build_sdfg()
        assert first is not second
        assert sdfg_to_json(first) == sdfg_to_json(second)
        verifier = FuzzyFlowVerifier()
        xform = task.transformation.instantiate()
        assert [m.describe() for m in verifier.enumerate_instances(first, xform)] == [
            m.describe() for m in verifier.enumerate_instances(second, xform)
        ]
        before = sdfg_to_json(second)
        for mutate in CLONE_MUTATIONS:
            mutate(first)
        assert sdfg_to_json(second) == before
        assert sdfg_to_json(task.build_sdfg()) == before


class TestInterstateEdgeFreeSymbols:
    """Regression: free-symbol extraction is ast-based, so builtins used in
    conditions (`abs`, `len`, `int`, ...) are not misreported as free
    symbols and cannot force bogus symbol requirements."""

    def test_builtin_calls_are_not_free_symbols(self):
        edge = InterstateEdge(condition="abs(x) > len(ys) and int(N) > 0")
        assert edge.free_symbols == {"x", "ys", "N"}

    def test_min_max_and_keywords_excluded(self):
        edge = InterstateEdge(
            condition="not (i < Min(N, M))",
            assignments={"i": "min(i + 1, N)"},
        )
        assert edge.free_symbols == {"i", "N", "M"}

    def test_attribute_access_reports_only_the_base(self):
        edge = InterstateEdge(condition="math.floor(x) > 0")
        assert edge.free_symbols == {"x"}

    def test_true_false_none_excluded(self):
        edge = InterstateEdge(condition="flag == True or other is None")
        assert edge.free_symbols == {"flag", "other"}

    def test_assignments_contribute_their_reads(self):
        edge = InterstateEdge(assignments={"k": "j * 2 + offset"})
        assert edge.free_symbols == {"j", "offset"}

    def test_malformed_expression_falls_back_to_regex(self):
        edge = InterstateEdge(condition="x <")
        # Conservative regex fallback still reports the identifier.
        assert "x" in edge.free_symbols

    def test_sdfg_free_symbols_no_longer_demand_builtins(self):
        sdfg = SDFG("cond")
        sdfg.add_array("A", ["N"], float64)
        s0 = sdfg.add_state("s0", is_start_state=True)
        s1 = sdfg.add_state("s1")
        sdfg.add_edge(s0, s1, InterstateEdge(condition="abs(N) > 2"))
        assert sdfg.free_symbols == {"N"}
