"""Tests for pipeline specifications (chains, DAGs, JSON round-trip)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pipeline.spec import ModuleSpec, PipelineSpec, chain


def reference_order(ids, edges) -> list[str]:
    """Repeatedly place the smallest id whose predecessors are all placed.

    On a cyclic graph the modules on (or after) a cycle are never placed,
    so the order comes out short.
    """
    placed: list[str] = []
    while True:
        ready = [
            m for m in ids
            if m not in placed
            and all(a in placed for a, b in edges if b == m)
        ]
        if not ready:
            return placed
        placed.append(min(ready))


def reference_descendants(edges, start) -> set[str]:
    """Every module reachable from ``start`` along directed edges."""
    seen: set[str] = set()
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for a, b in edges:
            if a == node and b not in seen:
                seen.add(b)
                frontier.append(b)
    return seen


class TestChainBuilder:
    def test_chain_structure(self):
        spec = chain("p", ["a", "b", "c"])
        assert spec.module_ids == ["m1", "m2", "m3"]
        assert spec.entry_ids == ["m1"]
        assert spec.exit_ids == ["m3"]
        assert spec.is_chain
        assert spec.successors("m1") == ("m2",)
        assert spec.predecessors("m3") == ("m2",)

    def test_single_module_chain(self):
        spec = chain("p", ["a"])
        assert spec.entry_ids == spec.exit_ids == ["m1"]

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            chain("p", [])

    def test_index_of(self):
        spec = chain("p", ["a", "b", "c"])
        assert spec.index_of("m2") == 1


class TestValidation:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            PipelineSpec(
                name="bad",
                modules=[
                    ModuleSpec("m1", "a"),
                    ModuleSpec("m1", "b"),
                ],
            )

    def test_unknown_reference_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            PipelineSpec(
                name="bad",
                modules=[ModuleSpec("m1", "a", subs=("ghost",))],
            )

    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            PipelineSpec(
                name="bad",
                modules=[
                    ModuleSpec("m1", "a", pres=("m2",), subs=("m2",)),
                    ModuleSpec("m2", "b", pres=("m1",), subs=("m1",)),
                ],
            )

    def test_inconsistent_edges_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            PipelineSpec(
                name="bad",
                modules=[
                    ModuleSpec("m1", "a", subs=("m2",)),
                    ModuleSpec("m2", "b", pres=()),  # missing mirror
                ],
            )

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="connected"):
            PipelineSpec(
                name="bad",
                modules=[ModuleSpec("m1", "a"), ModuleSpec("m2", "b")],
            )

    def test_duplicate_successor_edge_rejected(self):
        # nx would silently deduplicate m1->m2 twice, but the request flow
        # would deliver two tokens over it — reject at construction.
        with pytest.raises(ValueError, match="duplicate successor"):
            PipelineSpec(
                name="bad",
                modules=[
                    ModuleSpec("m1", "a", subs=("m2", "m2")),
                    ModuleSpec("m2", "b", pres=("m1",)),
                ],
            )

    def test_duplicate_predecessor_edge_rejected(self):
        with pytest.raises(ValueError, match="duplicate predecessor"):
            PipelineSpec(
                name="bad",
                modules=[
                    ModuleSpec("m1", "a", subs=("m2",)),
                    ModuleSpec("m2", "b", pres=("m1", "m1")),
                ],
            )

    def test_unreachable_cycle_named(self):
        # A cycle hanging off the reachable DAG: diagnosed as the
        # unreachable region it is, naming the modules.
        with pytest.raises(ValueError, match=r"unreachable.*\['m3', 'm4'\]"):
            PipelineSpec(
                name="bad",
                modules=[
                    ModuleSpec("m1", "a", subs=("m2",)),
                    ModuleSpec("m2", "b", pres=("m1", "m4")),
                    ModuleSpec("m3", "c", pres=("m4",), subs=("m4",)),
                    ModuleSpec("m4", "d", pres=("m3",), subs=("m2", "m3")),
                ],
            )

    def test_all_modules_with_preds_rejected(self):
        with pytest.raises(ValueError, match="no entry module"):
            PipelineSpec(
                name="bad",
                modules=[
                    ModuleSpec("m1", "a", pres=("m2",), subs=("m2",)),
                    ModuleSpec("m2", "b", pres=("m1",), subs=("m1",)),
                ],
            )


class TestDagPaths:
    def dag(self) -> PipelineSpec:
        return PipelineSpec(
            name="dag",
            modules=[
                ModuleSpec("m1", "a", subs=("m2", "m3")),
                ModuleSpec("m2", "b", pres=("m1",), subs=("m4",)),
                ModuleSpec("m3", "c", pres=("m1",), subs=("m4",)),
                ModuleSpec("m4", "d", pres=("m2", "m3")),
            ],
        )

    def test_not_a_chain(self):
        assert not self.dag().is_chain

    def test_paths_from_entry(self):
        paths = self.dag().paths_from("m1")
        assert sorted(paths) == [["m2", "m4"], ["m3", "m4"]]

    def test_paths_from_exit_is_empty_path(self):
        assert self.dag().paths_from("m4") == [[]]

    def test_paths_cached(self):
        spec = self.dag()
        assert spec.paths_from("m1") is spec.paths_from("m1")

    def test_downstream(self):
        assert self.dag().downstream("m1") == ["m2", "m3", "m4"]
        assert self.dag().downstream("m4") == []

    def test_topological_order_valid(self):
        spec = self.dag()
        order = spec.topological_order()
        assert order.index("m1") < order.index("m2") < order.index("m4")
        assert order.index("m1") < order.index("m3") < order.index("m4")


class TestFrozenStructure:
    """The precomputed DAG views must agree with a brute-force recomputation."""

    def wide(self) -> PipelineSpec:
        # Two sequential forks feeding one join plus a diamond: exercises
        # nested reachability the per-edge accumulation must get right.
        return PipelineSpec(
            name="wide",
            modules=[
                ModuleSpec("s", "a", subs=("f1", "f2")),
                ModuleSpec("f1", "b", pres=("s",), subs=("j",)),
                ModuleSpec("f2", "c", pres=("s",), subs=("g1", "g2")),
                ModuleSpec("g1", "d", pres=("f2",), subs=("j",)),
                ModuleSpec("g2", "e", pres=("f2",), subs=("j",)),
                ModuleSpec("j", "f", pres=("f1", "g1", "g2"), subs=("t",)),
                ModuleSpec("t", "g", pres=("j",)),
            ],
        )

    def test_downstream_matches_reference(self):
        spec = self.wide()
        edges = {(mid, s) for mid in spec.module_ids for s in spec.successors(mid)}
        topo = reference_order(spec.module_ids, edges)
        assert spec.topological_order() == topo
        for mid in spec.module_ids:
            reach = reference_descendants(edges, mid)
            assert spec.downstream(mid) == [m for m in topo if m in reach]
            assert spec.downstream_set(mid) == frozenset(reach)

    def test_downstream_returns_fresh_list(self):
        spec = self.wide()
        first = spec.downstream("s")
        first.append("corrupted")
        assert "corrupted" not in spec.downstream("s")

    def test_topological_order_returns_fresh_list(self):
        spec = self.wide()
        order = spec.topological_order()
        original = list(order)
        order.clear()
        assert spec.topological_order() == original

    def test_token_flow_tables(self):
        spec = self.wide()
        assert spec.join_ids == ("j",)
        assert set(spec.fork_ids) == {"s", "f2"}
        assert spec.exit_count == 1
        assert spec.in_degree("j") == 3
        assert spec.in_degree("s") == 0
        assert spec.in_degree("t") == 1

    def test_edge_kill_plan_single_branch(self):
        spec = self.wide()
        # Not routing s -> f1 kills f1 only; j survives one token short.
        plan = spec.edge_kill_plan("s", "f1")
        assert plan.dead == ("f1",)
        assert plan.dead_exits == 0
        assert plan.join_deltas == (("j", 1),)
        # Not routing f2 -> g1 kills g1 only, same border join.
        plan = spec.edge_kill_plan("f2", "g1")
        assert plan.dead == ("g1",)
        assert plan.join_deltas == (("j", 1),)

    def test_edge_kill_plan_kills_nested_fork(self):
        spec = self.wide()
        # Not routing s -> f2 kills the whole nested fork: g1 and g2 can
        # never receive a token, so j loses two of its three in-edges.
        plan = spec.edge_kill_plan("s", "f2")
        assert set(plan.dead) == {"f2", "g1", "g2"}
        assert plan.dead_exits == 0
        assert plan.join_deltas == (("j", 2),)

    def test_edge_kill_plan_non_fork_edge_raises(self):
        spec = self.wide()
        with pytest.raises(ValueError, match="not a fork edge"):
            spec.edge_kill_plan("j", "t")
        with pytest.raises(ValueError, match="not a fork edge"):
            spec.edge_kill_plan("s", "t")

    def test_death_plan_propagates_to_exit(self):
        spec = self.wide()
        # If j never executes, everything downstream of it dies too.
        plan = spec.death_plan("j")
        assert plan.dead == ("t",)
        assert plan.dead_exits == 1
        assert plan.join_deltas == ()
        # An exit's death plan is empty (nothing downstream).
        assert spec.death_plan("t").dead == ()

    def test_index_of_unknown_raises(self):
        with pytest.raises(ValueError):
            self.wide().index_of("nope")

    def test_chain_has_no_joins_or_forks(self):
        spec = chain("c", ["a", "b", "c"])
        assert spec.join_ids == ()
        assert spec.fork_ids == ()
        assert spec.exit_count == 1
        for mid in spec.module_ids:
            assert spec.in_degree(mid) <= 1


class TestJsonRoundTrip:
    def test_round_trip(self):
        spec = chain("rt", ["a", "b"])
        clone = PipelineSpec.from_json(spec.to_json())
        assert clone.name == "rt"
        assert clone.module_ids == spec.module_ids
        assert clone["m1"].model == "a"
        assert clone.successors("m1") == ("m2",)

    def test_from_file(self, tmp_path):
        spec = chain("ff", ["a", "b", "c"])
        path = tmp_path / "pipe.json"
        path.write_text(spec.to_json())
        loaded = PipelineSpec.from_file(path)
        assert loaded.module_ids == spec.module_ids

    def test_contains_and_getitem(self):
        spec = chain("p", ["a"])
        assert "m1" in spec
        assert "mX" not in spec
        assert spec["m1"].model == "a"
        assert len(spec) == 1


# Ids whose string order differs from any natural numbering ("m10" < "m2").
_IDS = ("m2", "m10", "b", "a1", "z", "m1", "aa")


@st.composite
def _graphs(draw):
    """(declared ids, edge set) of a small random graph.

    A spine gives every module but the first a predecessor and the first
    none, so all modules are reachable from one entry.  Edges point forward
    in declaration order (acyclic) unless back edges are drawn.
    """
    ids = draw(st.permutations(_IDS))[: draw(st.integers(1, len(_IDS)))]
    n = len(ids)
    pairs = set(draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12,
    )))
    if draw(st.booleans()):
        pairs = {(i, j) for i, j in pairs if j != 0}
        pairs |= {(draw(st.integers(0, j - 1)), j) for j in range(1, n)}
    if not draw(st.booleans()):
        pairs = {(i, j) for i, j in pairs if i < j}
    return ids, {(ids[i], ids[j]) for i, j in pairs}


@settings(max_examples=300, deadline=None)
@given(_graphs())
def test_structure_matches_reference(graph):
    ids, edges = graph
    modules = [
        ModuleSpec(
            mid, "model",
            pres=tuple(sorted(a for a, b in edges if b == mid)),
            subs=tuple(sorted(b for a, b in edges if a == mid)),
        )
        for mid in ids
    ]
    entries = [m for m in ids if not any(b == m for _, b in edges)]
    from_entries = set(entries).union(
        *(reference_descendants(edges, e) for e in entries)
    )
    undirected = edges | {(b, a) for a, b in edges}
    connected = {ids[0]} | reference_descendants(undirected, ids[0]) == set(ids)
    order = reference_order(ids, edges)

    if not entries or from_entries != set(ids):
        with pytest.raises(ValueError, match="no entry module|unreachable"):
            PipelineSpec(name="g", modules=modules)
    elif len(order) < len(ids):
        with pytest.raises(ValueError, match="contains a cycle"):
            PipelineSpec(name="g", modules=modules)
    elif not connected:
        with pytest.raises(ValueError, match="is not connected"):
            PipelineSpec(name="g", modules=modules)
    else:
        spec = PipelineSpec(name="g", modules=modules)
        assert spec.topological_order() == order
        for mid in ids:
            reach = reference_descendants(edges, mid)
            assert spec.downstream(mid) == [m for m in order if m in reach]
            assert spec.downstream_set(mid) == frozenset(reach)
