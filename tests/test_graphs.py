import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from missdag.errors import ConfigError, CycleDetected, SchemaMismatch
from missdag.graphs import (
    Dag,
    MechanismClass,
    classify_mechanism,
    d_separated,
    export_dot,
    find_active_path,
    graph_from_json,
    graph_to_json,
    implied_mgraph,
)

from oracles import (
    _active,
    classify_with_proxies,
    dsep_by_path_enumeration,
    find_cycle,
    parse_dot,
    random_dag,
    shortest_active_path_length,
)


class TestDag:
    def test_vertices_keep_declared_order(self):
        g = Dag(["c", "a", "b"], [("c", "a")])
        assert g.vertices == ("c", "a", "b")

    def test_parents_and_children(self):
        g = Dag(["a", "b", "c"], [("a", "b"), ("c", "b")])
        assert g.parents("b") == {"a", "c"}
        assert g.children("a") == {"b"}
        assert g.children("b") == frozenset()

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(SchemaMismatch, match="duplicate vertex names in declaration"):
            Dag(["a", "a"])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(SchemaMismatch, match="unknown vertex 'zz'"):
            Dag(["a"], [("a", "zz")])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(SchemaMismatch, match=r"duplicate edge \('a', 'b'\)"):
            Dag(["a", "b"], [("a", "b"), ("a", "b")])

    def test_self_loop_rejected(self):
        with pytest.raises(CycleDetected):
            Dag(["a"], [("a", "a")])

    def test_cycle_rejected_with_witness(self):
        with pytest.raises(CycleDetected) as exc:
            Dag(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
        cyc = exc.value.cycle
        # witness is a closed directed walk in the offending graph
        assert cyc[0] == cyc[-1]
        edges = {("a", "b"), ("b", "c"), ("c", "a")}
        assert all((p, c) in edges for p, c in zip(cyc, cyc[1:]))

    @given(st.integers(min_value=0, max_value=10 ** 9))
    @settings(max_examples=200, deadline=None)
    def test_cycle_witness_matches_recursive_oracle(self, seed):
        rng = np.random.default_rng(seed)
        names = [f"v{i}" for i in range(int(rng.integers(2, 9)))]
        rng.shuffle(names)
        pairs = [(a, b) for a in names for b in names if a != b]
        edges = [e for e in pairs if rng.random() < 0.3]
        expected = find_cycle(names, edges)
        if expected is None:
            Dag(names, edges)
        else:
            with pytest.raises(CycleDetected) as exc:
                Dag(names, edges)
            assert exc.value.cycle == expected

    def test_deep_chain_builds(self):
        names = [f"v{i}" for i in range(5000)]
        g = Dag(names, list(zip(names, names[1:])))
        assert g.topological_order()[-1] == "v4999"
        with pytest.raises(CycleDetected) as exc:
            Dag(names, list(zip(names, names[1:])) + [("v4999", "v0")])
        assert len(exc.value.cycle) == 5001

    def test_topological_order_respects_edges(self):
        g = Dag(["d", "c", "b", "a"], [("a", "b"), ("b", "c"), ("a", "d")])
        order = g.topological_order()
        pos = {v: i for i, v in enumerate(order)}
        assert set(order) == set(g.vertices)
        assert all(pos[p] < pos[c] for p, c in g.edges)

    def test_ancestors_includes_self(self):
        g = Dag(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert g.ancestors(["c"]) == {"a", "b", "c"}
        assert g.ancestors(["a"]) == {"a"}

    def test_equality_and_hash(self):
        g1 = Dag(["a", "b"], [("a", "b")])
        g2 = Dag(["a", "b"], [("a", "b")])
        assert g1 == g2 and hash(g1) == hash(g2)
        assert g1 != Dag(["a", "b"])


class TestDSeparation:
    # [DERIVED] textbook chain / fork / collider behavior
    def test_chain_blocked_by_middle(self):
        g = Dag(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert not d_separated(g, ["a"], ["c"], [])
        assert d_separated(g, ["a"], ["c"], ["b"])

    def test_fork_blocked_by_root(self):
        g = Dag(["a", "b", "c"], [("b", "a"), ("b", "c")])
        assert not d_separated(g, ["a"], ["c"], [])
        assert d_separated(g, ["a"], ["c"], ["b"])

    def test_collider_opened_by_conditioning(self):
        g = Dag(["a", "b", "c"], [("a", "b"), ("c", "b")])
        assert d_separated(g, ["a"], ["c"], [])
        assert not d_separated(g, ["a"], ["c"], ["b"])

    def test_collider_opened_by_descendant(self):
        g = Dag(["a", "b", "c", "d"], [("a", "b"), ("c", "b"), ("b", "d")])
        assert d_separated(g, ["a"], ["c"], [])
        assert not d_separated(g, ["a"], ["c"], ["d"])

    def test_overlapping_sets_rejected(self):
        g = Dag(["a", "b"], [("a", "b")])
        for x, y, z in ((["a"], ["a"], []), (["a"], ["b"], ["b"])):
            with pytest.raises(ConfigError, match="must be pairwise disjoint"):
                d_separated(g, x, y, z)

    def test_unknown_vertex_rejected(self):
        g = Dag(["a", "b"])
        with pytest.raises(SchemaMismatch, match="unknown vertex 'zz'"):
            d_separated(g, ["a"], ["zz"], [])

    @given(st.integers(min_value=0, max_value=10 ** 9))
    @settings(max_examples=60, deadline=None)
    def test_matches_path_enumeration_on_random_graphs(self, seed):
        rng = np.random.default_rng(seed)
        names = ["a", "b", "c", "d", "e"]
        g = random_dag(rng, names, edge_prob=0.45)
        rest = list(names)
        rng.shuffle(rest)
        x, y = rest[0], rest[1]
        z = [v for v in rest[2:] if rng.random() < 0.5]
        assert d_separated(g, [x], [y], z) == dsep_by_path_enumeration(
            g, [x], [y], z)

    def test_matches_path_enumeration_with_set_arguments(self):
        rng = np.random.default_rng(7)
        names = ["a", "b", "c", "d", "e"]
        for _ in range(50):
            g = random_dag(rng, names, edge_prob=0.4)
            x, y = ["a", "b"], ["d"]
            z = [v for v in ("c", "e") if rng.random() < 0.5]
            assert d_separated(g, x, y, z) == dsep_by_path_enumeration(g, x, y, z)


class TestFindActivePath:
    @given(st.integers(min_value=0, max_value=10 ** 9))
    @settings(max_examples=300, deadline=None)
    def test_witness_is_a_shortest_active_path(self, seed):
        rng = np.random.default_rng(seed)
        names = [f"v{i}" for i in range(int(rng.integers(3, 9)))]
        g = random_dag(rng, names, edge_prob=float(rng.uniform(0.2, 0.7)))
        # a random partition into x, y, z and the vertices outside the query
        side = rng.integers(0, 4, size=len(names))
        side[:2] = rng.permutation(2)
        x, y, z = ([v for v, s in zip(names, side) if s == k] for k in range(3))
        path = find_active_path(g, x, y, z)
        assert (path is None) == dsep_by_path_enumeration(g, x, y, z)
        assert d_separated(g, x, y, z) == (path is None)
        if path is None:
            return
        assert path[0] in x and path[-1] in y
        assert len(set(path)) == len(path)
        assert all((a, b) in g.edges or (b, a) in g.edges
                   for a, b in zip(path, path[1:]))
        assert _active(g, path, set(z))
        assert len(path) == shortest_active_path_length(g, x, y, z)

    def test_witness_is_a_real_path(self):
        g = Dag(["a", "b", "c"], [("a", "b"), ("b", "c")])
        path = find_active_path(g, ["a"], ["c"], [])
        assert path == ["a", "b", "c"]

    def test_fifty_vertex_queries_are_fast(self):
        # an exhaustive simple-path search runs past 3 s on 7 of the 10
        # connected queries here
        rng = np.random.default_rng(2)
        names = [f"v{i}" for i in range(50)]
        g = random_dag(rng, names, edge_prob=0.08)
        queries = []
        for _ in range(15):
            order = [str(v) for v in rng.permutation(names)]
            queries.append(([order[0]], [order[1]], order[2:2 + int(rng.integers(0, 4))]))
        t0 = time.monotonic()
        paths = [find_active_path(g, x, y, z) for x, y, z in queries]
        assert time.monotonic() - t0 < 1.0
        assert any(p is not None for p in paths)
        for (x, y, z), path in zip(queries, paths):
            if path is not None:
                assert path[0] == x[0] and path[-1] == y[0]
                assert _active(g, path, set(z))


class TestClassifyMechanism:
    def _base(self):
        return Dag(["w", "x", "y"], [("w", "x"), ("x", "y")])

    def test_no_indicator_parents_is_mcar(self):
        m = implied_mgraph(self._base(), ["x"], {"x": ()})
        assert classify_mechanism(m) is MechanismClass.MCAR

    def test_fully_observed_driver_is_mar(self):
        m = implied_mgraph(self._base(), ["x"], {"x": ("w",)})
        assert classify_mechanism(m) is MechanismClass.MAR

    def test_self_masking_is_mnar(self):
        m = implied_mgraph(self._base(), ["x"], {"x": ("x",)})
        assert classify_mechanism(m) is MechanismClass.MNAR

    def test_partially_observed_driver_is_mnar(self):
        m = implied_mgraph(self._base(), ["x", "y"], {"x": (), "y": ("x",)})
        assert classify_mechanism(m) is MechanismClass.MNAR

    def test_no_partially_observed_variables_is_mcar(self):
        m = implied_mgraph(self._base(), [], {})
        assert classify_mechanism(m) is MechanismClass.MCAR

    def test_graph_is_the_dag_plus_one_indicator_per_variable(self):
        m = implied_mgraph(self._base(), ["y", "x"], {"x": ("w", "x")})
        assert m.indicators == {"y": "R_y", "x": "R_x"}
        assert m.graph == Dag(["w", "x", "y", "R_y", "R_x"],
                              [("w", "x"), ("x", "y"), ("w", "R_x"), ("x", "R_x")])

    def test_indicator_name_a_vertex_holds_is_prefixed_again(self):
        # R_a is a column, so a's indicator is R_R_a, and R_a's the next name
        m = implied_mgraph(Dag(["a", "R_a"]), ["a", "R_a"], {"a": ("R_a",)})
        assert m.indicators == {"a": "R_R_a", "R_a": "R_R_R_a"}
        assert m.graph == Dag(["a", "R_a", "R_R_a", "R_R_R_a"], [("R_a", "R_R_a")])

    def test_variable_listed_twice_rejected(self):
        with pytest.raises(SchemaMismatch, match="duplicate vertex names"):
            implied_mgraph(self._base(), ["x", "y", "x"], {})

    def test_unknown_indicator_parent_rejected(self):
        with pytest.raises(SchemaMismatch, match="unknown vertex 'zz'"):
            implied_mgraph(self._base(), ["x"], {"x": ("zz",)})

    @given(st.integers(min_value=0, max_value=10 ** 9))
    @settings(max_examples=400, deadline=None)
    def test_matches_the_proxy_wired_mgraph(self, seed):
        rng = np.random.default_rng(seed)
        names = [f"v{i}" for i in range(int(rng.integers(1, 8)))]
        g = random_dag(rng, names, edge_prob=float(rng.uniform(0.1, 0.7)))
        partial = [v for v in names if rng.random() < 0.5]
        # a variable may cause its own missingness (self-masking)
        parents = {x: [v for v in names if rng.random() < 0.3] for x in partial}
        assert classify_mechanism(implied_mgraph(g, partial, parents)) is \
            classify_with_proxies(g, partial, parents)


class TestSerialization:
    def test_dot_round_trip(self):
        g = Dag(["b", "a", "c"], [("b", "a"), ("a", "c")])
        assert parse_dot(export_dot(g)) == g

    @given(st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=4, unique=True))
    @settings(max_examples=50, deadline=None)
    def test_dot_round_trips_any_name(self, names):
        # quotes, backslashes and newlines included
        g = Dag(names, list(zip(names, names[1:])))
        assert parse_dot(export_dot(g, roles={names[0]: names[-1]})) == g

    def test_dot_is_deterministic(self):
        g = Dag(["b", "a", "c"], [("a", "c"), ("b", "a")])
        assert export_dot(g) == export_dot(Dag(["b", "a", "c"],
                                               [("b", "a"), ("a", "c")]))

    def test_dot_roles_color_vertices(self):
        g = Dag(["t", "o"], [("t", "o")])
        text = export_dot(g, roles={"t": "treatment", "o": "outcome"})
        assert 'fillcolor="blue"' in text and 'fillcolor="red"' in text

    def test_json_round_trip(self):
        g = Dag(["b", "a"], [("b", "a")])
        assert graph_from_json(graph_to_json(g)) == g

    def test_unparseable_dot_rejected(self):
        with pytest.raises(ValueError, match="unparseable DOT"):
            parse_dot('digraph G {\n  a -> b\n}\n')
