import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symbed.graph import (_MAX_NODES, DatasetStats, Graph, GraphFormatError,
                          LabelError, LabelTable, connected_components,
                          dataset_stats, from_arcs, load_edge_list,
                          load_labels, write_edge_list)

from conftest import require_dataset
from oracles import from_arcs_oracle, neighbors


def _write(tmp_path, text, name="edges.tsv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def _triples(h):
    """Sorted (source, target[, weight bits]) of every arc of h."""
    cols = [np.repeat(np.arange(h.num_nodes), h.out_degrees).tolist(),
            h.targets.tolist()]
    if h.weights is not None:
        cols.append(h.weights.view(np.uint64).tolist())
    return sorted(zip(*cols))


class TestLoadEdgeList:
    def test_single_directed_line(self, tmp_path):
        g = load_edge_list(_write(tmp_path, "0\t1\n"), directed=True)
        assert g.num_nodes == 2
        assert g.num_edges == 1
        assert list(neighbors(g, 0)) == [1]

    def test_undirected_produces_both_arcs(self, tmp_path):
        g = load_edge_list(_write(tmp_path, "0\t1\n"), directed=False)
        assert g.num_edges == 2
        assert list(neighbors(g, 1)) == [0]

    def test_malformed_line_reports_number(self, tmp_path):
        with pytest.raises(GraphFormatError, match=":1"):
            load_edge_list(_write(tmp_path, "a\tb\n"))

    def test_malformed_second_line(self, tmp_path):
        with pytest.raises(GraphFormatError, match=":2"):
            load_edge_list(_write(tmp_path, "0\t1\n0 1\n"))

    @pytest.mark.parametrize("text", [
        "0\t1\n1\t99999999999999999999\n",    # canonical: the fast path falls back
        "# c\n99999999999999999999\t1\t0.5\n",  # line parser only
        # ids at and above isqrt(2**63 - 1), the node count whose packed
        # arc keys still fit in int64
        "0\t1\n1\t3037000499\n",
        "# c\n3037000499\t1\t0.5\n",
        "0\t1\n3037000500\t1\n",
        "# c\n3037000500\t1\t0.5\n",
    ])
    def test_id_beyond_int64_reports_line(self, tmp_path, text):
        with pytest.raises(GraphFormatError, match=r"edges\.tsv:2: node id .* exceeds"):
            load_edge_list(_write(tmp_path, text))

    def test_negative_weight(self, tmp_path):
        with pytest.raises(GraphFormatError, match="negative weight"):
            load_edge_list(_write(tmp_path, "0\t1\t-2.0\n"))

    @pytest.mark.parametrize("text,message", [
        ("0\t1\n-1\t2\n", r"edges\.tsv:2: negative node id"),
        ("0\t1\t0.5\n1\t2\theavy\n",
         r"edges\.tsv:2: weight must be a number, got 'heavy'"),
        ("0\t1\t0.5\n1\t2\tnan\n", r"edges\.tsv:2: weight must be finite"),
        ("0\t1\t0.5\n1\t2\tinf\n", r"edges\.tsv:2: weight must be finite"),
    ])
    def test_bad_field_reports_line(self, tmp_path, text, message):
        with pytest.raises(GraphFormatError, match=message):
            load_edge_list(_write(tmp_path, text))

    def test_empty_file(self, tmp_path):
        with pytest.raises(GraphFormatError, match="no edges"):
            load_edge_list(_write(tmp_path, "# only a comment\n\n"))

    def test_duplicates_and_self_loops_kept(self, tmp_path):
        g = load_edge_list(_write(tmp_path, "0\t1\n0\t1\n2\t2\n"), directed=True)
        assert g.num_edges == 3
        assert list(neighbors(g, 0)) == [1, 1]
        assert list(neighbors(g, 2)) == [2]

    def test_weights_parsed(self, tmp_path):
        g = load_edge_list(_write(tmp_path, "0\t1\t0.5\n1\t0\t2\n"), directed=True)
        assert g.weights is not None
        assert g.weights[g.offsets[0]] == 0.5

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        g = load_edge_list(_write(tmp_path, "# header\n\n0\t1\n"), directed=True)
        assert g.num_edges == 1

    def test_immutable_after_load(self, tmp_path):
        g = load_edge_list(_write(tmp_path, "0\t1\n"), directed=True)
        with pytest.raises(ValueError):
            g.targets[0] = 0


class TestRoundTrip:
    @pytest.mark.parametrize("directed", [True, False])
    def test_arc_multiset_preserved(self, tmp_path, directed):
        rng = np.random.default_rng(11)
        n = 25
        src = rng.integers(0, n, 70)
        dst = rng.integers(0, n, 70)
        g = from_arcs(n, src, dst, directed=directed)
        path = tmp_path / "out.tsv"
        write_edge_list(g, path)
        g2 = load_edge_list(path, directed=directed)
        arcs = sorted(zip(np.repeat(np.arange(n), g.out_degrees), g.targets))
        arcs2 = sorted(zip(np.repeat(np.arange(g2.num_nodes), g2.out_degrees), g2.targets))
        assert arcs == arcs2

    def test_undirected_self_loops_round_trip(self, tmp_path):
        g = load_edge_list(_write(tmp_path, "0\t0\n0\t0\n0\t1\n"), directed=False)
        assert g.num_edges == 6  # two self-loop pairs + one symmetric pair
        path = tmp_path / "back.tsv"
        write_edge_list(g, path)
        g2 = load_edge_list(path, directed=False)
        assert g2.num_edges == 6

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(1, 7), directed=st.booleans())
    def test_weighted_arcs_round_trip(self, data, n, directed):
        # from_arcs mirrors each undirected edge, so a node's loops of
        # weights a and b are stored [a, a, b, b]
        ids = st.integers(0, n - 1)
        edges = data.draw(st.lists(st.tuples(ids, ids), min_size=1, max_size=12))
        weight = st.one_of(st.sampled_from([0.0, 1.0, 2.0]),
                           st.floats(0.0, 1e300, allow_subnormal=True))
        w = np.array(data.draw(st.lists(weight, min_size=len(edges),
                                        max_size=len(edges))))
        src, dst = (np.array(c) for c in zip(*edges))
        g = from_arcs(n, src, dst, w, directed=directed)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "w.tsv")
            write_edge_list(g, path)
            g2 = load_edge_list(path, directed=directed)
        assert _triples(g2) == _triples(g)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(1, 7), weighted=st.booleans())
    def test_undirected_edges_round_trip(self, data, n, weighted):
        # any edge list, each edge once: self-loops, parallel edges, weights
        # or none; from_arcs stores both arcs of each, so the file reloads
        # as the same arcs
        ids = st.integers(0, n - 1)
        edges = data.draw(st.lists(st.tuples(ids, ids), min_size=1, max_size=12))
        edges += data.draw(st.lists(st.sampled_from(edges), max_size=4))
        w = None
        if weighted:
            w = data.draw(st.lists(st.floats(0.0, 1e300, allow_subnormal=True),
                                   min_size=len(edges), max_size=len(edges)))
        src, dst = zip(*edges)
        g = from_arcs(n, src, dst, w, directed=False)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "u.tsv")
            write_edge_list(g, path)
            g2 = load_edge_list(path, directed=False)
        assert _triples(g2) == _triples(g)

    def test_interleaved_weighted_self_loops_paired_by_weight(self, tmp_path):
        # from_arcs stores loops of weights a and b as [a, a, b, b]; a Graph
        # built directly may hold their halves as [a, b, a, b]
        g = Graph(num_nodes=1, offsets=np.array([0, 4], dtype=np.int64),
                  targets=np.zeros(4, dtype=np.int64),
                  weights=np.array([0.5, 2.0, 0.5, 2.0]), directed=False)
        path = tmp_path / "loops.tsv"
        write_edge_list(g, path)
        assert path.read_text() == "0\t0\t0.5\n0\t0\t2\n"
        assert _triples(load_edge_list(path, directed=False)) == _triples(g)



@st.composite
def arc_lists(draw):
    """Arc arrays with self-loops, parallel arcs of distinct weights, trailing
    isolated nodes and empty lists, directed or (one entry per edge)
    undirected."""
    n = draw(st.integers(0, 40))
    ids = st.integers(0, max(n - 1, 0))
    pairs = draw(st.lists(st.tuples(ids, ids), max_size=30 if n else 0))
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=10))  # parallel
    directed = draw(st.booleans())
    src = np.array([u for u, _ in pairs], dtype=np.int64)
    dst = np.array([v for _, v in pairs], dtype=np.int64)
    weights = None
    if draw(st.booleans()):
        # distinct weights, so parallel arcs' order shows in the weights
        weights = np.array(draw(st.permutations(range(len(pairs)))), dtype=np.float64)
    return n, src, dst, weights, directed


class TestFromArcs:
    @settings(max_examples=200, deadline=None)
    @given(arcs=arc_lists())
    def test_matches_lexsort_oracle(self, arcs):
        n, src, dst, weights, directed = arcs
        g = from_arcs(n, src, dst, weights, directed=directed)
        want = from_arcs_oracle(n, src, dst, weights, directed=directed)
        assert g.num_nodes == want.num_nodes and g.directed == want.directed
        for got, exp in ((g.offsets, want.offsets), (g.targets, want.targets)):
            assert got.dtype == exp.dtype and got.tobytes() == exp.tobytes()
        if weights is None:
            assert g.weights is None and want.weights is None
        else:
            assert g.weights.dtype == want.weights.dtype
            assert g.weights.tobytes() == want.weights.tobytes()

    def test_inputs_left_unchanged(self):
        src, dst = np.array([2, 0, 1]), np.array([0, 2, 1])
        from_arcs(3, src, dst)
        assert src.tolist() == [2, 0, 1] and dst.tolist() == [0, 2, 1]

    @pytest.mark.parametrize("src, dst, end", [
        ([0], [3], "target"), ([0], [-1], "target"),
        ([3], [0], "source"), ([-1], [0], "source"),
    ])
    def test_id_out_of_range(self, src, dst, end):
        # packed as src * 3 + dst, (0, 3) would alias to the valid arc (1, 0)
        with pytest.raises(ValueError, match=f"{end} node id out of range"):
            from_arcs(3, src, dst)

    @pytest.mark.parametrize("directed", [True, False])
    @pytest.mark.parametrize("src, dst, weights", [
        ([0], [1], [1.0, 2.0]), ([0, 1], [1, 0], [1.0]),
    ])
    def test_weight_count_must_match_arcs(self, src, dst, weights, directed):
        with pytest.raises(ValueError,
                           match=f"weights has {len(weights)} entries, src has {len(src)}"):
            from_arcs(2, src, dst, weights, directed=directed)

    @pytest.mark.parametrize("offsets,targets,weights,message", [
        ([0, 1], [1], None, "offsets length must be num_nodes \\+ 1"),
        ([1, 1, 1], [], None, "offsets must be nondecreasing and start at 0"),
        ([0, 2, 1], [1], None, "offsets must be nondecreasing and start at 0"),
        ([0, 1, 2], [1], None, r"offsets\[-1\] must equal the arc count"),
        ([0, 1, 1], [2], None, "target node id out of range"),
        ([0, 1, 1], [1], [1.0, 2.0], "one weight per arc required"),
        ([0, 1, 1], [1], [-1.0], "negative arc weight"),
        ([0, 1, 1], [1], [np.nan], "arc weights must be finite"),
        ([0, 1, 1], [1], [np.inf], "arc weights must be finite"),
    ])
    def test_graph_refuses_inconsistent_arrays(self, offsets, targets, weights,
                                               message):
        with pytest.raises(ValueError, match=message):
            Graph(num_nodes=2, offsets=np.array(offsets, dtype=np.int64),
                  targets=np.array(targets, dtype=np.int64),
                  weights=None if weights is None else np.array(weights),
                  directed=True)

    def test_node_count_beyond_packed_key_bound(self):
        assert _MAX_NODES == 3_037_000_499
        with pytest.raises(ValueError, match="num_nodes 3037000500 exceeds 3037000499"):
            from_arcs(_MAX_NODES + 1, [0], [1])


@st.composite
def multigraphs(draw):
    """Small directed or undirected multigraphs with self-loops and parallel arcs."""
    n = draw(st.integers(1, 2000))
    ids = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(ids, ids), min_size=1, max_size=30))
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=5))  # parallel arcs
    src, dst = (np.array(c) for c in zip(*pairs))
    return from_arcs(n, src, dst, directed=draw(st.booleans()))


class TestCanonicalFastPath:
    @settings(max_examples=60, deadline=None)
    @given(g=multigraphs())
    def test_matches_line_parser(self, g):
        # a leading comment sends the same arcs through the line parser
        with tempfile.TemporaryDirectory() as tmp:
            fast, slow = Path(tmp, "fast.tsv"), Path(tmp, "slow.tsv")
            write_edge_list(g, fast)
            slow.write_text("# x\n" + fast.read_text())
            a = load_edge_list(fast, directed=g.directed)
            b = load_edge_list(slow, directed=g.directed)
        assert a.num_nodes == b.num_nodes
        assert a.directed == b.directed == g.directed
        assert np.array_equal(a.offsets, b.offsets)
        assert np.array_equal(a.targets, b.targets)
        assert a.weights is None and b.weights is None


class TestLoadLabels:
    def test_single_label(self, tmp_path):
        t = load_labels(_write(tmp_path, "0\t2\n", "l.tsv"), num_nodes=3)
        assert t.labels[0] == {2}
        assert t.labels[1] == frozenset() and t.labels[2] == frozenset()
        assert t.label_counts[0] == 1

    def test_multi_label(self, tmp_path):
        t = load_labels(_write(tmp_path, "5\t1,3\n", "l.tsv"), num_nodes=6)
        assert t.labels[5] == {1, 3}
        assert t.label_counts[5] == 2

    def test_node_out_of_range(self, tmp_path):
        with pytest.raises(LabelError, match="out of range"):
            load_labels(_write(tmp_path, "9\t0\n", "l.tsv"), num_nodes=5)

    def test_bad_class_id(self, tmp_path):
        with pytest.raises(LabelError):
            load_labels(_write(tmp_path, "0\tx\n", "l.tsv"), num_nodes=2)
        with pytest.raises(LabelError, match="negative"):
            load_labels(_write(tmp_path, "0\t-1\n", "l.tsv"), num_nodes=2)

    def test_indicator_shape(self, tmp_path):
        t = load_labels(_write(tmp_path, "0\t1\n2\t0,1\n", "l.tsv"), num_nodes=3)
        ind = t.indicator
        assert ind.shape == (3, 2)
        assert ind[2].tolist() == [True, True]

    def test_absurd_class_id_refused_before_allocating(self, tmp_path):
        # a 3 x 2**40 float64 matrix is 24 TiB: refused by the size check
        path = _write(tmp_path, "0\t1\n1\t%d\n" % 2**40, "l.tsv")
        with pytest.raises(LabelError, match=r"l\.tsv:2: class id 1099511627776 "):
            load_labels(path, num_nodes=3)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), n=st.integers(1, 12))
    def test_canonical_file_matches_line_parser(self, data, n):
        # canonical lines, repeats included; a leading comment sends the
        # same lines through the line parser
        pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                             st.integers(0, 9)), min_size=1))
        text = "".join(f"{node}\t{c}\n" for node, c in pairs)
        with tempfile.TemporaryDirectory() as tmp:
            fast = load_labels(_write(Path(tmp), text, "fast.tsv"), num_nodes=n)
            slow = load_labels(_write(Path(tmp), "# x\n" + text, "slow.tsv"),
                               num_nodes=n)
        assert fast.indicator.shape == slow.indicator.shape
        assert fast.indicator.tobytes() == slow.indicator.tobytes()

    @pytest.mark.parametrize("text,message", [
        ("0\t1\n1\t0\n7\t0\n", r"l\.tsv:3: node id 7 out of range \[0, 3\)"),
        ("2\t0\n3\t0\n", r"l\.tsv:2: node id 3 out of range"),
        ("0\t0\n999999999999999999\t0\n", r"l\.tsv:2: node id 999999999999999999 "),
        ("0\t0\n9999999999999999999\t0\n", r"l\.tsv:2: node id 9999999999999999999 "),
        ("0\t0\n1\t9999999999999999999\n", r"l\.tsv:2: class id 9999999999999999999 "),
    ])
    def test_bad_ids_in_canonical_file_report_line(self, tmp_path, text, message):
        with pytest.raises(LabelError, match=message):
            load_labels(_write(tmp_path, text, "l.tsv"), num_nodes=3)

    @pytest.mark.parametrize("text,message", [
        ("0\t1\n1 0\n", r"l\.tsv:2: expected 'node<TAB>class\[,class\.\.\.\]'"),
        ("0\t1\n1\t0\t2\n", r"l\.tsv:2: expected 'node<TAB>class"),
        ("0\t1\nx\t0\n", r"l\.tsv:2: node id must be an integer"),
    ])
    def test_malformed_line_reports_line(self, tmp_path, text, message):
        with pytest.raises(LabelError, match=message):
            load_labels(_write(tmp_path, text, "l.tsv"), num_nodes=3)

    def test_table_rejects_other_arrays(self):
        with pytest.raises(LabelError, match="2-d bool"):
            LabelTable(np.array([True, False]))
        with pytest.raises(LabelError, match="2-d bool"):
            LabelTable(np.eye(3))
        with pytest.raises(LabelError, match="2-d bool"):
            LabelTable([[True]])

    def test_table_is_read_only(self):
        t = LabelTable(np.eye(3, dtype=bool))
        with pytest.raises(ValueError):
            t.indicator[0, 1] = True
        assert not callable(t.indicator)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), n=st.integers(1, 12), k=st.integers(1, 6))
    def test_file_round_trips_to_indicator(self, data, n, k):
        sets = data.draw(st.lists(st.frozensets(st.integers(0, k - 1)),
                                  min_size=n, max_size=n))
        lines = []
        for node, s in enumerate(sets):
            if not s:
                continue  # an unlabeled node is left out of the file
            parts = sorted(s)
            # a cut short of the end splits the classes over two lines
            cut = data.draw(st.integers(1, len(parts)))
            for chunk in (parts[:cut], parts[cut:]):
                if chunk:
                    lines.append(f"{node}\t{','.join(map(str, chunk))}\n")
        lines = data.draw(st.permutations(lines))
        with tempfile.TemporaryDirectory() as tmp:
            t = load_labels(_write(Path(tmp), "".join(lines), "l.tsv"), num_nodes=n)
        used = max((c for s in sets for c in s), default=-1) + 1
        want = np.zeros((n, used), dtype=bool)
        for node, s in enumerate(sets):
            want[node, list(s)] = True
        assert t.indicator.dtype == bool
        assert np.array_equal(t.indicator, want)
        assert list(t.labels) == sets
        assert t.label_counts.tolist() == [len(s) for s in sets]
        assert t.labeled_nodes().tolist() == [i for i, s in enumerate(sets) if s]


class TestDegreesAndComponents:
    def test_star_center_degree(self, star4):
        assert star4.out_degrees[0] == 3

    def test_isolated_degree(self):
        g = from_arcs(3, [0], [1], directed=True)
        assert g.out_degrees[2] == 0

    def test_path_middle_degree(self, path3):
        # hand-built CSR: arcs (0,1) (1,0) (1,2) (2,1) -> node 1 has 2 out-arcs
        assert path3.out_degrees[1] == 2

    def test_degree_sum_equals_arc_count(self):
        rng = np.random.default_rng(3)
        g = from_arcs(30, rng.integers(0, 30, 100), rng.integers(0, 30, 100),
                      directed=True)
        assert int(g.out_degrees.sum()) == g.num_edges

    def test_edgeless_components(self):
        g = from_arcs(4, [], [], directed=False)
        assert connected_components(g) == 4

    def test_direction_ignored(self):
        g = from_arcs(3, [0, 1], [1, 2], directed=True)
        assert connected_components(g) == 1

    def test_bridge_reduces_components_by_one(self):
        rng = np.random.default_rng(5)
        for trial in range(10):
            n = 20
            # two halves, arcs only within each half
            s1 = rng.integers(0, 10, 30)
            d1 = rng.integers(0, 10, 30)
            s2 = rng.integers(10, 20, 30)
            d2 = rng.integers(10, 20, 30)
            src, dst = np.r_[s1, s2], np.r_[d1, d2]
            g = from_arcs(n, src, dst, directed=False)
            before = connected_components(g)
            g2 = from_arcs(n, np.r_[src, 0], np.r_[dst, 10], directed=False)
            assert connected_components(g2) == before - 1


class TestStats:
    def test_json_line(self, path3):
        s = dataset_stats(path3)
        assert s == DatasetStats(nodes=3, edges=2, components=1, classes=0,
                                 dead_ends=0)
        assert "\n" not in s.to_json()

    def test_directed_edge_count(self):
        g = from_arcs(3, [0, 1], [1, 2], directed=True)
        assert dataset_stats(g).edges == 2

    def test_dead_ends_are_nodes_without_out_arcs(self):
        # directed path 0 -> 1 -> 2 plus a self-loop on 3: only 2 and the
        # isolated node 4 have no out-arc
        g = from_arcs(5, [0, 1, 3], [1, 2, 3], directed=True)
        assert dataset_stats(g).dead_ends == 2
        assert json.loads(dataset_stats(g).to_json())["dead_ends"] == 2
        # undirected (arcs stored both ways), only isolated nodes are dead ends
        g = from_arcs(4, [0], [1], directed=False)
        assert dataset_stats(g).dead_ends == 2


class TestBenchmarkDatasets:
    """Loader validation against published statistics (needs local data)."""

    def test_cora_stats(self):
        edges, labels_path = require_dataset("cora")
        g = load_edge_list(edges, directed=False)
        labels = load_labels(labels_path, g.num_nodes)
        s = dataset_stats(g, labels)
        assert (s.nodes, s.edges, s.components, s.classes) == (2708, 5278, 78, 7)

    def test_citeseer_stats(self):
        edges, labels_path = require_dataset("citeseer")
        g = load_edge_list(edges, directed=False)
        labels = load_labels(labels_path, g.num_nodes)
        s = dataset_stats(g, labels)
        assert (s.nodes, s.edges, s.components, s.classes) == (3327, 4676, 438, 6)
