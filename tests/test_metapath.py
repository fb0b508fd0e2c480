import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hgrw.errors import DataError, UndefinedRatioError
from hgrw.metapath import (
    MetaPath,
    compose_metapath,
    enumerate_metapaths,
    max_homophily,
    measure_paths,
    path_homophily,
    path_label,
)
from hgrw.rewire import merge_into_graph

from conftest import make_graph, random_hetero_graph, symmetric_edges
from oracles import check_csr, csr_pairs, dfs_compose_pairs, edge_scan_hr


def paper_author_graph():
    # papers {p0, p1} share author a0; p2 is isolated
    return make_graph(
        {"paper": 3, "author": 1},
        [
            ("pa", "paper", "author", [(0, 0), (1, 0)]),
            ("ap", "author", "paper", [(0, 0), (0, 1)]),
        ],
        "paper",
        labels=[0, 0, 1],
        num_classes=2,
    )


class TestCompose:
    def test_self_relation_drops_diagonal(self):
        edges = symmetric_edges([(0, 1), (1, 2)]) + [(0, 0), (2, 2)]
        g = make_graph({"n": 3}, [("r", "n", "n", edges)], "n", labels=[0, 0, 1])
        sub = compose_metapath(g, MetaPath((0,)))
        assert csr_pairs(sub.adjacency) == {(0, 1), (1, 0), (1, 2), (2, 1)}

    def test_two_hop_shared_author(self):
        g = paper_author_graph()
        sub = compose_metapath(g, MetaPath((0, 1)))
        assert csr_pairs(sub.adjacency) == {(0, 1), (1, 0)}

    def test_type_incompatible_path_raises(self):
        g = paper_author_graph()
        with pytest.raises(DataError):
            compose_metapath(g, MetaPath((0, 0)))

    def test_not_anchored_at_target_raises(self):
        g = paper_author_graph()
        with pytest.raises(DataError):
            compose_metapath(g, MetaPath((0,)))

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_matches_dfs_oracle(self, seed):
        rng = np.random.default_rng(seed)
        g = random_hetero_graph(rng, max_nodes=25)
        for path in enumerate_metapaths(g.schema, g.target_type, 3)[:8]:
            sub = compose_metapath(g, path)
            assert csr_pairs(sub.adjacency) == dfs_compose_pairs(g, path)
            assert check_csr(sub.adjacency) == []


class TestEnumerate:
    def test_inverse_pair_yields_single_two_hop_path(self):
        g = paper_author_graph()
        paths = enumerate_metapaths(g.schema, g.target_type, 2)
        assert paths == [MetaPath((0, 1))]

    def test_no_self_relation_means_no_length_one_path(self):
        g = paper_author_graph()
        assert enumerate_metapaths(g.schema, g.target_type, 1) == []

    def test_acm_like_schema(self):
        # P-P citations plus author and subject anchors
        g = make_graph(
            {"paper": 4, "author": 2, "subject": 2},
            [
                ("cite", "paper", "paper", [(0, 1)]),
                ("pa", "paper", "author", [(0, 0)]),
                ("ap", "author", "paper", [(0, 0)]),
                ("ps", "paper", "subject", [(0, 0)]),
                ("sp", "subject", "paper", [(0, 0)]),
            ],
            "paper",
            labels=[0, 1, 0, 1],
        )
        paths = enumerate_metapaths(g.schema, g.target_type, 2)
        assert MetaPath((0,)) in paths  # PcP
        assert MetaPath((1, 2)) in paths  # PAP
        assert MetaPath((3, 4)) in paths  # PSP
        labels = [path_label(g.schema, p) for p in paths]
        assert {"PP", "PAP", "PSP"} <= set(labels)

    def test_reverse_duplicate_is_dropped(self):
        # PAPSP and PSPAP are reverses of each other and induce the same
        # symmetric subgraph; only the lexicographically smaller one survives
        g = make_graph(
            {"paper": 2, "author": 2, "subject": 2},
            [
                ("pa", "paper", "author", [(0, 0)]),
                ("ap", "author", "paper", [(0, 0)]),
                ("ps", "paper", "subject", [(0, 0)]),
                ("sp", "subject", "paper", [(0, 0)]),
            ],
            "paper",
            labels=[0, 1],
        )
        ids = [p.relation_ids for p in enumerate_metapaths(g.schema, g.target_type, 4)]
        assert (0, 1, 2, 3) in ids
        assert (2, 3, 0, 1) not in ids
        # palindromic paths are their own reverse and stay
        assert (0, 1) in ids and (2, 3) in ids

    def test_lexicographic_order(self):
        g = make_graph(
            {"n": 3},
            [("a", "n", "n", [(0, 1)]), ("b", "n", "n", [(1, 2)])],
            "n",
            labels=[0, 1, 0],
        )
        paths = enumerate_metapaths(g.schema, g.target_type, 2)
        ids = [p.relation_ids for p in paths]
        assert ids == sorted(ids)

    @given(
        self_relations=st.integers(1, 2),
        aux_types=st.integers(0, 2),
        max_len=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_rewired_relations_add_only_their_one_hop_paths(self, self_relations, aux_types, max_len, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        counts = {"n": n, **{name: int(rng.integers(1, 5)) for name in "ab"[:aux_types]}}

        def edges(n_src, n_dst):
            return [(int(i), int(j)) for i, j in zip(*np.nonzero(rng.random((n_src, n_dst)) < 0.5))]

        relations = [(f"r{k}", "n", "n", edges(n, n)) for k in range(self_relations)]
        for name in "ab"[:aux_types]:
            fwd = edges(n, counts[name])
            relations += [(f"n{name}", "n", name, fwd), (f"{name}n", name, "n", [(j, i) for i, j in fwd])]
        g = make_graph(counts, relations, "n", labels=[0] * n)
        before = [p.relation_ids for p in enumerate_metapaths(g.schema, 0, max_len)]
        chosen = [p for p, keep in zip(before, rng.random(len(before)) < 0.7) if keep] or before[:1]
        merged = merge_into_graph(g, [compose_metapath(g, MetaPath(ids)) for ids in chosen])
        added = [(rid,) for rid in range(len(relations), len(merged.schema.relations))]
        assert len(added) == len(chosen)
        after = [p.relation_ids for p in enumerate_metapaths(merged.schema, 0, max_len)]
        assert after == before + added

    def test_long_bound_needs_no_deep_stack(self):
        # one self relation forms one path of each length: a walk that recursed
        # once per hop overflowed Python's stack past about 1,000 hops
        g = make_graph({"n": 2}, [("r", "n", "n", [(0, 1)])], "n", labels=[0, 1])
        paths = enumerate_metapaths(g.schema, g.target_type, 5000)
        assert [len(p) for p in paths] == list(range(1, 5001))

    def test_max_len_monotone(self):
        rng = np.random.default_rng(4)
        g = random_hetero_graph(rng, max_nodes=10)
        shorter = {p.relation_ids for p in enumerate_metapaths(g.schema, g.target_type, 2)}
        longer = {p.relation_ids for p in enumerate_metapaths(g.schema, g.target_type, 3)}
        assert shorter <= longer


class TestHomophilyRatio:
    def test_all_same_label(self):
        g = make_graph(
            {"n": 3}, [("r", "n", "n", symmetric_edges([(0, 1), (1, 2)]))], "n", labels=[1, 1, 1]
        )
        assert path_homophily(compose_metapath(g, MetaPath((0,))), g.labels).ratio == 1.0

    def test_hand_computed_half(self):
        edges = symmetric_edges([(0, 1), (0, 2), (1, 2), (2, 3)])
        g = make_graph({"n": 4}, [("r", "n", "n", edges)], "n", labels=[0, 0, 1, 1])
        # matches: (0,1) and (2,3) out of 4 undirected edges
        assert path_homophily(compose_metapath(g, MetaPath((0,))), g.labels).ratio == 0.5

    def test_empty_subgraph_raises(self):
        g = make_graph({"n": 3}, [("r", "n", "n", [])], "n", labels=[0, 1, 0])
        with pytest.raises(UndefinedRatioError):
            path_homophily(compose_metapath(g, MetaPath((0,))), g.labels).ratio

    def test_all_unlabeled_raises(self):
        g = make_graph(
            {"n": 3},
            [("r", "n", "n", symmetric_edges([(0, 1)]))],
            "n",
            labels=[-1, -1, 0],
            num_classes=2,
        )
        with pytest.raises(UndefinedRatioError):
            path_homophily(compose_metapath(g, MetaPath((0,))), g.labels).ratio

    def test_unlabeled_endpoints_excluded(self):
        edges = symmetric_edges([(0, 1), (1, 2)])
        g = make_graph({"n": 3}, [("r", "n", "n", edges)], "n", labels=[0, 0, -1], num_classes=2)
        assert path_homophily(compose_metapath(g, MetaPath((0,))), g.labels).ratio == 1.0

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_label_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        g = random_hetero_graph(rng, max_nodes=15)
        sub = compose_metapath(g, MetaPath((0,)))
        perm = rng.permutation(g.num_classes)
        relabeled = np.where(g.labels >= 0, perm[np.clip(g.labels, 0, None)], -1)
        try:
            base = path_homophily(sub, g.labels).ratio
        except UndefinedRatioError:
            return
        assert path_homophily(sub, relabeled).ratio == base
        assert 0.0 <= base <= 1.0


def max_path_homophily(g, max_len):
    """mh over every meta-path up to max_len, the way inspect and diag measure it."""
    paths = enumerate_metapaths(g.schema, g.target_type, max_len)
    return max_homophily((h, path) for path, _, h in measure_paths(g, paths))


class TestHgHomophily:
    def test_single_path_is_its_ratio(self):
        g = paper_author_graph()
        mh, best = max_path_homophily(g, 2)
        sub = compose_metapath(g, best)
        assert mh == path_homophily(sub, g.labels).ratio

    def test_two_paths_hand_values(self):
        # relation a: HR 0.5, relation b: HR 0.75
        edges_a = symmetric_edges([(0, 1), (2, 3)])
        edges_b = symmetric_edges([(0, 1), (0, 2), (1, 2), (2, 3)])
        g = make_graph(
            {"n": 4},
            [("a", "n", "n", edges_a), ("b", "n", "n", edges_b)],
            "n",
            labels=[0, 0, 0, 1],
        )
        mh, best = max_path_homophily(g, 1)
        assert mh == 0.75
        assert best == MetaPath((1,))

    def test_no_measurable_path_raises(self):
        g = make_graph({"n": 3}, [("r", "n", "n", [])], "n", labels=[0, 1, 0])
        with pytest.raises(UndefinedRatioError):
            max_path_homophily(g, 2)

    def test_monotone_in_max_len(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            g = random_hetero_graph(rng, max_nodes=12)
            try:
                mh1, _ = max_path_homophily(g, 1)
            except UndefinedRatioError:
                mh1 = -1.0
            mh2, _ = max_path_homophily(g, 2)
            mh3, _ = max_path_homophily(g, 3)
            assert mh1 <= mh2 <= mh3

    def test_matches_edge_scan_oracle(self):
        rng = np.random.default_rng(21)
        g = random_hetero_graph(rng, max_nodes=20)
        mh, best = max_path_homophily(g, 2)
        oracle_best = max(
            v
            for v in (
                edge_scan_hr(compose_metapath(g, p).adjacency, g.labels)
                for p in enumerate_metapaths(g.schema, g.target_type, 2)
            )
            if v is not None
        )
        assert mh == oracle_best
