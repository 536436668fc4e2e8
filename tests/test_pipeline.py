"""Extraction engines, random hypergraph, matching, and the end-to-end runner."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from cfl import (
    FactorBundle,
    Graph,
    HypothesisRejected,
    InputError,
    InvariantError,
    PipelineConfig,
    RandomHypergraph,
    build_Hf,
    concentration_audit,
    default_alpha,
    default_ell,
    dense_extract,
    edge_ids,
    enumerate_cliques,
    from_edge_list,
    gen_complete,
    gen_random_regular,
    greedy_completion,
    nibble_matching,
    run_end_to_end,
    sparse_extract,
    sparse_split,
)
import cfl.pipeline as pipeline_mod
from cfl.cli import canonical_json
from cfl.pipeline import _split, _uncovered_rows, hf_codegrees, hf_degrees

from oracles import completion_cliques, completion_greedy, nibble_by_loops, part_cliques_by_host


def _vertex_drops(g, bundle):
    assert bundle.per_edge_load.shape == (g.m,)
    drop = np.zeros(g.n)
    for (u, v), x in zip(g.edges, bundle.per_edge_load.tolist()):
        drop[u] += x
        drop[v] += x
    return drop


class TestDenseExtraction:
    def test_k6_one_round_spends_two_halfedges_per_vertex(self, k6):
        bundle = dense_extract(k6, 3, 1)
        assert bundle.ell == 1 and bundle.mode == "dense"
        assert _vertex_drops(k6, bundle) == pytest.approx(np.full(6, 2.0), abs=1e-6)

    def test_k6_two_rounds(self, k6):
        bundle = dense_extract(k6, 3, 2)
        assert bundle.ell == 2
        assert bundle.audits["achieved"] == 2
        assert _vertex_drops(k6, bundle) == pytest.approx(np.full(6, 4.0), abs=1e-6)
        assert bundle.audits["max_per_edge_load"] == bundle.per_edge_load.max() <= 1 + 1e-7
        for it in bundle.audits["iterations"]:
            assert it["extracted"] is True
            assert it["degree_residual"] <= 1e-6

    def test_k6_third_round_runs_dry(self, k6):
        # after two factors the residual weights admit t_star = 1 < 2
        bundle = dense_extract(k6, 3, 3)
        assert bundle.ell == 2
        assert "no fractional factor at iteration 2" in bundle.audits["note"]
        last = bundle.audits["iterations"][2]
        assert last["extracted"] is False
        assert last["t_star"] == pytest.approx(1.0, abs=1e-6)

    def test_k12_loads_stay_capped(self):
        bundle = dense_extract(gen_complete(12), 3, 2)
        assert bundle.ell == 2
        assert bundle.audits["max_per_edge_load"] == bundle.per_edge_load.max() <= 1 + 1e-7

    def test_factors_are_keyed_by_source_clique_ids(self, k6):
        bundle = dense_extract(k6, 3, 2)
        assert np.array_equal(bundle.cliques.members, enumerate_cliques(k6, 3).members)
        for ids, weights in bundle.factors:
            for cid, val in zip(ids.tolist(), weights.tolist()):
                assert 0 <= cid < len(bundle.cliques)
                assert val > 0

    def test_default_alpha_formula(self):
        assert default_alpha(60, 59, 3) == pytest.approx((59 / 240) / 60)
        assert default_alpha(100, 50, 4) == pytest.approx(0.125**2 / 80)

    def test_parameter_validation(self, k6):
        with pytest.raises(InputError):
            dense_extract(k6, 2, 1)
        with pytest.raises(InputError):
            dense_extract(k6, 3, 0)
        with pytest.raises(InputError, match="regular"):
            dense_extract(from_edge_list(3, [(0, 1), (1, 2)]), 3, 1)

    @pytest.mark.parametrize("alpha", [-4.0, -1e-9, 1.5, math.nan])
    def test_alpha_outside_unit_interval_rejected(self, k6, alpha):
        # alpha is not a parameter: the host's n, d and t decide it
        with pytest.raises(TypeError, match="alpha"):
            dense_extract(k6, 3, 1, alpha=alpha)

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_alpha_at_the_interval_ends_runs(self, k6, alpha, monkeypatch):
        monkeypatch.setattr(pipeline_mod, "default_alpha", lambda n, d, t: alpha)
        bundle = dense_extract(k6, 3, 1)
        assert bundle.ell == 1 and bundle.audits["alpha"] == alpha

    def test_alpha_is_the_hosts_default(self):
        # every edge is rich at w == 1; one factor's pair load 2/11 leaves none
        bundle = dense_extract(gen_complete(12), 3, 2)
        assert bundle.audits["alpha"] == default_alpha(12, 11, 3)
        assert [it["rich_edges"] for it in bundle.audits["iterations"]] == [66, 0]


class TestSparseSplit:
    def test_single_part_is_the_graph_itself(self, k6):
        assert sparse_split(k6, 1, 7) == [k6]

    def test_parts_partition_the_edges(self, k6):
        parts = sparse_split(k6, 4, seed=3)
        assert len(parts) == 4
        seen = []
        for p in parts:
            assert p.n == 6
            seen.extend(p.edges)
        assert sorted(seen) == list(k6.edges)

    def test_same_seed_same_split(self, rr_20_6):
        a = sparse_split(rr_20_6, 3, seed=5)
        b = sparse_split(rr_20_6, 3, seed=5)
        assert [p.edges for p in a] == [p.edges for p in b]

    def test_different_seed_different_split(self, rr_20_6):
        a = sparse_split(rr_20_6, 3, seed=5)
        b = sparse_split(rr_20_6, 3, seed=6)
        assert [p.edges for p in a] != [p.edges for p in b]

    def test_part_sizes_concentrate(self):
        g = gen_random_regular(100, 50, 2025)
        sigma = math.sqrt(g.m * (1 / 5) * (4 / 5))
        for seed in range(5):
            for p in sparse_split(g, 5, seed):
                assert abs(p.m - g.m / 5) <= 5 * sigma

    def test_zero_parts_rejected(self, k6):
        with pytest.raises(InputError):
            sparse_split(k6, 0, 0)

    @pytest.mark.parametrize("t,ell", [(3, 2), (3, 4), (4, 2), (4, 3)])
    @pytest.mark.parametrize("seed", range(4))
    def test_part_clique_sets_equal_enumerating_each_part(self, t, ell, seed):
        # the host's rows cut by the split (the reference route) are each part's own cliques
        g = gen_random_regular(30, 16, 7 + seed)
        host, home = part_cliques_by_host(g, t, ell, seed)
        for i, part in enumerate(sparse_split(g, ell, seed)):
            assert np.array_equal(host.members[home == i], enumerate_cliques(part, t).members)

    @settings(max_examples=30, deadline=None)
    @given(
        t=st.integers(3, 5),
        ell=st.integers(1, 6),
        seed=st.integers(0, 2**16),
        complete=st.booleans(),
    )
    def test_part_pair_operators_equal_searching_the_part(self, t, ell, seed, complete):
        # the parts' pair ids, mapped to host edge ids, give the operator a host search gives
        g = gen_complete(12) if complete else gen_random_regular(24, 12, seed)
        cs = sparse_extract(g, t, ell, seed).cliques
        pairs = np.stack(np.triu_indices(t, 1), axis=1)
        rows = edge_ids(g, cs.members.take(pairs, axis=1))
        searched = sparse.csc_matrix(
            (np.ones(rows.size), rows, np.arange(len(cs) + 1) * len(pairs)), shape=(g.m, len(cs))
        )
        assert cs.graph is g and cs.A_pair.shape == searched.shape
        assert (cs.A_pair != searched).nnz == 0

    def test_an_empty_part_has_an_empty_clique_set(self, k6):
        # 15 parts of a 15-edge graph leave some part without edges
        sizes = sparse_extract(k6, 3, 15, seed=0).audits["split_sizes"]
        empty = sparse_split(k6, 15, 0)[sizes.index(0)]
        cs = enumerate_cliques(empty, 3)
        assert empty.m == 0 and len(cs) == 0
        assert cs.pair_ids.shape == (0, 3)
        assert cs.A_pair.shape == (0, 0) and cs.A_vert.shape == (6, 0)
        assert cs.least_weight(np.ones(0)).shape == (0,)

    def test_split_assignment_matches_the_parts(self, rr_20_6):
        assign, parts = _split(rr_20_6, 3, seed=5)
        for i, part in enumerate(parts):
            assert part.edges == tuple(e for e, a in zip(rr_20_6.edges, assign) if a == i)


class TestSparseExtraction:
    def test_whole_graph_as_one_part(self, k6):
        bundle = sparse_extract(k6, 3, 1, seed=0)
        assert bundle.mode == "sparse"
        assert bundle.ell == 1
        assert bundle.audits["failed_parts"] == []
        assert bundle.audits["max_per_edge_load"] == bundle.per_edge_load.max() <= 1 + 1e-7

    def test_overshredded_graph_fails_every_part(self, k6):
        # 15 parts of a 15-edge graph: no part can hold a triangle factor
        bundle = sparse_extract(k6, 3, 15, seed=0)
        assert bundle.ell == 0
        assert len(bundle.audits["failed_parts"]) == 15
        assert bundle.factors == ()

    @pytest.mark.parametrize("seed", [2, 3, 17])
    def test_part_with_a_cliqueless_vertex_is_refuted_unsolved(self, seed, monkeypatch):
        # rr(100,50) at ell = 5: every part of these splits has 2-7 vertices
        # in none of its triangles, so no part reaches the certifier
        def refusing(*args, **kwargs):
            raise AssertionError("a refuted part was certified")

        monkeypatch.setattr(pipeline_mod, "has_fractional_factor", refusing)
        bundle = sparse_extract(gen_random_regular(100, 50, 2025), 3, 5, seed)
        assert bundle.audits["failed_parts"] == [0, 1, 2, 3, 4]
        assert bundle.factors == ()

    def test_part_with_every_vertex_in_a_clique_is_certified(self, monkeypatch):
        # split 5 of the same host: part 0 has every vertex in a triangle and
        # still fails, but only by its certificate; parts 1-4 are refuted
        # structurally
        certified = []
        real = pipeline_mod.has_fractional_factor

        def recording(wg, cliques, tol):
            certified.append(wg.base.m)
            return real(wg, cliques, tol)

        monkeypatch.setattr(pipeline_mod, "has_fractional_factor", recording)
        bundle = sparse_extract(gen_random_regular(100, 50, 2025), 3, 5, 5)
        assert bundle.audits["failed_parts"] == [0, 1, 2, 3, 4]
        assert certified == bundle.audits["split_sizes"][:1]

    def test_k30_two_parts_both_extract(self):
        bundle = sparse_extract(gen_complete(30), 3, 2, seed=0)
        assert bundle.ell == 2
        assert bundle.audits["failed_parts"] == []
        assert sum(bundle.audits["split_sizes"]) == 435  # every edge lands in a part

    def test_each_clique_funds_at_most_one_factor(self):
        bundle = sparse_extract(gen_complete(30), 3, 2, seed=0)
        seen = set()
        for cids, weights in bundle.factors:
            ids = set(cids[weights > 1e-9].tolist())
            assert not (ids & seen)
            seen |= ids

    def test_small_t_rejected(self, k6):
        with pytest.raises(InputError):
            sparse_extract(k6, 2, 2, seed=0)

    @settings(max_examples=40, deadline=None)
    @given(
        t=st.integers(3, 5),
        ell=st.integers(1, 6),
        seed=st.integers(0, 2**16),
        graph=st.sampled_from(["k12", "rr_24_12", "k7"]),
    )
    def test_clique_set_is_the_host_cut(self, t, ell, seed, graph):
        # the bundle's set is the host's rows that lie in a part, in host order,
        # with host pair ids; each factor id names a host clique of its own part
        g = gen_random_regular(24, 12, seed) if graph == "rr_24_12" else gen_complete(int(graph[1:]))
        bundle = sparse_extract(g, t, ell, seed)
        host, home = part_cliques_by_host(g, t, ell, seed)
        kept = np.flatnonzero(home >= 0)
        assert np.array_equal(bundle.cliques.members, host.members[kept])
        assert np.array_equal(bundle.cliques.pair_ids, host.pair_ids[kept])
        assert bundle.cliques.graph is g
        solved = [i for i in range(ell) if i not in bundle.audits["failed_parts"]]
        assert len(solved) == len(bundle.factors)
        for part, (ids, _) in zip(solved, bundle.factors):
            assert np.all(np.diff(ids) > 0)
            assert np.all(home[kept[ids]] == part)
        load = np.zeros(g.m)
        for ids, weights in bundle.factors:
            np.add.at(load, host.pair_ids[kept[ids]], weights[:, None])
        assert np.allclose(bundle.per_edge_load, load, rtol=0, atol=1e-12)

    def test_bundle_with_an_empty_part(self):
        # K_4 in six parts: at least one part has no edge, and it adds no clique
        bundle = sparse_extract(gen_complete(4), 3, 6, seed=3)
        assert 0 in bundle.audits["split_sizes"]
        host, home = part_cliques_by_host(gen_complete(4), 3, 6, 3)
        assert np.array_equal(bundle.cliques.members, host.members[home >= 0])
        assert bundle.cliques.pair_ids.shape == (len(bundle.cliques), 3)
        assert bundle.cliques.A_pair.shape == (6, len(bundle.cliques))


class TestRandomHypergraph:
    def _bundle(self, *factors):
        pairs = tuple((np.array(list(f)), np.array(list(f.values()))) for f in factors)
        k6 = enumerate_cliques(gen_complete(6), 3)
        return FactorBundle(pairs, len(pairs), "dense", k6, per_edge_load=np.zeros(15))

    def test_unit_probabilities_are_kept_surely(self, k6):
        cliques = enumerate_cliques(k6, 3)
        hf = build_Hf(self._bundle({0: 1.0, 19: 1.0}), seed=123)
        assert hf.hyperedges.dtype == np.int32
        assert hf.hyperedges.tolist() == cliques.members[[0, 19]].tolist()
        assert hf.candidates.tolist() == [0, 19]
        assert hf.inclusion_prob.tolist() == [1.0, 1.0]

    def test_zero_mass_bundle_gives_empty_hypergraph(self):
        hf = build_Hf(self._bundle(), seed=0)
        assert hf.hyperedges.shape == (0, 3)
        assert hf.candidates.size == hf.inclusion_prob.size == 0

    def test_aggregate_mass_above_tolerance_raises(self):
        bundle = self._bundle({0: 0.5}, {0: 0.5 + 1e-5})
        with pytest.raises(InvariantError, match="exceeds"):
            build_Hf(bundle, seed=0)

    def test_solver_noise_above_one_clamps(self):
        bundle = self._bundle({0: 0.5}, {0: 0.5 + 5e-7})
        hf = build_Hf(bundle, seed=0)
        assert hf.candidates[0] == 0 and hf.inclusion_prob[0] == 1.0

    def test_same_seed_reproduces_sample(self, k6):
        bundle = dense_extract(k6, 3, 2)
        a = build_Hf(bundle, seed=0)
        b = build_Hf(bundle, seed=0)
        assert np.array_equal(a.hyperedges, b.hyperedges)
        assert np.array_equal(a.candidates, b.candidates)
        assert np.array_equal(a.inclusion_prob, b.inclusion_prob)

    def test_different_seed_changes_sample(self, k6):
        bundle = dense_extract(k6, 3, 2)
        a = build_Hf(bundle, seed=0)
        b = build_Hf(bundle, seed=1)
        assert not np.array_equal(a.hyperedges, b.hyperedges)

    def test_candidates_recorded_in_id_order(self, k6):
        bundle = dense_extract(k6, 3, 2)
        hf = build_Hf(bundle, seed=0)
        assert hf.candidates.shape == hf.inclusion_prob.shape
        assert hf.candidates.tolist() == sorted(set(hf.candidates.tolist()))
        assert all(0 < p <= 1 for p in hf.inclusion_prob.tolist())


class TestConcentrationAudit:
    def test_single_factor_band_not_applicable(self):
        rep = concentration_audit(_hypergraph(6), 1)
        assert rep.applicable is False
        assert rep.empty is True

    def test_empty_hypergraph_sits_inside_the_wide_band(self):
        # at ell=2 the half-width (k/2)sqrt(2 ln 2) with k = 8/sqrt(beta)
        # exceeds 2, so degree 0 is inside the band; emptiness is its own flag
        rep = concentration_audit(_hypergraph(10), 2)
        assert rep.applicable is True
        assert rep.empty is True
        assert rep.band_low < 0
        assert rep.degrees_outside == 0

    def test_disjoint_hyperedges_keep_codegree_at_one(self):
        rep = concentration_audit(_hypergraph(6, ((0, 1, 2), (3, 4, 5))), 2)
        assert rep.max_codegree == 1
        assert rep.codegrees_outside == 0
        assert rep.empty is False

    def test_degree_statistics(self):
        hf = _hypergraph(6, ((0, 1, 2), (0, 1, 3)))
        deg = hf_degrees(hf)
        assert list(deg) == [2, 2, 1, 1, 0, 0]
        # pair keys 0*6+1, 0*6+2, 0*6+3, 1*6+2, 1*6+3: the shared pair (0, 1) first
        assert hf_codegrees(hf).tolist() == [2, 1, 1, 1, 1]
        rep = concentration_audit(hf, 2)
        assert rep.mean_degree == pytest.approx(1.0)
        assert rep.max_degree == 2 and rep.min_degree == 0
        assert rep.max_codegree == 2
        assert rep.codegree_bound == pytest.approx(1 + 3 * math.log(6))

    def test_renders_as_json(self):
        d = json.loads(canonical_json(concentration_audit(_hypergraph(6), 2)))
        assert d["applicable"] is True and d["empty"] is True


def _hypergraph(vertices, hyperedges=()):
    """A t = 3 hypergraph whose hyperedges are candidates 0, 1, ... at p = 1."""
    rows = np.array(hyperedges, dtype=np.int32).reshape(-1, 3)
    ids = np.arange(len(rows))
    return RandomHypergraph(3, vertices, rows, ids, np.ones(len(rows)))


def _full_k6_hypergraph(k6):
    return _hypergraph(6, enumerate_cliques(k6, 3).members)


class TestMatching:
    @pytest.mark.parametrize("mode", ["greedy", "nibble"])
    def test_full_triangle_hypergraph_is_perfectly_matched(self, k6, mode):
        hf = _full_k6_hypergraph(k6)
        res = nibble_matching(hf, mode, 0.1, seed=0)
        assert res.uncovered_count == 0
        assert res.uncovered == ()
        used = [v for e in res.matched for v in e]
        assert sorted(used) == list(range(6))

    @pytest.mark.parametrize("mode", ["greedy", "nibble"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cover_identity_and_disjointness(self, k6, mode, seed):
        bundle = dense_extract(k6, 3, 2)
        hf = build_Hf(bundle, seed=seed)
        res = nibble_matching(hf, mode, 0.1, seed=seed)
        assert 3 * len(res.matched) + res.uncovered_count == 6
        used = [v for e in res.matched for v in e]
        assert len(used) == len(set(used))
        assert set(res.matched) <= set(map(tuple, hf.hyperedges.tolist()))

    def test_single_hyperedge(self):
        hf = _hypergraph(6, ((1, 3, 5),))
        res = nibble_matching(hf, "nibble", 0.1, seed=0)
        assert res.matched == ((1, 3, 5),)
        assert res.uncovered == (0, 2, 4)

    def test_empty_hypergraph_leaves_everything(self):
        hf = _hypergraph(7)
        for mode in ("greedy", "nibble"):
            assert nibble_matching(hf, mode, 0.1, seed=0).uncovered_count == 7

    def test_same_seed_same_matching(self, k6):
        hf = _full_k6_hypergraph(k6)
        a = nibble_matching(hf, "nibble", 0.1, seed=4)
        b = nibble_matching(hf, "nibble", 0.1, seed=4)
        assert a.matched == b.matched

    @pytest.mark.parametrize("mode", ["greedy", "nibble"])
    @pytest.mark.parametrize("epsilon", [0.1, 0.9])
    def test_matches_the_loop_reference(self, mode, epsilon):
        # rounds resolve their activations with one bincount, not one by one
        g = gen_random_regular(30, 14, 5)
        bundle = dense_extract(g, 3, 2)
        for seed in range(4):
            hf = build_Hf(bundle, seed)
            res = nibble_matching(hf, mode, epsilon, seed)
            tuples = list(map(tuple, hf.hyperedges.tolist()))
            assert res.matched == nibble_by_loops(tuples, g.n, mode, epsilon, seed)

    def test_epsilon_outside_open_interval_rejected(self, k6):
        hf = _full_k6_hypergraph(k6)
        for eps in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(InputError, match="epsilon"):
                nibble_matching(hf, "nibble", eps, seed=0)

    def test_unknown_mode_rejected(self, k6):
        with pytest.raises(InputError, match="mode"):
            nibble_matching(_full_k6_hypergraph(k6), "exhaustive", 0.1, seed=0)


def _remaining(uncovered, added):
    return tuple(sorted(set(uncovered) - set(added.ravel().tolist())))


class TestCompletion:
    def test_complete_graph_leftovers_are_fully_packed(self):
        added = greedy_completion(gen_complete(60), 3, range(60), seed=0)
        assert _remaining(range(60), added) == ()
        assert len(added) == 20
        assert sorted(added.ravel().tolist()) == list(range(60))

    def test_triangle_free_graph_adds_nothing(self, petersen):
        added = greedy_completion(petersen, 3, range(10), seed=0)
        assert added.shape == (0, 3)
        assert _remaining(range(10), added) == tuple(range(10))

    def test_short_leftover_is_untouched(self, k6):
        added = greedy_completion(k6, 3, (0, 1), seed=0)
        assert added.shape == (0, 3)
        assert _remaining((0, 1), added) == (0, 1)

    def test_added_cliques_live_inside_the_uncovered_set(self, k6):
        added = greedy_completion(k6, 3, (0, 2, 3, 5), seed=1)
        for row in added.tolist():
            assert set(row) <= {0, 2, 3, 5}
        assert len(added) == 1 and len(_remaining((0, 2, 3, 5), added)) == 1

    @pytest.mark.parametrize("vertex", [6, -1])
    def test_vertex_outside_the_graph_rejected(self, k6, vertex):
        with pytest.raises(InputError, match=f"vertex {vertex} not in graph"):
            greedy_completion(k6, 3, (0, 1, vertex), seed=0)

    @pytest.mark.parametrize("graph", ["k8", "petersen", "paley13", "rr_20_6"])
    def test_host_rows_are_the_cliques_of_the_induced_subgraph(self, graph, request):
        # the host's rows with every member uncovered are G[uncovered]'s cliques,
        # relabelled, in the same order, so the completion's picks from its own
        # enumeration of G[uncovered] are the reference's
        g = gen_complete(8) if graph == "k8" else request.getfixturevalue(graph)
        cliques = enumerate_cliques(g, 3)
        rng = np.random.default_rng(7)
        subsets = [(), (0, 1), tuple(range(g.n))]
        subsets += [tuple(np.flatnonzero(rng.random(g.n) < q).tolist()) for q in (0.3, 0.6, 0.9)]
        for U in subsets:
            covered = np.ones(g.n, dtype=bool)
            covered[list(U)] = False
            want = completion_cliques(g, 3, U)
            assert _uncovered_rows(cliques.members, covered).tolist() == want.tolist()
            for seed in range(3):
                picks = greedy_completion(g, 3, U, seed)
                assert picks.tolist() == completion_greedy(g, 3, U, seed)


class TestEndToEnd:
    def test_complete_k60_covers_everything(self):
        rep = run_end_to_end(
            gen_complete(60), 3, PipelineConfig(seed=0, mode="dense", ell=2, force=True)
        )
        assert rep.result.uncovered_count == 0
        assert rep.uncovered_fraction == 0.0
        assert rep.parameters["ell_achieved"] == 2

    def test_triangle_free_run_reports_total_leftover(self, petersen):
        rep = run_end_to_end(petersen, 3, PipelineConfig(seed=0, force=True))
        assert rep.result.uncovered_count == 10
        assert rep.uncovered_fraction == 1.0
        assert rep.stage_audits["hypothesis_failed"] is True
        assert rep.parameters["mode_effective"] == "sparse"
        assert rep.parameters["ell_achieved"] == 0
        assert rep.stage_audits["hf"]["hyperedges"] == 0

    def test_hypothesis_gate_without_force(self, petersen):
        with pytest.raises(HypothesisRejected) as exc:
            run_end_to_end(petersen, 3, PipelineConfig(seed=0))
        assert exc.value.report.branch == "fails"

    def test_identical_configs_reproduce_the_report(self):
        g = gen_complete(12)
        cfg = PipelineConfig(seed=9, mode="dense", ell=2, force=True)
        a = run_end_to_end(g, 3, cfg)
        b = run_end_to_end(g, 3, cfg)
        assert canonical_json(a) == canonical_json(b)

    def test_auto_mode_picks_dense_on_dense_graphs(self):
        rep = run_end_to_end(
            gen_complete(12), 3, PipelineConfig(seed=1, ell=2, force=True)
        )
        assert rep.parameters["mode_requested"] == "auto"
        assert rep.parameters["mode_effective"] == "dense"

    @pytest.mark.parametrize(
        "branch,dense_ok,mode",
        [("both", True, "dense"), ("dense_branch", True, "dense"),
         ("sparse_branch", False, "sparse"), ("fails", True, "dense"),
         ("fails", False, "sparse")],
    )
    def test_auto_mode_follows_each_branch(self, branch, dense_ok, mode, monkeypatch):
        # desk-scale graphs reach only "fails"; the other branches are patched in
        check = pipeline_mod.hypothesis_check

        def patched(cert, t):
            return dataclasses.replace(check(cert, t), branch=branch, dense_degree_ok=dense_ok)

        monkeypatch.setattr(pipeline_mod, "hypothesis_check", patched)
        rep = run_end_to_end(gen_complete(12), 3, PipelineConfig(seed=1, ell=2, force=True))
        assert rep.parameters["mode_effective"] == mode

    def test_default_ell_is_two_at_desk_scale(self):
        assert default_ell(12, 3) == 2
        assert default_ell(100, 3) == 2
        rep = run_end_to_end(gen_complete(12), 3, PipelineConfig(seed=1, force=True))
        assert rep.parameters["ell_requested"] == 2

    def test_completion_only_reduces_leftover(self):
        rep = run_end_to_end(
            gen_complete(12), 3, PipelineConfig(seed=3, mode="dense", ell=2, force=True)
        )
        assert rep.stage_audits["matching"]["hf_uncovered_count"] >= rep.result.uncovered_count

    def test_completion_can_be_disabled(self):
        cfg = PipelineConfig(seed=3, mode="dense", ell=2, force=True, completion=False)
        rep = run_end_to_end(gen_complete(12), 3, cfg)
        assert rep.stage_audits["completion"] == {"enabled": False, "added": 0}
        assert rep.result.uncovered_count == rep.stage_audits["matching"]["hf_uncovered_count"]

    def test_stage_failures_carry_the_stage_tag(self):
        cfg = PipelineConfig(seed=0, mode="dense", ell=2, force=True, matcher="bogus")
        with pytest.raises(InputError, match=r"\[stage:matching\]"):
            run_end_to_end(gen_complete(6), 3, cfg)

    def test_unknown_mode_rejected(self, k6):
        with pytest.raises(InputError, match="mode"):
            run_end_to_end(k6, 3, PipelineConfig(seed=0, mode="both"))

    @pytest.mark.parametrize("seed", [None, "0", 1.5, -1])
    def test_seed_must_be_a_non_negative_integer(self, k6, seed):
        # numpy would draw a None seed from OS entropy and refuse the others late
        with pytest.raises(InputError, match="seed must be a non-negative integer"):
            run_end_to_end(k6, 3, PipelineConfig(seed=seed, force=True))

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0])
    def test_tol_must_be_finite_and_positive(self, k6, tol):
        # min(1e-8, nan) is 1e-8, so the spectral stage would not notice a NaN
        with pytest.raises(InputError, match="tol must be finite and positive"):
            run_end_to_end(k6, 3, PipelineConfig(seed=0, tol=tol, force=True))

    def test_irregular_graph_rejected(self):
        with pytest.raises(InputError, match="regular"):
            run_end_to_end(from_edge_list(3, [(0, 1), (1, 2)]), 3, PipelineConfig(seed=0))

    def test_stage_seeds_are_deterministic_and_distinct(self):
        g = gen_complete(12)
        a = run_end_to_end(g, 3, PipelineConfig(seed=11, ell=2, force=True))
        b = run_end_to_end(g, 3, PipelineConfig(seed=11, ell=2, force=True))
        seeds = a.parameters["stage_seeds"]
        assert seeds == b.parameters["stage_seeds"]
        assert len({*seeds.values()}) == 4

    def test_leftover_bound_is_vacuous_at_desk_scale(self):
        rep = run_end_to_end(gen_complete(12), 3, PipelineConfig(seed=2, ell=2, force=True))
        bound = rep.stage_audits["leftover_bound"]
        assert bound["value"] == pytest.approx(12 ** (1 - 1 / 648))
        assert bound["vacuous"] is True

    @pytest.mark.parametrize("matcher", ["greedy", "nibble"])
    def test_both_matchers_run(self, matcher):
        cfg = PipelineConfig(seed=5, mode="dense", ell=2, force=True, matcher=matcher)
        rep = run_end_to_end(gen_complete(12), 3, cfg)
        assert rep.stage_audits["matching"]["matcher"] == matcher
        assert 0 <= rep.result.uncovered_count <= 12

    @pytest.mark.parametrize(
        "graph,config,mode",
        [((90, 45, 31), PipelineConfig(seed=0, force=True), "dense"),
         ((100, 50, 31), PipelineConfig(seed=0, mode="sparse", ell=3, force=True), "sparse")],
        ids=["auto", "sparse"],
    )
    def test_enumerated_graphs_per_run(self, graph, config, mode, monkeypatch):
        # dense: the host once; sparse: each part once and never the host;
        # then G[uncovered] once, in both
        seen = []

        def counting(g, t):
            seen.append(g)
            return enumerate_cliques(g, t)

        monkeypatch.setattr(pipeline_mod, "enumerate_cliques", counting)
        g = gen_random_regular(*graph)
        rep = run_end_to_end(g, 3, config)
        assert rep.parameters["mode_effective"] == mode
        assert rep.stage_audits["completion"]["added"] > 0
        *extracted, leftover = seen
        if mode == "dense":
            assert extracted == [g]
        else:
            assert extracted == sparse_split(g, 3, rep.parameters["stage_seeds"]["split"])
            assert g not in extracted
        assert leftover.n == rep.stage_audits["matching"]["hf_uncovered_count"]
