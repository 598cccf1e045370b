import itertools

import numpy as np
import pytest

from batchlab import causal
from batchlab.analysis import (
    STRUCTURES,
    VAR_BATCH,
    VAR_COMPLEXITY,
    VAR_GENERALIZATION,
    VAR_NOISE,
    VAR_SHARPNESS,
    VARIABLES,
)
from batchlab.causal import (
    CausalHypergraph,
    ConditionalTable,
    backdoor_diagnostic,
    discretize_records,
    fit_cpts,
    interventional_distribution,
    pearson_chi_square,
    validate_hypergraph,
)
from helpers import index_scheme, levels_scheme


# the hypergraph structure with the joint noise+sharpness edge into
# complexity replaced by a single noise edge
PAIRWISE = CausalHypergraph.from_edges(
    VARIABLES,
    [
        ((VAR_BATCH,), VAR_NOISE),
        ((VAR_NOISE,), VAR_SHARPNESS),
        ((VAR_NOISE,), VAR_COMPLEXITY),
        ((VAR_COMPLEXITY,), VAR_GENERALIZATION),
    ],
)


def do_batch(tables, b, scheme, mode="hypergraph"):
    """The lab's query: the generalization distribution under do(batch size = b)."""
    return interventional_distribution(tables, scheme, VAR_BATCH, b, VAR_GENERALIZATION, mode)


def random_table(rng, head, tails, tail_shape, k_head, concentrate=0.05):
    p = rng.random(tuple(tail_shape) + (k_head,)) + concentrate
    p /= p.sum(axis=-1, keepdims=True)
    return ConditionalTable(head=head, tails=tuple(sorted(tails)), probs=p, alpha=0.0)


def random_hypergraph_tables(rng, k=3, k_b=2, concentrate=0.05):
    return [
        random_table(rng, VAR_NOISE, (VAR_BATCH,), (k_b,), k, concentrate),
        random_table(rng, VAR_SHARPNESS, (VAR_NOISE,), (k,), k, concentrate),
        random_table(rng, VAR_COMPLEXITY, (VAR_NOISE, VAR_SHARPNESS), (k, k), k, concentrate),
        random_table(rng, VAR_GENERALIZATION, (VAR_COMPLEXITY,), (k,), k, concentrate),
    ]


def random_algorithm1_tables(rng, k=3, k_b=2):
    return [
        random_table(rng, VAR_NOISE, (VAR_BATCH,), (k_b,), k),
        random_table(rng, VAR_SHARPNESS, (VAR_NOISE,), (k,), k),
        random_table(
            rng, VAR_GENERALIZATION, (VAR_NOISE, VAR_SHARPNESS, VAR_COMPLEXITY), (k, k, k), k
        ),
    ]


def hypergraph_oracle(tables, b_idx, k=3):
    """Nested-loop enumeration of the truncated factorization."""
    by_head = {t.head: t for t in tables}
    pn = by_head[VAR_NOISE].probs
    ps = by_head[VAR_SHARPNESS].probs
    pc = by_head[VAR_COMPLEXITY].probs
    pg = by_head[VAR_GENERALIZATION].probs
    out = np.zeros(pg.shape[-1])
    for n in range(pn.shape[-1]):
        for s in range(ps.shape[-1]):
            for c in range(pc.shape[-1]):
                for g in range(pg.shape[-1]):
                    out[g] += pg[c, g] * pc[n, s, c] * ps[n, s] * pn[b_idx, n]
    return out


def algorithm1_oracle(tables, b_idx):
    by_head = {t.head: t for t in tables}
    pn = by_head[VAR_NOISE].probs
    ps = by_head[VAR_SHARPNESS].probs
    pj = by_head[VAR_GENERALIZATION].probs  # tails sorted: complexity, noise, sharpness
    out = np.zeros(pj.shape[-1])
    for n in range(pn.shape[-1]):
        for s in range(ps.shape[-1]):
            for c in range(pj.shape[0]):
                for g in range(pj.shape[-1]):
                    out[g] += pj[c, n, s, g] * ps[n, s] * pn[b_idx, n]
    return out / out.sum()


def random_pairwise_tables(rng, k=3, k_b=2):
    return [
        random_table(rng, VAR_NOISE, (VAR_BATCH,), (k_b,), k),
        random_table(rng, VAR_SHARPNESS, (VAR_NOISE,), (k,), k),
        random_table(rng, VAR_COMPLEXITY, (VAR_NOISE,), (k,), k),
        random_table(rng, VAR_GENERALIZATION, (VAR_COMPLEXITY,), (k,), k),
    ]


def joint_enumeration_oracle(h, tables, index, treatment=VAR_BATCH):
    """P(generalization | do(treatment = its bin ``index``)) for any
    hypergraph, by brute force.

    Enumerates every joint assignment of the non-intervened variables, takes
    the product of one table entry per hyperedge that does not head into the
    treatment, and normalizes the outcome marginal. A variable without a
    table ranges over the size its consumers give it.
    """
    by_head = {t.head: t for t in tables}
    k = {v: n for t in tables for v, n in zip(t.tails + (t.head,), t.probs.shape)}
    free = [v for v in h.variables if v != treatment]
    out = np.zeros(k[VAR_GENERALIZATION])
    for values in itertools.product(*(range(k[v]) for v in free)):
        assign = {treatment: index, **dict(zip(free, values))}
        p = 1.0
        for edge in h.hyperedges:
            if edge.head == treatment:
                continue  # do() cuts every edge into the treatment
            t = by_head[edge.head]
            p *= t.probs[tuple(assign[v] for v in t.tails) + (assign[edge.head],)]
        out[assign[VAR_GENERALIZATION]] += p
    return out / out.sum()


# structure, random tables of that structure, and its hand-written oracle
ORACLE_CASES = {
    "hypergraph": (STRUCTURES["hypergraph"], random_hypergraph_tables, hypergraph_oracle),
    "algorithm1": (STRUCTURES["algorithm1"], random_algorithm1_tables, algorithm1_oracle),
    "pairwise": (PAIRWISE, random_pairwise_tables, None),
}


class TestValidateHypergraph:
    def test_default_graph_order(self):
        order = validate_hypergraph(STRUCTURES["hypergraph"])
        assert order == [VAR_BATCH, VAR_NOISE, VAR_SHARPNESS, VAR_COMPLEXITY, VAR_GENERALIZATION]

    def test_pairwise_variant_valid(self):
        order = validate_hypergraph(PAIRWISE)
        assert order.index(VAR_NOISE) < order.index(VAR_COMPLEXITY)

    # an invalid structure cannot be built
    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            CausalHypergraph.from_edges(
                (VAR_BATCH, VAR_NOISE), [((VAR_BATCH,), VAR_NOISE), ((VAR_NOISE,), VAR_BATCH)]
            )

    def test_double_head_rejected(self):
        with pytest.raises(ValueError, match="two incoming"):
            CausalHypergraph.from_edges(
                (VAR_BATCH, VAR_NOISE, VAR_SHARPNESS),
                [
                    ((VAR_BATCH,), VAR_NOISE),
                    ((VAR_SHARPNESS,), VAR_NOISE),
                    ((VAR_BATCH,), VAR_SHARPNESS),
                ],
            )

    def test_unknown_variable_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            CausalHypergraph.from_edges((VAR_BATCH,), [(("mystery",), VAR_BATCH)])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match=f"^self-loop on '{VAR_NOISE}'$"):
            causal.Hyperedge((VAR_BATCH, VAR_NOISE), VAR_NOISE)


def discretize(x, k, batch=16):
    """``discretize_records`` of a continuous column ``x`` beside a batch-size
    column (one level, or one per record), the batch size the one discrete
    variable."""
    x = np.asarray(x, dtype=np.float64)
    columns = {"x": x, VAR_BATCH: np.asarray(np.broadcast_to(batch, x.shape))}
    return discretize_records(columns, k, {VAR_BATCH})


class TestDiscretize:
    def test_exact_tertiles(self):
        scheme, binned = discretize(range(1, 10), k=3)
        expected = [0, 0, 0, 1, 1, 1, 2, 2, 2]
        np.testing.assert_array_equal(binned["x"], expected)

    def test_constant_column_gets_one_bin(self):
        scheme, binned = discretize([1.0] * 10, k=3)
        assert scheme["x"] == causal.ContinuousBinning(cuts=(), representatives=(1.0,))
        assert scheme["x"].k == 1
        np.testing.assert_array_equal(binned["x"], np.zeros(10))

    def test_bins_clamped_to_distinct_values(self):
        scheme, _ = discretize([v % 2 for v in range(12)], k=3)
        assert scheme["x"].k == 2
        assert scheme["x"].representatives == (0.0, 1.0)

    def test_quantile_occupancy(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal(100)
        scheme, binned = discretize(values, k=4)
        counts = np.bincount(binned["x"], minlength=4)
        assert all(abs(c - 25) <= 1 for c in counts)
        # independent quantile check by sorting
        xs = np.sort(values)
        cuts = scheme["x"].cuts
        assert xs[24] <= cuts[0] <= xs[25]

    def test_tie_goes_to_lower_bin(self):
        scheme, binned = discretize([1.0, 2.0, 3.0, 4.0], k=2)
        cut = scheme["x"].cuts[0]
        # the median of 1..4 is 2.5; a record exactly at a cut goes low
        _, binned2 = discretize([1.0, cut, 3.0, 4.0], k=2)
        assert binned2["x"][1] == 0

    def test_representatives_are_bin_means(self):
        scheme, _ = discretize(range(1, 10), k=3)
        assert scheme["x"].representatives == (2.0, 5.0, 8.0)

    def test_first_bin_holds_the_minimum(self):
        # the first cut is a quantile, at least the minimum, and a tie goes low
        rng = np.random.default_rng(5)
        for _ in range(100):
            x = rng.integers(0, 5, rng.integers(2, 30))
            for k in (2, 3, 5):
                try:
                    _, binned = discretize(x, k)
                except ValueError as exc:  # tied cuts leave no binning
                    assert str(exc) == "quantile cut points are not strictly increasing"
                    continue
                assert binned["x"][np.argmin(x)] == 0

    def test_empty_top_bin_takes_the_maximum(self):
        # cuts (2.67, 3): every 3 sits on the top cut and goes low
        scheme, binned = discretize([1, 2, 3, 3, 3, 3], k=3)
        assert scheme["x"].cuts == pytest.approx((8 / 3, 3.0), rel=1e-15)
        np.testing.assert_array_equal(np.bincount(binned["x"], minlength=3), [2, 4, 0])
        assert scheme["x"].representatives == (1.5, 3.0, 3.0)

    def test_empty_middle_bin_takes_its_cuts_midpoint(self):
        # 5 bins clamp to the 3 distinct values; cuts (3, 3.67): the 3s go low
        scheme, binned = discretize([4, 1, 3, 4, 3, 4, 3, 3], k=5)
        assert scheme["x"].cuts == pytest.approx((3.0, 11 / 3), rel=1e-15)
        np.testing.assert_array_equal(np.bincount(binned["x"], minlength=3), [5, 0, 3])
        assert scheme["x"].representatives == pytest.approx((2.6, 10 / 3, 4.0), rel=1e-15)

    def test_batch_treated_as_discrete_levels(self):
        scheme, binned = discretize(range(6), k=2, batch=[16, 512, 16, 512, 64, 16])
        assert scheme[VAR_BATCH].levels == (16, 64, 512)
        np.testing.assert_array_equal(binned[VAR_BATCH], [0, 2, 0, 2, 1, 0])

    def test_discrete_set_alone_decides_levels(self):
        # any variable of the discrete set keeps its levels, and a batch-size
        # column outside it is binned like any other
        columns = {"x": np.array([3, 1, 3, 2]), VAR_BATCH: np.array([16.0, 64.0, 256.0, 512.0])}
        scheme, binned = discretize_records(columns, 2, {"x"})
        assert scheme["x"] == causal.DiscreteBinning(levels=(1, 2, 3))
        np.testing.assert_array_equal(binned["x"], [2, 0, 2, 1])
        assert isinstance(scheme[VAR_BATCH], causal.ContinuousBinning)
        np.testing.assert_array_equal(binned[VAR_BATCH], [0, 0, 1, 1])

    def test_scheme_dict_lists_cuts_and_levels(self):
        scheme, _ = discretize(range(12), k=3, batch=[16, 512] * 6)
        out = {var: binning.to_dict() for var, binning in scheme.items()}
        assert out[VAR_BATCH] == {"kind": "discrete", "levels": [16, 512]}
        assert out["x"]["kind"] == "continuous"
        # tertiles of 0..11; bins {0..3}, {4..7}, {8..11}
        assert out["x"]["cuts"] == pytest.approx([11 / 3, 22 / 3], rel=1e-15)
        assert out["x"]["representatives"] == [1.5, 5.5, 9.5]


class TestFitCpts:
    def scheme_and_columns(self, **cols):
        """Bin-index columns, each on as many levels as its largest index needs."""
        k = {name: int(np.max(v)) + 1 for name, v in cols.items()}
        return levels_scheme(k), {n: np.asarray(v) for n, v in cols.items()}

    def chain_graph(self):
        return CausalHypergraph.from_edges(("a", "b"), [(("a",), "b")])

    def test_laplace_smoothing_direct_formula(self):
        scheme = levels_scheme({"a": 1, "b": 2})
        binned = {"a": np.zeros(2, dtype=int), "b": np.zeros(2, dtype=int)}
        (table,) = fit_cpts(self.chain_graph(), scheme, binned, alpha=1.0)
        np.testing.assert_allclose(table.probs[0], [0.75, 0.25])

    def test_unsmoothed_counts(self):
        scheme, binned = self.scheme_and_columns(a=[0, 0, 0, 0], b=[0, 0, 0, 1])
        (table,) = fit_cpts(self.chain_graph(), scheme, binned, alpha=0.0)
        np.testing.assert_allclose(table.probs[0], [0.75, 0.25])

    def test_unseen_rows_uniform(self):
        scheme = levels_scheme({"a": 2, "b": 2})
        binned = {"a": np.zeros(3, dtype=int), "b": np.array([0, 1, 0])}
        (table,) = fit_cpts(self.chain_graph(), scheme, binned, alpha=1.0)
        np.testing.assert_allclose(table.probs[1], [0.5, 0.5])
        (table0,) = fit_cpts(self.chain_graph(), scheme, binned, alpha=0.0)
        np.testing.assert_allclose(table0.probs[1], [0.5, 0.5])

    def test_rows_sum_to_one_and_positive(self):
        rng = np.random.default_rng(1)
        n = 200
        scheme, binned = self.scheme_and_columns(
            **{
                VAR_BATCH: rng.integers(0, 2, n),
                VAR_NOISE: rng.integers(0, 3, n),
                VAR_SHARPNESS: rng.integers(0, 3, n),
                VAR_COMPLEXITY: rng.integers(0, 3, n),
                VAR_GENERALIZATION: rng.integers(0, 3, n),
            }
        )
        for table in fit_cpts(STRUCTURES["hypergraph"], scheme, binned, alpha=1.0):
            sums = table.probs.sum(axis=-1)
            np.testing.assert_allclose(sums, 1.0, atol=1e-12)
            assert (table.probs > 0).all()

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(2)
        n = 300
        cols = {
            VAR_BATCH: rng.integers(0, 2, n),
            VAR_NOISE: rng.integers(0, 3, n),
            VAR_SHARPNESS: rng.integers(0, 3, n),
            VAR_COMPLEXITY: rng.integers(0, 3, n),
            VAR_GENERALIZATION: rng.integers(0, 3, n),
        }
        scheme, binned = self.scheme_and_columns(**cols)
        tables = {t.head: t for t in fit_cpts(STRUCTURES["hypergraph"], scheme, binned, alpha=1.0)}
        # brute-force counting for the joint-tail table
        table = tables[VAR_COMPLEXITY]
        for nn in range(3):
            for ss in range(3):
                row_counts = np.zeros(3)
                for i in range(n):
                    if cols[VAR_NOISE][i] == nn and cols[VAR_SHARPNESS][i] == ss:
                        row_counts[cols[VAR_COMPLEXITY][i]] += 1
                expected = (row_counts + 1) / (row_counts.sum() + 3)
                np.testing.assert_allclose(table.probs[nn, ss], expected, atol=1e-12)


class TestInterventionalDistribution:
    def test_deterministic_chain_point_mass(self):
        def point(head, tails, tail_shape, k_head, mapping):
            probs = np.zeros(tuple(tail_shape) + (k_head,))
            for tail_bins, head_bin in mapping.items():
                probs[tail_bins + (head_bin,)] = 1.0
            return ConditionalTable(head=head, tails=tuple(sorted(tails)), probs=probs, alpha=0)

        tables = [
            point(VAR_NOISE, (VAR_BATCH,), (2,), 2, {(0,): 1, (1,): 0}),
            point(VAR_SHARPNESS, (VAR_NOISE,), (2,), 2, {(0,): 0, (1,): 1}),
            point(
                VAR_COMPLEXITY,
                (VAR_NOISE, VAR_SHARPNESS),
                (2, 2),
                2,
                {(n, s): int(n == 1 and s == 1) for n in range(2) for s in range(2)},
            ),
            point(VAR_GENERALIZATION, (VAR_COMPLEXITY,), (2,), 2, {(0,): 0, (1,): 1}),
        ]
        res = do_batch(tables, 0, index_scheme(2, 2))
        np.testing.assert_allclose(res.distribution, [0.0, 1.0], atol=1e-15)

    def test_uniform_tables_give_uniform_outcome(self):
        k = 3
        uniform = [
            ConditionalTable(VAR_NOISE, (VAR_BATCH,), np.full((2, k), 1 / k), 0),
            ConditionalTable(VAR_SHARPNESS, (VAR_NOISE,), np.full((k, k), 1 / k), 0),
            ConditionalTable(
                VAR_COMPLEXITY,
                tuple(sorted((VAR_NOISE, VAR_SHARPNESS))),
                np.full((k, k, k), 1 / k),
                0,
            ),
            ConditionalTable(VAR_GENERALIZATION, (VAR_COMPLEXITY,), np.full((k, k), 1 / k), 0),
        ]
        res = do_batch(uniform, 1, index_scheme(2, k))
        np.testing.assert_allclose(res.distribution, np.full(k, 1 / k), atol=1e-15)

    @pytest.mark.parametrize("mode", list(ORACLE_CASES))
    def test_random_tables_match_enumeration_oracle(self, mode):
        structure, make_tables, hand_oracle = ORACLE_CASES[mode]
        rng = np.random.default_rng(10)
        for trial in range(30):
            tables = make_tables(rng)
            oracles = [joint_enumeration_oracle(structure, tables, trial % 2)]
            if hand_oracle is not None:
                oracles.append(hand_oracle(tables, trial % 2))
            res = do_batch(tables, trial % 2, index_scheme(2, 3), mode)
            for oracle in oracles:
                tv = 0.5 * np.abs(res.distribution - oracle).sum()
                assert tv <= 1e-12
            assert res.distribution.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("treatment", [VAR_NOISE, VAR_SHARPNESS])
    @pytest.mark.parametrize("mode", list(ORACLE_CASES))
    def test_do_on_a_mediator_matches_enumeration_oracle(self, mode, treatment):
        # a discrete mediator's level resolves through the scheme as the batch size's does
        structure, make_tables, _ = ORACLE_CASES[mode]
        levels = (0.25, 0.5, 4.0)
        scheme = {**index_scheme(2, 3), treatment: causal.DiscreteBinning(levels=levels)}
        rng = np.random.default_rng(18)
        for trial in range(30):
            tables = make_tables(rng)
            index = trial % 3
            res = interventional_distribution(
                tables, scheme, treatment, levels[index], VAR_GENERALIZATION, mode
            )
            oracle = joint_enumeration_oracle(structure, tables, index, treatment)
            assert 0.5 * np.abs(res.distribution - oracle).sum() <= 1e-12
            assert res.b == levels[index]
            assert res.expected == pytest.approx(oracle @ np.arange(3), abs=1e-12)

    def test_pairwise_graph_supported(self):
        rng = np.random.default_rng(11)
        tables = [
            random_table(rng, VAR_NOISE, (VAR_BATCH,), (2,), 3),
            random_table(rng, VAR_SHARPNESS, (VAR_NOISE,), (3,), 3),
            random_table(rng, VAR_COMPLEXITY, (VAR_NOISE,), (3,), 3),
            random_table(rng, VAR_GENERALIZATION, (VAR_COMPLEXITY,), (3,), 3),
        ]
        res = do_batch(tables, 0, index_scheme(2, 3), "pairwise")
        assert res.distribution.sum() == pytest.approx(1.0, abs=1e-12)

    def test_unknown_level_rejected(self):
        rng = np.random.default_rng(12)
        tables = random_hypergraph_tables(rng)
        with pytest.raises(ValueError, match="unknown intervention level"):
            do_batch(tables, 7, index_scheme(2, 3))

    def test_missing_table_rejected(self):
        # without the table into generalization the tables have no outcome
        rng = np.random.default_rng(13)
        tables = random_hypergraph_tables(rng)[:-1]
        with pytest.raises(ValueError, match="no table heads 'generalization'"):
            do_batch(tables, 0, index_scheme(2, 3))

    @pytest.mark.parametrize(
        "head, tails, error",
        [
            (VAR_COMPLEXITY, (VAR_BATCH,), "two incoming"),  # a second complexity table
            (VAR_BATCH, (VAR_GENERALIZATION,), "cycle"),  # the outcome drives the batch size
        ],
        ids=["two-heads", "cycle"],
    )
    def test_table_set_that_is_no_structure_rejected(self, head, tails, error):
        # the tables are the structure: one table per head, and no cycle
        rng = np.random.default_rng(16)
        k = {VAR_BATCH: 2, VAR_NOISE: 3, VAR_COMPLEXITY: 3, VAR_GENERALIZATION: 3}
        extra = random_table(rng, head, tails, [k[t] for t in tails], k[head])
        tables = random_hypergraph_tables(rng) + [extra]
        with pytest.raises(ValueError, match=error):
            do_batch(tables, 0, index_scheme(2, 3))

    def test_table_into_batch_size_is_no_factor(self):
        # do(B) cuts every edge into B: a fitted prior on B changes no answer
        rng = np.random.default_rng(17)
        n = 60
        binned = {v: rng.integers(0, 3, n) for v in VARIABLES}
        binned[VAR_BATCH] = rng.integers(0, 2, n)
        mediators = levels_scheme({VAR_NOISE: 3, VAR_SHARPNESS: 3, VAR_COMPLEXITY: 3})
        scheme = {**mediators, **index_scheme(2, 3)}
        edges = [(e.tails, e.head) for e in STRUCTURES["hypergraph"].hyperedges]
        tables = fit_cpts(STRUCTURES["hypergraph"], scheme, binned, alpha=1.0)
        with_prior = CausalHypergraph.from_edges(VARIABLES, [((), VAR_BATCH)] + edges)
        prior_tables = fit_cpts(with_prior, scheme, binned, alpha=1.0)
        assert prior_tables[0].head == VAR_BATCH and prior_tables[0].probs.shape == (2,)
        for b in (0, 1):
            plain = do_batch(tables, b, scheme)
            primed = do_batch(prior_tables, b, scheme)
            np.testing.assert_array_equal(primed.distribution, plain.distribution)
            assert primed.expected == plain.expected

    def test_level_resolution_through_scheme(self):
        rng = np.random.default_rng(14)
        tables = random_hypergraph_tables(rng)
        by_index = index_scheme(2, 3)
        scheme = {**by_index, VAR_BATCH: causal.DiscreteBinning(levels=(16, 512))}
        at_index = do_batch(tables, 1, by_index)
        at_level = do_batch(tables, 512, scheme)
        np.testing.assert_array_equal(at_index.distribution, at_level.distribution)
        assert at_index.expected == at_level.expected
        with pytest.raises(ValueError, match="unknown intervention level"):
            do_batch(tables, 64, scheme)


def ate(tables, b_treat, b_control, scheme):
    """E[outcome | do(b_treat)] - E[outcome | do(b_control)]."""
    treat, control = (
        do_batch(tables, b, scheme) for b in (b_treat, b_control)
    )
    return treat.expected - control.expected


class TestAte:
    def test_identical_distributions_zero(self):
        rng = np.random.default_rng(15)
        tables = random_hypergraph_tables(rng)
        assert ate(tables, 0, 0, index_scheme(2, 3)) == 0.0

    def test_point_mass_expectations(self):
        # do(16) concentrates on a bin representing 83.9, do(512) on 80.5
        k = 2
        tables = [
            ConditionalTable(VAR_NOISE, (VAR_BATCH,), np.array([[1.0, 0.0], [0.0, 1.0]]), 0),
            ConditionalTable(VAR_SHARPNESS, (VAR_NOISE,), np.eye(k), 0),
            ConditionalTable(
                VAR_COMPLEXITY,
                tuple(sorted((VAR_NOISE, VAR_SHARPNESS))),
                np.stack([np.stack([np.eye(k)[n]] * k) for n in range(k)]),
                0,
            ),
            ConditionalTable(VAR_GENERALIZATION, (VAR_COMPLEXITY,), np.eye(k), 0),
        ]
        scheme = {
            VAR_BATCH: causal.DiscreteBinning(levels=(16, 512)),
            VAR_GENERALIZATION: causal.ContinuousBinning(
                cuts=(82.0,), representatives=(83.9, 80.5)
            ),
        }
        value = ate(tables, 16, 512, scheme)
        assert value == pytest.approx(3.4, abs=1e-12)

    def test_matches_enumeration_expectations(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            tables = random_hypergraph_tables(rng)
            expected = hypergraph_oracle(tables, 0) @ np.arange(3) - hypergraph_oracle(
                tables, 1
            ) @ np.arange(3)
            assert ate(tables, 0, 1, index_scheme(2, 3)) == pytest.approx(expected, abs=1e-12)


class TestBackdoorDiagnostic:
    def diagnose(self, b, g, c, roles=(VAR_BATCH, VAR_GENERALIZATION, VAR_COMPLEXITY)):
        """The diagnostic of treatment ``b``, outcome ``g`` and stratifier
        ``c``, bin-index columns named by ``roles`` (the lab's by default),
        each on as many levels as its largest index needs."""
        cols = {v: np.asarray(x) for v, x in zip(roles, (b, g, c))}
        scheme = levels_scheme({v: int(x.max()) + 1 for v, x in cols.items()})
        return backdoor_diagnostic(scheme, cols, *roles)

    def test_hand_evaluated_chi_square(self):
        # single stratum with counts [[10, 0], [0, 10]]
        b = [0] * 10 + [1] * 10
        g = [0] * 10 + [1] * 10
        c = [0] * 20
        rows = self.diagnose(b, g, c)
        assert len(rows) == 1
        assert rows[0].chi_square == pytest.approx(20.0, abs=1e-12)
        assert rows[0].dof == 1
        assert rows[0].p_value < 1e-4

    def test_independence_by_construction_rarely_rejects(self):
        rng = np.random.default_rng(17)
        n = 1200
        c = rng.integers(0, 3, n)
        g = (c + rng.integers(0, 2, n)) % 3  # depends on C only
        b = rng.integers(0, 2, n)  # independent treatment
        rows = self.diagnose(b, g, c)
        rejections = [r for r in rows if not r.skipped and r.p_value < 0.01]
        assert len(rejections) == 0

    def test_direct_dependence_rejects(self):
        rng = np.random.default_rng(18)
        n = 600
        b = rng.integers(0, 2, n)
        g = b.copy()  # outcome a function of treatment
        c = rng.integers(0, 2, n)
        rows = self.diagnose(b, g, c)
        assert any((not r.skipped) and r.p_value < 0.01 for r in rows)

    def test_sparse_strata_skipped_and_reported(self):
        b = [0, 1, 0, 1, 0, 1]
        g = [0, 1, 0, 1, 0, 1]
        c = [0, 0, 0, 0, 0, 1]  # stratum 1 has a single record
        rows = self.diagnose(b, g, c)
        assert rows[1].skipped and "fewer than" in rows[1].reason

    def test_roles_come_from_the_caller(self):
        # the same columns under other names, and with the roles swapped
        rng = np.random.default_rng(19)
        b, g, c = rng.integers(0, 2, 90), rng.integers(0, 3, 90), rng.integers(0, 2, 90)
        rows = self.diagnose(b, g, c)
        assert self.diagnose(b, g, c, roles=("t", "y", "z")) == rows
        swapped = self.diagnose(g, b, c, roles=("y", "t", "z"))
        assert [(r.chi_square, r.dof, r.n) for r in swapped] == [(r.chi_square, r.dof, r.n) for r in rows]

    def test_chi_square_oracle_formula(self):
        table = np.array([[12.0, 5.0], [7.0, 9.0]])
        stat, dof = pearson_chi_square(table)
        total = table.sum()
        expected = np.outer(table.sum(1), table.sum(0)) / total
        oracle = ((table - expected) ** 2 / expected).sum()
        assert stat == pytest.approx(oracle, rel=1e-12)
        assert dof == 1


MEDIATORS = (VAR_NOISE, VAR_SHARPNESS, VAR_COMPLEXITY)


class TestScmRecovery:
    def sample_scm(self, rng, n, tables):
        by_head = {t.head: t for t in tables}
        cols = {VAR_BATCH: rng.integers(0, 2, n)}

        def draw(head, tails):
            probs = by_head[head].probs
            tail_idx = tuple(cols[t] for t in by_head[head].tails)
            rows = probs[tail_idx]
            u = rng.random(n)
            return (u[:, None] > rows.cumsum(axis=1)).sum(axis=1)

        cols[VAR_NOISE] = draw(VAR_NOISE, (VAR_BATCH,))
        cols[VAR_SHARPNESS] = draw(VAR_SHARPNESS, (VAR_NOISE,))
        cols[VAR_COMPLEXITY] = draw(VAR_COMPLEXITY, (VAR_NOISE, VAR_SHARPNESS))
        cols[VAR_GENERALIZATION] = draw(VAR_GENERALIZATION, (VAR_COMPLEXITY,))
        return cols

    def test_recovers_ground_truth_interventional(self):
        rng = np.random.default_rng(20)
        truth = random_hypergraph_tables(rng, concentrate=0.3)
        cols = self.sample_scm(rng, 30_000, truth)
        scheme = {**levels_scheme(dict.fromkeys(MEDIATORS, 3)), **index_scheme(2, 3)}
        fitted = fit_cpts(STRUCTURES["hypergraph"], scheme, cols, alpha=1.0)
        for b in (0, 1):
            est = do_batch(fitted, b, scheme)
            analytic = hypergraph_oracle(truth, b)
            tv = 0.5 * np.abs(est.distribution - analytic).sum()
            assert tv <= 0.03

    def test_hypergraph_error_not_worse_than_pairwise_on_interaction(self):
        # Complexity is (noise XOR sharpness)-like, a genuine joint effect the
        # pairwise graph cannot represent. For unsmoothed fits the pairwise
        # composition collapses to the same empirical conditional (count
        # algebra), so the do(B) query error can only tie, never beat, the
        # joint-tail fit; the assertion is <= and holds exactly at alpha=0.
        rng = np.random.default_rng(21)
        k = 2
        eps = 0.05
        xor_probs = np.zeros((k, k, k))
        for n in range(k):
            for s in range(k):
                xor_probs[n, s] = np.where(np.arange(k) == (n ^ s), 1 - eps, eps)
        truth = [
            random_table(rng, VAR_NOISE, (VAR_BATCH,), (2,), k, concentrate=0.3),
            random_table(rng, VAR_SHARPNESS, (VAR_NOISE,), (k,), k, concentrate=0.3),
            ConditionalTable(
                VAR_COMPLEXITY, tuple(sorted((VAR_NOISE, VAR_SHARPNESS))), xor_probs, 0
            ),
            random_table(rng, VAR_GENERALIZATION, (VAR_COMPLEXITY,), (k,), k, concentrate=0.3),
        ]
        cols = self.sample_scm(rng, 20_000, truth)
        scheme = {**levels_scheme(dict.fromkeys(MEDIATORS, k)), **index_scheme(2, k)}
        fitted_hyper = fit_cpts(STRUCTURES["hypergraph"], scheme, cols, alpha=0.0)
        fitted_pair = fit_cpts(PAIRWISE, scheme, cols, alpha=0.0)
        errs = {"hyper": 0.0, "pair": 0.0}
        for b in (0, 1):
            analytic = hypergraph_oracle(truth, b, k=k) @ np.arange(k)
            e_hyper = do_batch(fitted_hyper, b, scheme).expected
            e_pair = do_batch(fitted_pair, b, scheme, "pairwise").expected
            errs["hyper"] += abs(e_hyper - analytic)
            errs["pair"] += abs(e_pair - analytic)
        assert errs["hyper"] <= errs["pair"] + 1e-12
