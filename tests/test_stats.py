import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gelid.errors import DataError
from gelid.stats import (Partition, atomicity_score, benjamini_hochberg,
                         cliffs_delta, cohens_kappa, mann_whitney_u,
                         margin_of_error, max_mno, mno, mojo_fm,
                         simulate_likert_std, simulate_power)
from gelid.stats import _max_mno_closed_form
from mno_oracles import (integer_partitions, max_mno_enumerated,
                         mno_enumerated, mno_enumerated_product,
                         set_partitions)


def _partition_from_labels(labels):
    return Partition.from_mapping({f"{i:02d}": int(g)
                                   for i, g in enumerate(labels)})


def _all_partitions(n):
    return [_partition_from_labels(labels) for labels in set_partitions(n)]


# --- mno -------------------------------------------------------------------

def test_mno_identity_is_zero():
    a = Partition.from_groups([["1", "2"], ["3"]])
    assert mno(a, a) == 0
    assert mno_enumerated(a, a) == 0


def test_mno_single_join():
    a = Partition.from_groups([["1", "2"], ["3"]])
    b = Partition.from_groups([["1", "2", "3"]])
    assert mno_enumerated_product(a, b) == 1
    assert mno(a, b) == 1


def test_mno_single_move():
    a = Partition.from_groups([["1", "2", "3"]])
    b = Partition.from_groups([["1", "2"], ["3"]])
    assert mno_enumerated_product(a, b) == 1
    assert mno(a, b) == 1


def test_mno_object_set_mismatch_is_error():
    a = Partition.from_groups([["1", "2"]])
    b = Partition.from_groups([["1", "3"]])
    with pytest.raises(DataError):
        mno(a, b)


def _bfs_mno(a: Partition, b: Partition) -> int:
    """Graph-search oracle: true shortest Move/Join path between partitions."""
    objects = a.objects

    def canon(groups):
        return tuple(sorted(tuple(sorted(g)) for g in groups if g))

    start = canon([tuple(g) for g in a.groups()])
    goal = canon([tuple(g) for g in b.groups()])
    frontier = {start}
    seen = {start}
    steps = 0
    while goal not in frontier:
        nxt = set()
        for state in frontier:
            groups = [set(g) for g in state]
            # joins
            for i, j in itertools.combinations(range(len(groups)), 2):
                merged = [g for k, g in enumerate(groups) if k not in (i, j)]
                merged.append(groups[i] | groups[j])
                nxt.add(canon(merged))
            # moves (to another group or to a fresh one)
            for i, g in enumerate(groups):
                for obj in g:
                    for target in range(len(groups) + 1):
                        if target == i:
                            continue
                        moved = [set(x) for x in groups]
                        moved[i].discard(obj)
                        if target < len(groups):
                            moved[target].add(obj)
                        else:
                            moved.append({obj})
                        nxt.add(canon(moved))
        frontier = nxt - seen
        seen |= nxt
        steps += 1
        assert steps <= len(objects) + 2, "BFS runaway"
    return steps


def test_mno_matches_graph_search_oracle_small():
    rng = np.random.default_rng(3)
    for n in (2, 3, 4, 5):
        parts = _all_partitions(n)
        for _ in range(12):
            a = parts[rng.integers(len(parts))]
            b = parts[rng.integers(len(parts))]
            assert mno(a, b) == _bfs_mno(a, b)


def test_mno_matching_equals_enumeration_exhaustive_n5():
    # every ordered pair of partitions of 5 objects (52 x 52)
    parts = _all_partitions(5)
    for a in parts:
        for b in parts:
            expected = mno_enumerated(a, b)
            assert mno(a, b) == expected
            if len(a.groups()) <= 5 and len(b.groups()) <= 5:
                assert mno_enumerated_product(a, b) == expected


def test_mno_matching_equals_enumeration_random_to_8_objects():
    rng = np.random.default_rng(17)
    for _ in range(300):
        n = int(rng.integers(2, 9))
        a = _partition_from_labels(rng.integers(0, n, size=n))
        b = _partition_from_labels(rng.integers(0, n, size=n))
        assert mno(a, b) == mno_enumerated(a, b)


# --- MoJoFM ----------------------------------------------------------------

def test_mojofm_identity_is_100():
    rng = np.random.default_rng(23)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        a = _partition_from_labels(rng.integers(0, n, size=n))
        assert mojo_fm(a, a) == 100.0


def test_mojofm_farthest_partition_is_0():
    b = Partition.from_groups([["00", "01"], ["02"]])
    worst = max(_all_partitions(3), key=lambda e: mno(e, b))
    assert mojo_fm(worst, b) == 0.0


def test_mojofm_value_from_full_enumeration_n4():
    # denominator brute-forced over all 15 partitions of 4 objects
    ids = ["00", "01", "02", "03"]
    b = Partition.from_groups([[ids[0], ids[1]], [ids[2], ids[3]]])
    a = Partition.from_groups([[ids[0], ids[2]], [ids[1], ids[3]]])
    denominator = max(mno(e, b) for e in _all_partitions(4))
    assert denominator == 2
    assert max_mno(b) == denominator
    expected = 100.0 - mno(a, b) / denominator * 100.0
    assert mojo_fm(a, b) == expected == 0.0


def test_mojofm_single_object_is_error():
    a = Partition.from_groups([["1"]])
    with pytest.raises(DataError):
        mojo_fm(a, a)


@pytest.mark.parametrize("groups", [[[1], ["1"], ["2"]], [["a", "a"]],
                                    [[1.5], ["1.5"]]])
def test_partition_rejects_an_id_stored_twice(groups):
    # ids are stored as strings, so 1 and "1" name the same object
    with pytest.raises(DataError, match="more than once"):
        Partition.from_groups(groups)


def test_max_mno_closed_form_matches_enumeration_all_n_to_6():
    for n in range(2, 7):
        parts = _all_partitions(n)
        seen_sizes = set()
        for b in parts:
            sizes = tuple(sorted((len(g) for g in b.groups()), reverse=True))
            if sizes in seen_sizes:
                continue
            seen_sizes.add(sizes)
            enumerated = max(mno(e, b) for e in parts)
            assert _max_mno_closed_form(sizes, n) == enumerated, sizes


@pytest.mark.slow
def test_max_mno_closed_form_matches_enumeration_n7():
    parts = _all_partitions(7)
    seen = set()
    for b in parts:
        sizes = tuple(sorted((len(g) for g in b.groups()), reverse=True))
        if sizes in seen:
            continue
        seen.add(sizes)
        enumerated = max(mno(e, b) for e in parts)
        assert _max_mno_closed_form(sizes, 7) == enumerated, sizes


# max over all partitions E of mno(E, B), for every group-size multiset of
# B with 8 to 10 objects, as `max_mno_enumerated` computes it (170 s CPU)
_MAX_MNO_N8_TO_10 = {
    (8,): 7, (7, 1): 6, (6, 2): 6, (6, 1, 1): 6, (5, 3): 6, (5, 2, 1): 5,
    (5, 1, 1, 1): 6, (4, 4): 6, (4, 3, 1): 5, (4, 2, 2): 5, (4, 2, 1, 1): 5,
    (4, 1, 1, 1, 1): 6, (3, 3, 2): 5, (3, 3, 1, 1): 5, (3, 2, 2, 1): 5,
    (3, 2, 1, 1, 1): 5, (3, 1, 1, 1, 1, 1): 6, (2, 2, 2, 2): 6,
    (2, 2, 2, 1, 1): 6, (2, 2, 1, 1, 1, 1): 6, (2, 1, 1, 1, 1, 1, 1): 6,
    (1, 1, 1, 1, 1, 1, 1, 1): 7, (9,): 8, (8, 1): 7, (7, 2): 7, (7, 1, 1): 7,
    (6, 3): 7, (6, 2, 1): 6, (6, 1, 1, 1): 7, (5, 4): 7, (5, 3, 1): 6,
    (5, 2, 2): 6, (5, 2, 1, 1): 6, (5, 1, 1, 1, 1): 7, (4, 4, 1): 6,
    (4, 3, 2): 6, (4, 3, 1, 1): 6, (4, 2, 2, 1): 6, (4, 2, 1, 1, 1): 6,
    (4, 1, 1, 1, 1, 1): 7, (3, 3, 3): 6, (3, 3, 2, 1): 6, (3, 3, 1, 1, 1): 6,
    (3, 2, 2, 2): 6, (3, 2, 2, 1, 1): 6, (3, 2, 1, 1, 1, 1): 6,
    (3, 1, 1, 1, 1, 1, 1): 7, (2, 2, 2, 2, 1): 7, (2, 2, 2, 1, 1, 1): 7,
    (2, 2, 1, 1, 1, 1, 1): 7, (2, 1, 1, 1, 1, 1, 1, 1): 7,
    (1, 1, 1, 1, 1, 1, 1, 1, 1): 8, (10,): 9, (9, 1): 8, (8, 2): 8,
    (8, 1, 1): 8, (7, 3): 8, (7, 2, 1): 7, (7, 1, 1, 1): 8, (6, 4): 8,
    (6, 3, 1): 7, (6, 2, 2): 7, (6, 2, 1, 1): 7, (6, 1, 1, 1, 1): 8, (5, 5): 8,
    (5, 4, 1): 7, (5, 3, 2): 7, (5, 3, 1, 1): 7, (5, 2, 2, 1): 7,
    (5, 2, 1, 1, 1): 7, (5, 1, 1, 1, 1, 1): 8, (4, 4, 2): 7, (4, 4, 1, 1): 7,
    (4, 3, 3): 7, (4, 3, 2, 1): 6, (4, 3, 1, 1, 1): 7, (4, 2, 2, 2): 7,
    (4, 2, 2, 1, 1): 7, (4, 2, 1, 1, 1, 1): 7, (4, 1, 1, 1, 1, 1, 1): 8,
    (3, 3, 3, 1): 7, (3, 3, 2, 2): 7, (3, 3, 2, 1, 1): 7,
    (3, 3, 1, 1, 1, 1): 7, (3, 2, 2, 2, 1): 7, (3, 2, 2, 1, 1, 1): 7,
    (3, 2, 1, 1, 1, 1, 1): 7, (3, 1, 1, 1, 1, 1, 1, 1): 8, (2, 2, 2, 2, 2): 8,
    (2, 2, 2, 2, 1, 1): 8, (2, 2, 2, 1, 1, 1, 1): 8,
    (2, 2, 1, 1, 1, 1, 1, 1): 8, (2, 1, 1, 1, 1, 1, 1, 1, 1): 8,
    (1, 1, 1, 1, 1, 1, 1, 1, 1, 1): 9,
}


def test_max_mno_closed_form_matches_enumerated_table_n8_to_10():
    assert sorted(_MAX_MNO_N8_TO_10) == sorted(
        sizes for n in (8, 9, 10) for sizes in integer_partitions(n))
    for sizes, enumerated in _MAX_MNO_N8_TO_10.items():
        assert _max_mno_closed_form(sizes, sum(sizes)) == enumerated, sizes
        b = Partition.from_groups([[f"{g}_{i}" for i in range(size)]
                                   for g, size in enumerate(sizes)])
        assert max_mno(b) == enumerated, sizes


@pytest.mark.exhaustive
@pytest.mark.parametrize("n", [8, 9, 10])
def test_max_mno_enumerated_table_n8_to_10(n):
    for sizes in integer_partitions(n):
        assert max_mno_enumerated(sizes) == _MAX_MNO_N8_TO_10[sizes], sizes


def test_max_mno_closed_form_used_above_enumeration_limit():
    # 3 equal groups of 20: farthest partition is all-singletons (57 joins)
    groups = [[f"s{g}_{i}" for i in range(20)] for g in range(3)]
    b = Partition.from_groups(groups)
    assert max_mno(b) == 57


@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0,
                                                          max_value=10 ** 6))
@settings(max_examples=60, deadline=None)
def test_mojofm_range_property(n, seed):
    rng = np.random.default_rng(seed)
    a = _partition_from_labels(rng.integers(0, n, size=n))
    b = _partition_from_labels(rng.integers(0, n, size=n))
    value = mojo_fm(a, b)
    assert 0.0 <= value <= 100.0


# --- kappa ------------------------------------------------------------------

def test_kappa_identical_sequences():
    assert cohens_kappa(["a", "b", "a"], ["a", "b", "a"]) == 1.0


def test_kappa_zero_when_one_rater_constant():
    r1 = ["a", "b", "a", "b"]
    r2 = ["a", "a", "a", "a"]
    assert cohens_kappa(r1, r2) == pytest.approx(0.0)


def test_kappa_swapped_binary_is_minus_one():
    r1 = ["a", "b", "a", "b"]
    r2 = ["b", "a", "b", "a"]
    assert cohens_kappa(r1, r2) == pytest.approx(-1.0)


def test_kappa_length_mismatch_is_error():
    with pytest.raises(DataError):
        cohens_kappa(["a"], ["a", "b"])


def test_kappa_degenerate_marginals(caplog):
    with caplog.at_level("WARNING"):
        assert cohens_kappa(["a", "a"], ["a", "a"]) == 1.0


# --- Mann-Whitney -----------------------------------------------------------

def test_mann_whitney_exact_small_example():
    r = mann_whitney_u([1, 2], [3, 4])
    assert r.u == 0.0
    assert r.exact
    assert r.p_value == pytest.approx(2 / 6)


def test_mann_whitney_identical_multisets_u_is_half():
    r = mann_whitney_u([1, 2, 3], [1, 2, 3])
    assert r.u == pytest.approx(9 / 2)
    assert r.p_value == 1.0


def test_mann_whitney_exact_matches_product_enumeration():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n1, n2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        x = rng.integers(0, 5, size=n1).astype(float)
        y = rng.integers(0, 5, size=n2).astype(float)
        r = mann_whitney_u(x, y)
        pooled = np.concatenate([x, y])
        n = n1 + n2

        def u_of(subset):
            xs = pooled[list(subset)]
            ys = pooled[[i for i in range(n) if i not in subset]]
            gt = (xs[:, None] > ys[None, :]).sum()
            eq = (xs[:, None] == ys[None, :]).sum()
            return gt + 0.5 * eq

        center = n1 * n2 / 2
        dev = abs(r.u - center)
        hits = total = 0
        for subset in itertools.combinations(range(n), n1):
            total += 1
            if abs(u_of(subset) - center) >= dev - 1e-9:
                hits += 1
        assert r.p_value == pytest.approx(hits / total)


def test_mann_whitney_exact_vs_normal_approximation():
    rng = np.random.default_rng(42)
    x = rng.normal(0, 1, size=10)
    y = rng.normal(0.8, 1, size=10)
    exact = mann_whitney_u(x, y)
    assert exact.exact
    # the approximation mann_whitney_u uses above 20 values, on the same data
    from scipy.stats import mannwhitneyu
    approx_p = mannwhitneyu(x, y, method="asymptotic").pvalue
    assert abs(exact.p_value - approx_p) < 0.02


# approximate-path p-values of tied samples, as the hand-written normal
# approximation (tie and continuity corrections) computed them
_TIED_MW_P_VALUES = [
    ([1, 2, 2, 3, 3, 3, 4, 5, 5, 1, 2], [2, 3, 3, 4, 4, 5, 5, 5, 6, 6, 2],
     32.0, 0.06094853458044174),
    ([0] * 12 + [1] * 3, [0] * 5 + [1] * 9, 58.5, 0.018671471498104667),
    ([1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 5, 5], [1, 2, 3, 4, 5] * 2 + [3] * 3,
     89.0, 0.5586170069702399),
    ([3.5] * 10 + [1], [3.5] * 12, 60.0, 0.3383517215622194),
    ([1] * 11, [1] * 12, 66.0, 1.0),
    (list(range(15)), [7] * 8, 60.0, 1.0),
]


@pytest.mark.parametrize("x,y,u,p", _TIED_MW_P_VALUES)
def test_mann_whitney_approximation_keeps_its_p_values(x, y, u, p):
    r = mann_whitney_u(x, y)
    assert not r.exact
    assert r.u == u
    assert abs(r.p_value - p) <= 1e-12


def test_mann_whitney_matches_scipy_on_random_data():
    from scipy.stats import mannwhitneyu as scipy_mwu
    rng = np.random.default_rng(9)
    for n1, n2 in [(6, 7), (10, 10), (25, 30)]:
        x = rng.normal(0, 1, size=n1)
        y = rng.normal(0.5, 1, size=n2)
        ours = mann_whitney_u(x, y)
        theirs = scipy_mwu(x, y, alternative="two-sided",
                           method="exact" if n1 + n2 <= 20 else "asymptotic")
        assert ours.u == pytest.approx(theirs.statistic)
        assert ours.p_value == pytest.approx(theirs.pvalue, abs=5e-3)


def test_mann_whitney_empty_sample_is_error():
    with pytest.raises(DataError):
        mann_whitney_u([], [1.0])


# --- Cliff's delta ----------------------------------------------------------

def test_cliffs_delta_all_less():
    r = cliffs_delta([1, 1], [2, 2])
    assert r.delta == -1.0
    assert r.magnitude == "large"


def test_cliffs_delta_identical_constant():
    assert cliffs_delta([3, 3], [3, 3]).delta == 0.0


def test_cliffs_delta_hand_enumerated():
    r = cliffs_delta([1, 2, 3], [2, 3, 4])
    assert r.delta == pytest.approx(-5 / 9)
    assert r.magnitude == "large"


@pytest.mark.parametrize("delta,band", [
    (0.1, "negligible"), (0.2, "small"), (0.4, "medium"), (0.5, "large")])
def test_cliffs_delta_magnitude_bands(delta, band):
    # construct two-point samples achieving roughly the target delta
    n = 20
    wins = int(round((delta + 1) / 2 * n))
    x = [2.0] * wins + [0.0] * (n - wins)
    y = [1.0] * 1
    r = cliffs_delta(x, y)
    assert r.magnitude == band


# --- Benjamini-Hochberg ------------------------------------------------------

def test_bh_single_p_unchanged():
    assert benjamini_hochberg([0.04]) == [0.04]


def test_bh_hand_computed_step_up():
    assert benjamini_hochberg([0.01, 0.02, 0.03, 0.04]) == pytest.approx(
        [0.04, 0.04, 0.04, 0.04])


def test_bh_returns_original_order():
    adjusted = benjamini_hochberg([0.04, 0.01])
    assert adjusted[1] <= adjusted[0]


def test_bh_out_of_range_is_error():
    with pytest.raises(DataError):
        benjamini_hochberg([0.5, 1.5])


@given(st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=20))
@settings(max_examples=80, deadline=None)
def test_bh_properties(p):
    adjusted = benjamini_hochberg(p)
    assert all(a >= v - 1e-12 for a, v in zip(adjusted, p))
    assert all(a <= 1.0 for a in adjusted)
    order = np.argsort(p, kind="stable")
    ordered = [adjusted[i] for i in order]
    assert all(x <= y + 1e-12 for x, y in zip(ordered, ordered[1:]))


# --- margins and quantiles ---------------------------------------------------

def test_normal_quantile_accuracy():
    # the margin's z is the normal quantile of (1 + confidence) / 2
    known = {0.95: 1.959963984540054, 0.90: 1.6448536269514722,
             0.99: 2.5758293035489004, 0.5: 0.6744897501960817}
    for confidence, z in known.items():
        assert margin_of_error(1, confidence) / 0.5 == pytest.approx(
            z, rel=1e-14)
    from scipy.special import ndtri
    assert margin_of_error(1000, 0.95) == ndtri(0.975) * math.sqrt(0.25 / 1000)


def test_margin_of_error_at_1000_is_3_1_percent():
    m = margin_of_error(1000, 0.95)
    assert 0.0305 <= m <= 0.0315


def test_margin_scales_with_sqrt_n():
    assert margin_of_error(4000, 0.95) == pytest.approx(
        margin_of_error(1000, 0.95) / 2)


def test_margin_small_sample():
    assert margin_of_error(96, 0.95) == pytest.approx(0.100, abs=5e-4)


# --- simulations -------------------------------------------------------------

def test_likert_std_mean_near_population_value():
    out = simulate_likert_std(1000, 200, seed=1)
    assert abs(out.mean - math.sqrt(2.0)) < 0.02
    assert out.min <= out.mean <= out.max


def test_likert_std_constant_generator_gives_zero():
    class Stub:
        def integers(self, lo, hi, size):
            return np.full(size, 3)

    out = simulate_likert_std(10, 50, rng=Stub())
    assert out.mean == 0.0 and out.max == 0.0


def test_bimodal_worst_case_sample_std_near_2():
    class Bimodal:
        def integers(self, lo, hi, size):
            return np.tile([1] * 100 + [5] * 100, (size[0], 1))

    out = simulate_likert_std(3, 200, rng=Bimodal())
    assert out.mean == pytest.approx(2.005, abs=0.01)


def test_simulate_power_null_is_alpha():
    out = simulate_power(100, 0.0, 1.0, 0.05, n_sims=4000, seed=3)
    assert abs(out.power - 0.05) < 0.02
    assert abs(out.power_mann_whitney - 0.05) < 0.02


@pytest.mark.parametrize("sd,power,power_mann_whitney", [
    (1.54, 0.8936, 0.8805), (1.28, 0.9711, 0.9635), (2.0, 0.6914, 0.6742)])
def test_simulate_power_keeps_its_estimates(sd, power, power_mann_whitney):
    # the estimates of the hand-written t-test and rank-sum approximation
    out = simulate_power(200, 0.5, sd, 0.05, n_sims=10000, seed=0)
    assert (out.power, out.power_mann_whitney) == (power, power_mann_whitney)


def test_simulate_power_reproducible():
    a = simulate_power(50, 0.4, 1.2, 0.05, n_sims=500, seed=11)
    b = simulate_power(50, 0.4, 1.2, 0.05, n_sims=500, seed=11)
    assert a == b


def test_simulate_power_matches_analytic_oracle():
    # noncentral approximation: power ~ Phi(nc - z_crit) + Phi(-nc - z_crit)
    group, shift, sd = 200, 0.5, 1.414
    nc = shift / (sd * math.sqrt(2.0 / group))
    z_crit = 1.959964
    from math import erf

    def phi(v):
        return 0.5 * (1 + erf(v / math.sqrt(2)))

    analytic = phi(nc - z_crit) + phi(-nc - z_crit)
    out = simulate_power(group, shift, sd, 0.05, n_sims=6000, seed=5)
    assert abs(out.power - analytic) < 0.03


def test_atomicity_score_rule():
    assert atomicity_score(0) == 5
    assert atomicity_score(2) == 3
    assert atomicity_score(7) == 1
    with pytest.raises(DataError):
        atomicity_score(-1)


def test_simulate_seeds_are_deterministic():
    assert simulate_likert_std(50, 20, seed=9) == simulate_likert_std(
        50, 20, seed=9)
