"""Evaluation statistics: partition distance (MoJoFM), rater agreement,
rank tests, effect sizes, multiple-comparison correction, sampling margins,
and Monte-Carlo power/variability simulations.

From SciPy: midranks (`rankdata`), the MoJoFM tag matching
(`linear_sum_assignment`), the margin's normal quantile (`ndtri`), and the
Mann-Whitney p-value above 20 values and both tests of the power
simulation (`mannwhitneyu`, asymptotic; `ttest_ind`). gelid's own: the
MoJoFM distance and denominator, kappa, Cliff's delta and
Benjamini-Hochberg, which SciPy 1.10 lacks, and the exact Mann-Whitney
p-value, which SciPy's exact method computes as if there were no ties.
SciPy is imported inside the functions that call it, so importing gelid
loads none of it and ``gelid run`` never pays for it.

Everything here is deterministic given its inputs (and seed, where one
applies). The enumeration oracles that check the fast paths live in the
tests.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, InternalError

log = logging.getLogger(__name__)

_NEG = -(10 ** 12)

# ---------------------------------------------------------------------------
# Partitions and the Move/Join distance


@dataclass(frozen=True)
class Partition:
    """Objects mapped to group labels; groups are non-empty by construction."""

    assignment: tuple[tuple[str, int], ...]  # (object_id, group) pairs

    @staticmethod
    def from_mapping(mapping: dict) -> "Partition":
        labels = {}  # groups numbered in order of first appearance
        return Partition(tuple(
            (str(obj), labels.setdefault(grp, len(labels)))
            for obj, grp in sorted(mapping.items(), key=lambda kv: str(kv[0]))))

    @staticmethod
    def from_groups(groups: list[list]) -> "Partition":
        mapping = {}
        for gi, members in enumerate(groups):
            if not members:
                raise DataError("partition groups must be non-empty")
            for obj in map(str, members):  # the id Partition stores
                if obj in mapping:
                    raise DataError(f"object {obj!r} appears more than once")
                mapping[obj] = gi
        return Partition.from_mapping(mapping)

    @property
    def objects(self) -> tuple[str, ...]:
        return tuple(obj for obj, _ in self.assignment)

    @property
    def n_objects(self) -> int:
        return len(self.assignment)

    def labels(self) -> np.ndarray:
        return np.array([g for _, g in self.assignment], dtype=np.int64)

    def groups(self) -> list[set[str]]:
        out: dict[int, set[str]] = {}
        for obj, g in self.assignment:
            out.setdefault(g, set()).add(obj)
        return [out[g] for g in sorted(out)]


def _aligned_labels(a: Partition, b: Partition) -> tuple[np.ndarray, np.ndarray]:
    if a.objects != b.objects:
        raise DataError("partitions cover different object sets")
    return a.labels(), b.labels()


def _overlap_matrix(la: np.ndarray, lb: np.ndarray) -> np.ndarray:
    ga, gb = int(la.max()) + 1, int(lb.max()) + 1
    table = np.zeros((ga, gb), dtype=np.int64)
    np.add.at(table, (la, lb), 1)
    return table


def _mno_from_overlaps(table: np.ndarray, n: int) -> int:
    """Optimal tag assignment: max-weight matching plus greedy leftovers.

    A-groups matched to distinct B tags earn overlap + 1 (the +1 for using a
    fresh tag); an unmatched A-group is tagged greedily onto its best tag,
    earning only the overlap. mno = n + #A-groups - best total.
    """
    ga, gb = table.shape
    best = table.max(axis=1)
    weights = np.full((ga, gb + ga), _NEG, dtype=np.int64)
    weights[:, :gb] = table + 1
    weights[np.arange(ga), gb + np.arange(ga)] = best
    from scipy.optimize import linear_sum_assignment
    rows, cols = linear_sum_assignment(weights, maximize=True)
    return n + ga - int(weights[rows, cols].sum())


def mno(a: Partition, b: Partition) -> int:
    """Minimum number of Move or Join operations transforming a into b."""
    la, lb = _aligned_labels(a, b)
    return _mno_from_overlaps(_overlap_matrix(la, lb), a.n_objects)


def _spread_matching_number(sizes: tuple[int, ...]) -> int:
    """Max matching of the tableau adversary's best-tag graph.

    Column i of the tableau touches every group of size >= i, so
    neighborhoods are nested; Hall's condition reduces to a scan.
    """
    bmax = sizes[0]
    at_least = [sum(1 for s in sizes if s >= i) for i in range(1, bmax + 1)]
    nu = 0
    for k in range(1, bmax + 1):
        if all(at_least[i - 1] >= k - i + 1 for i in range(1, k + 1)):
            nu = k
    return nu


def _max_mno_closed_form(sizes: tuple[int, ...], n: int) -> int:
    """Closed-form max over all partitions E of mno(E, B), from B's sizes.

    Minimizes the defender's gain over three adversary families: one lump
    (gain b_max), a spread tableau (gain = its matching number), and a
    star that splits the top k groups into anchors absorbing the rest
    (gain k + b_{k+1}, needs sum(b_i - 1, i<=k) >= b_{k+1} anchors).
    The tests check it against enumeration over every set partition, for
    every group-size multiset with n <= 10.
    """
    s = tuple(sorted(sizes, reverse=True))
    g = len(s)
    gains = [s[0], _spread_matching_number(s)]
    for k in range(1, g + 1):
        b_next = s[k] if k < g else 0
        if sum(x - 1 for x in s[:k]) >= b_next:
            gains.append(k + b_next)
    return n - min(gains)


def max_mno(b: Partition) -> int:
    """max(mno(forall E_A, B)): the distance of the farthest partition."""
    return _max_mno_closed_form(tuple(len(g) for g in b.groups()),
                                b.n_objects)


def mojo_fm(a: Partition, b: Partition) -> float:
    """MoJoFM(A,B) = 100 - mno(A,B) / max(mno(forall E_A, B)) * 100.

    100 means A equals B; 0 means A is the farthest partition from B.
    """
    if a.n_objects < 2:
        raise DataError("MoJoFM is undefined for fewer than 2 objects")
    denominator = max_mno(b)
    if denominator == 0:
        raise DataError("MoJoFM denominator is 0 for this reference partition")
    distance = mno(a, b)
    if distance > denominator:
        raise InternalError(
            f"mno {distance} exceeds the maximum {denominator}; "
            f"max-mno closed form is wrong for this input")
    return 100.0 - (distance / denominator) * 100.0


# ---------------------------------------------------------------------------
# Rater agreement and rank statistics


def cohens_kappa(ratings1, ratings2) -> float:
    """Cohen's kappa for two categorical sequences of equal length.

    When expected agreement is 1 (both raters constant), kappa is defined
    as 1.0 for perfect agreement and 0.0 otherwise, with a warning.
    """
    r1, r2 = list(ratings1), list(ratings2)
    if len(r1) != len(r2):
        raise DataError(f"rating sequences differ in length "
                        f"({len(r1)} vs {len(r2)})")
    if not r1:
        raise DataError("rating sequences are empty")
    n = len(r1)
    p_o = sum(x == y for x, y in zip(r1, r2)) / n
    categories = sorted(set(r1) | set(r2), key=str)
    p_e = sum((r1.count(c) / n) * (r2.count(c) / n) for c in categories)
    if p_e >= 1.0 - 1e-15:
        log.warning("degenerate kappa: expected agreement is 1")
        return 1.0 if p_o >= 1.0 - 1e-15 else 0.0
    return (p_o - p_e) / (1.0 - p_e)


@dataclass(frozen=True)
class MannWhitneyResult:
    u: float
    p_value: float
    exact: bool


def mann_whitney_u(x, y) -> MannWhitneyResult:
    """Two-sided Mann-Whitney U test.

    U counts pairs with x > y, ties worth 0.5. The p-value is exact (full
    enumeration of the C(n1+n2, n1) labelings of the pooled data) when
    n1 + n2 <= 20, and otherwise SciPy's normal approximation with tie and
    continuity corrections.
    """
    x = np.asarray(list(x), dtype=float)
    y = np.asarray(list(y), dtype=float)
    if x.size == 0 or y.size == 0:
        raise DataError("both samples must be non-empty")
    n1, n2 = x.size, y.size
    from scipy.stats import mannwhitneyu, rankdata
    ranks = rankdata(np.concatenate([x, y]))  # 1-based midranks
    u = float(ranks[:n1].sum() - n1 * (n1 + 1) / 2)
    if n1 + n2 <= 20:
        p = _exact_u_p_value(ranks, n1, n2, u)
        return MannWhitneyResult(u=u, p_value=p, exact=True)
    p = float(mannwhitneyu(x, y, method="asymptotic").pvalue)
    return MannWhitneyResult(u=u, p_value=p, exact=False)


def _exact_u_p_value(ranks: np.ndarray, n1: int, n2: int, u_obs: float) -> float:
    # distribution of 2*R1 over all labelings, via subset-sum counting
    doubled = np.rint(ranks * 2).astype(np.int64)
    total = int(doubled.sum())
    counts = np.zeros((n1 + 1, total + 1), dtype=np.float64)
    counts[0, 0] = 1.0
    for d in doubled:
        for k in range(n1, 0, -1):  # descending so each item is used once
            counts[k, d:] += counts[k - 1, :-d]
    dist = counts[n1]
    possible_2u = np.arange(total + 1) - n1 * (n1 + 1)
    center = n1 * n2  # 2 * (n1*n2/2)
    observed_dev = abs(2 * u_obs - center)
    mask = np.abs(possible_2u - center) >= observed_dev - 1e-9
    return float(dist[mask].sum() / dist.sum())


_CLIFF_BANDS = ((0.147, "negligible"), (0.33, "small"), (0.474, "medium"))


@dataclass(frozen=True)
class CliffsDeltaResult:
    delta: float
    magnitude: str


def cliffs_delta(x, y) -> CliffsDeltaResult:
    """Cliff's delta (#[x>y] - #[x<y]) / (n1*n2) with magnitude band."""
    x = np.asarray(list(x), dtype=float)
    y = np.asarray(list(y), dtype=float)
    if x.size == 0 or y.size == 0:
        raise DataError("both samples must be non-empty")
    diff = x[:, None] - y[None, :]
    delta = float((np.sign(diff)).sum() / (x.size * y.size))
    magnitude = "large"
    for threshold, band in _CLIFF_BANDS:
        if abs(delta) < threshold:
            magnitude = band
            break
    return CliffsDeltaResult(delta=delta, magnitude=magnitude)


def benjamini_hochberg(p_values) -> list[float]:
    """Step-up BH adjustment; returns values in the original order."""
    p = np.asarray(list(p_values), dtype=float)
    if p.size == 0:
        return []
    if np.any((p < 0) | (p > 1)) or not np.all(np.isfinite(p)):
        raise DataError("p-values must lie in [0, 1]")
    m = p.size
    order = np.argsort(p, kind="stable")
    scaled = p[order] * m / np.arange(1, m + 1)
    adjusted_sorted = np.minimum(1.0, np.minimum.accumulate(scaled[::-1])[::-1])
    adjusted = np.empty(m)
    adjusted[order] = adjusted_sorted
    return adjusted.tolist()


# ---------------------------------------------------------------------------
# Sampling margins


def margin_of_error(n: int, confidence: float) -> float:
    """Worst-case (p = 0.5) proportion margin, infinite population."""
    if n < 1:
        raise DataError("sample size must be >= 1")
    if not 0.0 < confidence < 1.0:
        raise DataError(f"confidence {confidence} outside (0, 1)")
    from scipy.special import ndtri
    return float(ndtri(0.5 + confidence / 2.0) * math.sqrt(0.25 / n))


# ---------------------------------------------------------------------------
# Monte-Carlo simulations


@dataclass(frozen=True)
class LikertStdSummary:
    min: float
    max: float
    mean: float


def simulate_likert_std(n_sims: int, group_size: int, seed: int = 0,
                        rng: np.random.Generator | None = None
                        ) -> LikertStdSummary:
    """Sample-std spread of i.i.d. uniform 1..5 scores, over n_sims draws."""
    if n_sims < 1:
        raise DataError("n_sims must be >= 1")
    if group_size < 2:
        raise DataError("group_size must be >= 2")
    if rng is None:
        rng = np.random.default_rng(seed)
    draws = rng.integers(1, 6, size=(n_sims, group_size))
    stds = draws.std(axis=1, ddof=1)
    return LikertStdSummary(min=float(stds.min()), max=float(stds.max()),
                            mean=float(stds.mean()))


@dataclass(frozen=True)
class PowerEstimate:
    power: float               # t-test path (primary)
    power_mann_whitney: float
    n_sims: int


def simulate_power(group_size: int, mean_shift: float, sd: float, alpha: float,
                   n_sims: int, seed: int = 0) -> PowerEstimate:
    """Monte-Carlo power of a two-sided two-sample comparison.

    Draws two normal groups whose means differ by mean_shift and reports the
    fraction of simulations rejecting at level alpha, via both SciPy's
    pooled two-sample t-test (primary) and its asymptotic Mann-Whitney U
    test.
    """
    if not (sd > 0 and math.isfinite(sd)):
        raise DataError("sd must be > 0 and finite")
    if not math.isfinite(mean_shift):
        raise DataError("shift must be finite")
    if not 0.0 < alpha < 1.0:
        raise DataError(f"alpha {alpha} outside (0, 1)")
    if group_size < 2 or n_sims < 1:
        raise DataError("group_size must be >= 2 and n_sims >= 1")
    from scipy.stats import mannwhitneyu, ttest_ind
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, sd, size=(n_sims, group_size))
    b = rng.normal(mean_shift, sd, size=(n_sims, group_size))
    power_t = float((ttest_ind(a, b, axis=1).pvalue < alpha).mean())
    p_mw = mannwhitneyu(a, b, axis=1, method="asymptotic").pvalue
    power_mw = float((p_mw < alpha).mean())
    return PowerEstimate(power=power_t, power_mann_whitney=power_mw,
                         n_sims=n_sims)


def atomicity_score(extra_segments: int) -> int:
    """5 minus the number of additional standalone segments, floored at 1."""
    if extra_segments < 0:
        raise DataError("extra_segments must be >= 0")
    return max(5 - extra_segments, 1)
