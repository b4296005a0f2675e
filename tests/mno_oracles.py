"""Enumeration oracles for the Move/Join distance and its maximum.

They are exhaustive and therefore slow; the tests compare `stats.mno` and
`stats._max_mno_closed_form` against them on small inputs.
"""

import itertools

import numpy as np

from gelid.errors import DataError
from gelid.stats import (Partition, _aligned_labels, _mno_from_overlaps,
                         _overlap_matrix)


def mno_enumerated(a: Partition, b: Partition) -> int:
    """Exhaustive minimum over every tag assignment (small inputs).

    Uses a used-tag-set sweep, which scans the same assignment space as the
    plain product enumeration but tolerates more groups. Guarded at 20 B
    groups.
    """
    la, lb = _aligned_labels(a, b)
    table = _overlap_matrix(la, lb)
    ga, gb = table.shape
    if gb > 20:
        raise DataError(f"enumeration oracle limited to 20 B-groups, got {gb}")
    states = {0: 0}
    for i in range(ga):
        nxt: dict[int, int] = {}
        for mask, overlap in states.items():
            for t in range(gb):
                m2 = mask | (1 << t)
                v = overlap + int(table[i, t])
                if nxt.get(m2, -1) < v:
                    nxt[m2] = v
        states = nxt
    gain = max(ov + bin(mask).count("1") for mask, ov in states.items())
    return a.n_objects + ga - gain


def mno_enumerated_product(a: Partition, b: Partition) -> int:
    """Literal enumeration of all g_B^g_A tag assignments (tiny inputs)."""
    la, lb = _aligned_labels(a, b)
    table = _overlap_matrix(la, lb)
    ga, gb = table.shape
    if gb ** ga > 2_000_000:
        raise DataError(f"product enumeration infeasible for {ga}x{gb} groups")
    n = a.n_objects
    best = None
    for tau in itertools.product(range(gb), repeat=ga):
        overlap = sum(int(table[i, t]) for i, t in enumerate(tau))
        cost = (n - overlap) + (ga - len(set(tau)))
        if best is None or cost < best:
            best = cost
    return best


def set_partitions(n: int):
    """All set partitions of range(n) as label arrays (restricted growth)."""
    labels = [0] * n

    def rec(i: int, max_used: int):
        if i == n:
            yield np.array(labels, dtype=np.int64)
            return
        for g in range(max_used + 2):
            labels[i] = g
            yield from rec(i + 1, max(max_used, g))

    yield from rec(1, 0) if n > 1 else iter([np.zeros(1, dtype=np.int64)])


def max_mno_enumerated(sizes: tuple[int, ...]) -> int:
    """Max of mno(E, B) over all partitions E, by enumeration (n <= 10).

    Depends only on B's group sizes: relabeling objects permutes the
    candidate set E bijectively.
    """
    n = sum(sizes)
    lb = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
    best = 0
    for la in set_partitions(n):
        table = _overlap_matrix(la, lb)
        best = max(best, _mno_from_overlaps(table, n))
    return best


def integer_partitions(n: int, largest: int | None = None):
    """Every multiset of positive group sizes summing to n, each as a
    non-increasing tuple."""
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in integer_partitions(n - first, first):
            yield (first,) + rest
