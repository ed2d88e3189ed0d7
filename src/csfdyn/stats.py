"""Cohort statistics: Spearman rank correlation and the paired Wilcoxon
signed-rank test, with exact p values for the small cohorts this kind of
study runs on. Each exact p is a count over the whole null (all 2^n sign
assignments, all n! pairings), made by dynamic programming over integer
doubled ranks instead of listing the cases. A paired Student t is
available as a cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.stats import norm, rankdata
from scipy.stats import t as t_dist

from .errors import (
    AllZeroDifferences,
    TooFewPairs,
    ValueOutOfRange,
    ZeroVariance,
)
from .ingest import check_fields

#: largest n for which the Wilcoxon null is enumerated exactly
WILCOXON_EXACT_MAX_N = 25

#: largest n for which the exact Spearman p (a count over all n! pairings)
#: is allowed; at this n, with no ties (the costliest input), the count takes
#: about 0.5 s and 70 MB
SPEARMAN_EXACT_MAX_N = 14


class StatMethod(str, Enum):
    SPEARMAN_T_APPROX = "SPEARMAN_T_APPROX"
    SPEARMAN_PERMUTATION = "SPEARMAN_PERMUTATION"
    WILCOXON_EXACT = "WILCOXON_EXACT"
    WILCOXON_NORMAL = "WILCOXON_NORMAL"
    PAIRED_T = "PAIRED_T"


@dataclass(frozen=True)
class PairedSample:
    """One subject measured twice (e.g. by two acquisition routes)."""

    subject_id: str
    a: float
    b: float

    def __post_init__(self):
        try:
            check_fields(self, ValueOutOfRange)
        except ValueOutOfRange as exc:
            raise ValueOutOfRange(f"subject {self.subject_id!r}: {exc}") from None


@dataclass(frozen=True)
class StatResult:
    statistic: float
    p_value: float
    n: int
    method: StatMethod
    n_dropped: int = 0


def _split_pairs(pairs: list[PairedSample]) -> tuple[np.ndarray, np.ndarray]:
    ids = [p.subject_id for p in pairs]
    if len(set(ids)) != len(ids):
        raise ValueOutOfRange("subject_id values must be unique")
    a = np.asarray([p.a for p in pairs], dtype=np.float64)
    b = np.asarray([p.b for p in pairs], dtype=np.float64)
    return a, b


def _rank_pearson(ra: np.ndarray, rb: np.ndarray) -> float:
    da = ra - ra.mean()
    db = rb - rb.mean()
    return float((da * db).sum() / math.sqrt((da**2).sum() * (db**2).sum()))


def spearman(pairs: list[PairedSample], exact: bool = False) -> StatResult:
    """Spearman rank correlation with a two-sided p-value.

    Ties get average ranks; rs is the Pearson correlation of the rank
    vectors. The default p comes from t = rs*sqrt((n-2)/(1-rs^2)) on
    n-2 degrees of freedom, floored at the permutation bound 2/n!
    (so rs = +-1 reports 2/n!, never 0). exact=True instead gives the
    share of all n! pairings of the two rank vectors whose |rs| is at
    least the observed one, an exact count made without enumerating the
    pairings (n <= SPEARMAN_EXACT_MAX_N).
    """
    n = len(pairs)
    if n < 4:
        raise TooFewPairs(f"need at least 4 pairs, got {n}")
    a, b = _split_pairs(pairs)
    if np.all(a == a[0]) or np.all(b == b[0]):
        raise ZeroVariance("one variable is constant; ranks are undefined")
    ra = rankdata(a, method="average")
    rb = rankdata(b, method="average")
    rs = _rank_pearson(ra, rb)
    rs = min(1.0, max(-1.0, rs))

    if exact:
        if n > SPEARMAN_EXACT_MAX_N:
            raise ValueOutOfRange(
                f"the exact Spearman p is limited to n <= {SPEARMAN_EXACT_MAX_N}"
            )
        # doubled centred ranks are exact integers even with average-rank ties
        da = np.rint(2.0 * ra).astype(np.int64) - (n + 1)
        db = np.rint(2.0 * rb).astype(np.int64) - (n + 1)
        return StatResult(
            statistic=rs,
            p_value=_spearman_exact_hits(da, db) / math.factorial(n),
            n=n,
            method=StatMethod.SPEARMAN_PERMUTATION,
        )

    floor = 2.0 / math.factorial(n)
    if abs(rs) == 1.0:
        p = floor
    else:
        t = rs * math.sqrt((n - 2) / (1.0 - rs * rs))
        p = 2.0 * float(t_dist.sf(abs(t), n - 2))
        p = max(min(p, 1.0), floor)
    return StatResult(statistic=rs, p_value=p, n=n, method=StatMethod.SPEARMAN_T_APPROX)


def _spearman_exact_hits(da: np.ndarray, db: np.ndarray) -> int:
    """Number of the n! pairings p with |sum_i da[i]*db[p[i]]| >= |da.db|.

    da, db hold integer (doubled centred) ranks. Rows of da are paired one
    at a time with the columns of db; the state is how many columns of
    each distinct db value are used so far (the set of used columns when
    db has no ties), and counts[state, s] is the number of ways to reach
    it with partial sum s. Each pairing adds one integer shift, as in
    _wilcoxon_exact_cdf_counts (van de Wiel & Di Bucchianico 2001). Every
    count is at most n!, so int64 holds it exactly for n <= 20.
    """
    observed = abs(int(da @ db))

    def n_states(x):
        return int(np.prod(np.unique(x, return_counts=True)[1] + 1))

    # the product is symmetric, so tie groups go on whichever side has
    # fewer states; no ties is the costliest case either way
    if n_states(da) < n_states(db):
        da, db = db, da
    values, sizes = np.unique(db, return_counts=True)
    ga, gb = int(np.gcd.reduce(da)), int(np.gcd.reduce(values))
    da, values, observed = da // ga, values // gb, observed // (ga * gb)
    # narrow rows first keeps partial sums short in the crowded middle layers
    da = da[np.argsort(np.abs(da), kind="stable")]

    used = np.indices(sizes + 1).reshape(sizes.size, -1)
    strides = np.cumprod(np.r_[1, sizes[:0:-1] + 1])[::-1]
    # states grouped by the number of rows paired; index = place in its group
    n_paired = used.sum(axis=0)
    order = np.argsort(n_paired, kind="stable")
    starts = np.r_[0, np.cumsum(np.bincount(n_paired))]
    index = np.empty(order.size, dtype=np.int64)
    index[order] = np.arange(order.size) - starts[n_paired[order]]

    vmax = int(np.abs(values).max())
    counts = np.ones((1, 1), dtype=np.int64)  # nothing paired, sum 0
    bound = 0  # counts[:, j] holds partial sum j - bound
    for k, row in enumerate(da.tolist()):
        layer = order[starts[k]:starts[k + 1]]
        wide = bound + abs(row) * vmax
        nxt = np.zeros((starts[k + 2] - starts[k + 1], 2 * wide + 1), dtype=np.int64)
        for g, v in enumerate(values.tolist()):
            left = sizes[g] - used[g, layer]
            free = left > 0
            lo = wide - bound + row * v
            nxt[index[layer[free] + strides[g]], lo:lo + 2 * bound + 1] += (
                counts[free] * left[free, None]
            )
        counts, bound = nxt, wide
    sums = np.abs(np.arange(-bound, bound + 1))
    return int(counts[0, sums >= observed].sum())


def _wilcoxon_exact_cdf_counts(ranks2: np.ndarray) -> np.ndarray:
    """Null distribution of 2*W+ over all 2^n sign assignments.

    ranks2 holds the doubled ranks (integers even under average-rank
    ties). counts[w] = number of assignments with 2*W+ = w; identical to
    brute-force enumeration, computed by subset-sum convolution. Every
    count is at most 2^n, so int64 holds it exactly for n <= 62.
    """
    counts = np.zeros(int(ranks2.sum()) + 1, dtype=np.int64)
    counts[0] = 1
    for r in ranks2.tolist():
        # numpy buffers the overlapping slices, so every term added is
        # the count from before this rank joined
        counts[r:] += counts[:-r]
    return counts


def wilcoxon_paired(pairs: list[PairedSample]) -> StatResult:
    """Paired Wilcoxon signed-rank test, two-sided.

    Differences b - a; zero differences are dropped and counted. For
    n <= 25 the p-value is exact: every one of the 2^n sign assignments
    is accounted for (via subset-sum counting, which equals the explicit
    enumeration bit for bit). Above that, normal approximation with
    continuity and tie corrections.
    """
    a, b = _split_pairs(pairs)
    d = b - a
    n_dropped = int(np.sum(d == 0.0))
    d = d[d != 0.0]
    n = d.size
    if n == 0:
        raise AllZeroDifferences("every pair is identical")
    if n < 5:
        raise TooFewPairs(f"need at least 5 nonzero differences, got {n}")
    ranks = rankdata(np.abs(d), method="average")
    w_plus = float(ranks[d > 0].sum())
    w_minus = float(ranks[d < 0].sum())
    w = min(w_plus, w_minus)

    if n <= WILCOXON_EXACT_MAX_N:
        # doubled ranks are exact integers even with average-rank ties
        ranks2 = np.rint(2.0 * ranks).astype(np.int64)
        counts = _wilcoxon_exact_cdf_counts(ranks2)
        w2 = int(round(2.0 * w))
        hits = int(counts[: w2 + 1].sum())
        p = min(1.0, 2.0 * hits / (2**n))
        return StatResult(
            statistic=w,
            p_value=p,
            n=n,
            method=StatMethod.WILCOXON_EXACT,
            n_dropped=n_dropped,
        )

    mean = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    _, tie_counts = np.unique(np.abs(d), return_counts=True)
    var -= float(((tie_counts**3 - tie_counts) / 48.0).sum())
    if var <= 0:
        raise ZeroVariance("all differences tie; the normal approximation degenerates")
    z = (w - mean + 0.5) / math.sqrt(var)
    p = min(1.0, 2.0 * float(norm.cdf(z)))
    return StatResult(
        statistic=w,
        p_value=p,
        n=n,
        method=StatMethod.WILCOXON_NORMAL,
        n_dropped=n_dropped,
    )


def paired_t(pairs: list[PairedSample]) -> StatResult:
    """Paired Student t test on differences b - a, two-sided."""
    a, b = _split_pairs(pairs)
    d = b - a
    n = d.size
    if n < 2:
        raise TooFewPairs(f"need at least 2 pairs, got {n}")
    if np.all(d == 0.0):
        raise AllZeroDifferences("every pair is identical")
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        raise ZeroVariance("differences have zero spread")
    t = float(d.mean()) / (sd / math.sqrt(n))
    p = 2.0 * float(t_dist.sf(abs(t), n - 1))
    return StatResult(statistic=t, p_value=min(1.0, p), n=n, method=StatMethod.PAIRED_T)
