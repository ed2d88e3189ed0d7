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
#: about 0.08 s and 22 MB
SPEARMAN_EXACT_MAX_N = 14

#: most count entries the exact Spearman count copies at once (128 KB of
#: int32), so its temporaries stay small beside the two layers it holds
#: (0.5 MB at n = 10, 22 MB at n = 14)
_EXACT_BLOCK = 1 << 15


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
    _wilcoxon_exact_cdf_counts (van de Wiel & Di Bucchianico 2001).

    Only the sums a layer can reach get a column. With t the gcd of the
    differences of db's distinct values, every product row*v is
    row*values[0] plus a multiple of t, so the sums of the layer that has
    paired k rows lie on the lattice values[0]*(those rows' sum) + t*j.
    Column j of a layer is its j-th lattice point from the first one at
    or above -bound, where bound is the largest |sum| the layer allows.
    With no ties and even n the doubled centred ranks are odd integers
    two apart, so t = 2 and the lattice skips the half of the sums whose
    parity no pairing reaches; at odd n they are even, and t = 2 takes
    out their common factor 2. A common factor of da is divided out.

    Every count, and every product added into one, counts partial
    pairings and so is at most n!. The counts are int32 when n! < 2^31
    (n <= 12) and int64 above, exact either way up to n = 20. Only two
    layers of states are held, and each transition copies at most
    _EXACT_BLOCK entries at a time. With no ties (the costliest input)
    the count took about 2 ms and 0.50 MB of traced memory at n = 10,
    and 72-83 ms and 22 MB at n = 14, on a shared 2-vCPU VM.
    """
    observed = abs(int(da @ db))

    def n_states(x):
        return int(np.prod(np.unique(x, return_counts=True)[1] + 1))

    # the product is symmetric, so tie groups go on whichever side has
    # fewer states; no ties is the costliest case either way
    if n_states(da) < n_states(db):
        da, db = db, da
    values, sizes = np.unique(db, return_counts=True)
    ga = int(np.gcd.reduce(da))
    da, observed = da // ga, observed // ga
    t = int(np.gcd.reduce(np.diff(values)))  # the step of the sum lattice
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

    v0, vmax = int(values[0]), int(np.abs(values).max())
    dtype = np.int32 if math.factorial(da.size) < 2**31 else np.int64
    counts = np.ones((1, 1), dtype=dtype)  # nothing paired, sum 0
    # counts[:, j] holds partial sum lo + t*j, for the sums in [-bound, bound]
    # congruent to base modulo t
    bound = base = lo = 0
    for k, row in enumerate(da.tolist()):
        layer = order[starts[k]:starts[k + 1]]
        left = (sizes[:, None] - used[:, layer]).astype(dtype)
        bound += abs(row) * vmax
        base += row * v0
        nlo = (base + bound) % t - bound
        nxt = np.zeros((starts[k + 2] - starts[k + 1], (bound - nlo) // t + 1), dtype=dtype)
        step = max(1, _EXACT_BLOCK // counts.shape[1])
        for g, (v, size) in enumerate(zip(values.tolist(), sizes.tolist())):
            free = np.flatnonzero(left[g])
            to = index[layer[free] + strides[g]]
            shift = (lo + row * v - nlo) // t
            shifted = nxt[:, shift:shift + counts.shape[1]]
            for c in range(0, free.size, step):
                rows = free[c:c + step]
                part = counts[rows]
                if size > 1:  # an untied value is added as it stands
                    part *= left[g, rows, None]
                shifted[to[c:c + step]] += part
        counts, lo = nxt, nlo
    sums = np.abs(lo + t * np.arange(counts.shape[1]))
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
