"""Rank statistics against independent oracles.

The oracles here deliberately avoid the package's own code paths:
average ranks and Pearson are recomputed with math.fsum, the t survival
function is integrated numerically, Wilcoxon null distributions are
enumerated or built with a dict-based subset-sum, and the exact Spearman
p lists all n! orderings.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from csfdyn import PairedSample, StatMethod, paired_t, spearman, wilcoxon_paired
from csfdyn.errors import (
    AllZeroDifferences,
    TooFewPairs,
    ValueOutOfRange,
    ZeroVariance,
)
from csfdyn.stats import SPEARMAN_EXACT_MAX_N

# ------------------------------------------------------------- oracles


def rank_avg(values):
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        r = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = r
        i = j + 1
    return ranks


def pearson_fsum(x, y):
    n = len(x)
    mx = math.fsum(x) / n
    my = math.fsum(y) / n
    sxy = math.fsum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = math.fsum((a - mx) ** 2 for a in x)
    syy = math.fsum((b - my) ** 2 for b in y)
    return sxy / math.sqrt(sxx * syy)


def spearman_oracle(x, y):
    return pearson_fsum(rank_avg(x), rank_avg(y))


def spearman_exact_oracle(x, y):
    """Exact two-sided p by listing all n! orderings of y's ranks.

    Doubled centred ranks are integers, so each permuted rank product is
    compared with the observed one exactly."""
    n = len(x)
    dx = [round(2 * r) - (n + 1) for r in rank_avg(x)]
    dy = [round(2 * r) - (n + 1) for r in rank_avg(y)]
    observed = abs(sum(p * q for p, q in zip(dx, dy)))
    hits = sum(abs(sum(p * q for p, q in zip(dx, perm))) >= observed
               for perm in itertools.permutations(dy))
    return hits / math.factorial(n)


def t_sf_oracle(t, df):
    """Survival function of Student's t by Simpson integration."""
    c = math.gamma((df + 1) / 2) / (math.sqrt(df * math.pi) * math.gamma(df / 2))

    def dens(u):
        return c * (1 + u * u / df) ** (-(df + 1) / 2)

    hi = abs(t)
    n = 40_000
    h = hi / n
    acc = dens(0.0) + dens(hi)
    acc += 4 * math.fsum(dens(k * h) for k in range(1, n, 2))
    acc += 2 * math.fsum(dens(k * h) for k in range(2, n, 2))
    return 0.5 - acc * h / 3


def wilcoxon_brute_force(d):
    """Two-sided p by enumerating all 2^n sign assignments."""
    d = [x for x in d if x != 0]
    n = len(d)
    ranks = rank_avg([abs(x) for x in d])
    total = math.fsum(ranks)
    wp = math.fsum(r for r, x in zip(ranks, d) if x > 0)
    w = min(wp, total - wp)
    hits = 0
    for signs in itertools.product((1, -1), repeat=n):
        wp_s = math.fsum(r for r, s in zip(ranks, signs) if s > 0)
        if wp_s <= w + 1e-9:
            hits += 1
    return w, min(1.0, 2 * hits / 2 ** n)


def wilcoxon_exact_dict(d):
    """Exact two-sided p via a dict subset-sum on doubled ranks."""
    d = [x for x in d if x != 0]
    ranks = rank_avg([abs(x) for x in d])
    r2 = [int(round(2 * r)) for r in ranks]
    wp2 = sum(r for r, x in zip(r2, d) if x > 0)
    w2 = min(wp2, sum(r2) - wp2)
    counts = {0: 1}
    for r in r2:
        new = {}
        for s, c in counts.items():
            new[s] = new.get(s, 0) + c
            new[s + r] = new.get(s + r, 0) + c
        counts = new
    hits = sum(c for s, c in counts.items() if s <= w2)
    return min(1.0, 2 * hits / 2 ** len(d))


def pairs_from(a, b):
    return [PairedSample(f"S{i:02d}", float(x), float(y))
            for i, (x, y) in enumerate(zip(a, b))]


# ---------------------------------------------------------------- tests


class TestSpearman:
    def test_matches_rank_pearson_oracle(self, rng):
        for _ in range(50):
            n = int(rng.integers(4, 30))
            a = rng.normal(0, 1, n)
            b = 0.5 * a + rng.normal(0, 1, n)
            r = spearman(pairs_from(a, b))
            assert r.statistic == pytest.approx(spearman_oracle(a, b), abs=1e-12)

    def test_matches_oracle_with_ties(self, rng):
        for _ in range(50):
            n = int(rng.integers(5, 20))
            a = rng.integers(0, 4, n).astype(float)
            b = rng.integers(0, 4, n).astype(float)
            if np.all(a == a[0]) or np.all(b == b[0]):
                continue
            r = spearman(pairs_from(a, b))
            assert r.statistic == pytest.approx(spearman_oracle(a, b), abs=1e-12)

    def test_perfect_monotone(self):
        a = [1.0, 2, 3, 4, 5, 6]
        b = [2.0, 4, 9, 16, 30, 55]
        r = spearman(pairs_from(a, b))
        assert r.statistic == pytest.approx(1.0)
        r = spearman(pairs_from(a, [-x for x in b]))
        assert r.statistic == pytest.approx(-1.0)

    def test_p_value_against_t_integration(self, rng):
        for seed in range(8):
            g = np.random.default_rng(seed)
            n = int(g.integers(12, 40))
            a = g.normal(0, 1, n)
            b = 0.4 * a + g.normal(0, 1, n)
            r = spearman(pairs_from(a, b))
            rs = r.statistic
            if abs(rs) >= 1.0 - 1e-12:
                continue
            t = rs * math.sqrt((n - 2) / (1 - rs * rs))
            expected = 2 * t_sf_oracle(t, n - 2)
            expected = max(expected, 2 / math.factorial(n))
            assert r.p_value == pytest.approx(expected, abs=1e-9)
            assert r.method is StatMethod.SPEARMAN_T_APPROX

    def test_p_floor_at_exhaustive_extreme(self):
        # a perfect monotone pair cannot beat 2 of n! orderings
        a = list(range(1, 8))
        b = [x * 2.0 for x in a]
        r = spearman(pairs_from(a, b))
        assert r.p_value == pytest.approx(2 / math.factorial(7))

    def test_exact_permutation_small_n(self):
        a = [2.0, 5.0, 1.0, 4.0, 3.0]
        b = [1.5, 0.8, 2.0, 1.1, 0.9]
        r = spearman(pairs_from(a, b), exact=True)
        assert r.method is StatMethod.SPEARMAN_PERMUTATION
        ra, rb = rank_avg(a), rank_avg(b)
        obs = abs(pearson_fsum(ra, rb))
        hits = 0
        for perm in itertools.permutations(rb):
            if abs(pearson_fsum(ra, list(perm))) >= obs - 1e-12:
                hits += 1
        assert r.p_value == pytest.approx(hits / 120, abs=1e-15)

    @pytest.mark.parametrize("family", ["distinct", "ties_a", "ties_b", "ties_both",
                                        "negative"])
    def test_exact_matches_permutation_oracle(self, family):
        g = np.random.default_rng(sum(map(ord, family)))
        for n in range(4, 9):
            for _ in range(3):
                a = g.normal(0, 1, n)
                b = 0.5 * a + g.normal(0, 1, n)
                # heavy ties: values from a few levels only
                if family in ("ties_a", "ties_both"):
                    a = g.integers(0, int(g.integers(2, 4)), n).astype(float)
                if family in ("ties_b", "ties_both"):
                    b = g.integers(0, int(g.integers(2, 4)), n).astype(float)
                if family == "negative":
                    b = -np.round(a + g.normal(0, 0.5, n))
                if np.all(a == a[0]) or np.all(b == b[0]):
                    continue
                r = spearman(pairs_from(a, b), exact=True)
                assert r.method is StatMethod.SPEARMAN_PERMUTATION
                assert r.p_value == spearman_exact_oracle(a, b)

    def test_exact_symmetric_in_a_and_b(self, rng):
        # ties on one side only, so each order puts the tie groups elsewhere
        a = rng.normal(0, 1, 10)
        b = np.round(a + rng.normal(0, 1, 10))
        r_ab = spearman(pairs_from(a, b), exact=True)
        r_ba = spearman(pairs_from(b, a), exact=True)
        assert r_ab.statistic == r_ba.statistic
        assert r_ab.p_value == r_ba.p_value

    @pytest.mark.parametrize("sign", [1, -1])
    def test_exact_perfect_monotone_at_the_limit(self, sign):
        n = SPEARMAN_EXACT_MAX_N
        a = np.arange(1.0, n + 1)
        r = spearman(pairs_from(a, sign * a**2), exact=True)
        assert r.statistic == sign * 1.0
        assert r.p_value == 2 / math.factorial(n)

    @staticmethod
    def doubled_centred(x):
        n = len(x)
        return sorted({round(2 * r) - (n + 1) for r in rank_avg(x)})

    @classmethod
    def lattice_step(cls, x):
        # gcd of the gaps between distinct doubled centred ranks: the step
        # of the partial sums when x's values are the ones paired off
        values = cls.doubled_centred(x)
        return math.gcd(*(v - u for u, v in zip(values, values[1:])))

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_exact_on_the_step_two_lattice(self, n):
        # no ties at even n: every doubled centred rank is odd
        g = np.random.default_rng(n)
        for _ in range(3):
            a, b = g.normal(0, 1, n), g.normal(0, 1, n)
            assert self.lattice_step(a) == self.lattice_step(b) == 2
            assert spearman(pairs_from(a, b), exact=True).p_value == \
                spearman_exact_oracle(a, b)

    def test_exact_on_a_wider_tied_lattice(self):
        # tie groups of 1, 3, 1, 3 and 3, 1, 3, 1: doubled centred ranks
        # -7, -3, 1, 5 and -5, -1, 3, 7, four apart with no common factor
        a = [3, 1, 1, 0, 2, 1, 3, 3]
        b = [1, 0, 2, 2, 0, 3, 0, 2]
        for x in (a, b):
            assert self.lattice_step(x) >= 3
            assert math.gcd(*self.doubled_centred(x)) == 1
        for x, y in ((a, b), (b, a), (a, a[::-1])):
            assert spearman(pairs_from(x, y), exact=True).p_value == \
                spearman_exact_oracle(x, y)

    @pytest.mark.parametrize("a, b", [
        # no ties at odd n: every doubled centred rank is even
        ([4, 0, 6, 2, 5, 1, 3], [1, 6, 3, 0, 2, 5, 4]),
        # two tie groups of 3 on b: -3 and 3, a common factor 3 and step 6
        ([4, 0, 5, 2, 1, 3], [1, 0, 1, 0, 0, 1]),
    ], ids=["odd-untied", "two-groups-of-3"])
    def test_exact_when_the_values_share_a_factor(self, a, b):
        assert math.gcd(*self.doubled_centred(b)) > 1
        assert spearman(pairs_from(a, b), exact=True).p_value == \
            spearman_exact_oracle(a, b)

    # hit counts of the int64 count, pinned across the switch to int32
    # counts at n! < 2^31 (n <= 12), and at n = 9 and 10, where untied
    # doubled centred ranks are even and odd; each count also matches a
    # listing of all n! pairings
    @pytest.mark.parametrize("a, b, hits", [
        ([6, 7, 4, 1, 2, 5, 0, 3, 8], [8, 6, 5, 1, 7, 4, 2, 0, 3], 97826),
        ([5, 1, 6, 7, 8, 4, 2, 0, 3], [0, 0, 0, 1, 0, 2, 2, 2, 2], 65664),
        ([3, 2, 1, 2, 0, 2, 2, 2, 0], [2, 1, 1, 1, 0, 2, 2, 1, 2], 112320),
        ([9, 1, 3, 2, 0, 5, 8, 4, 6, 7], [2, 8, 1, 6, 7, 0, 4, 9, 3, 5], 561818),
        ([8, 6, 5, 1, 0, 7, 4, 9, 3, 2], [2, 2, 0, 2, 1, 1, 0, 1, 1, 0], 2374272),
        ([0, 2, 1, 2, 3, 0, 1, 2, 2, 3], [1, 2, 1, 2, 2, 1, 2, 2, 2, 1], 846720),
        (range(11), [4, 0, 9, 1, 8, 3, 2, 6, 5, 7, 10], 6526220),
        ([2, 1, 2, 0, 0, 2, 0, 0, 2, 0, 1], [1, 1, 2, 1, 2, 2, 1, 1, 1, 0, 2], 12925440),
        (range(12), [8, 1, 0, 9, 6, 3, 5, 4, 10, 7, 2, 11], 147766478),
        ([2, 0, 2, 2, 3, 3, 1, 3, 3, 3, 3, 1], [0, 1, 0, 1, 0, 1, 0, 2, 1, 2, 1, 0], 55468800),
        (range(13), [0, 5, 1, 12, 10, 8, 7, 4, 6, 3, 2, 9, 11], 2201127660),
        ([0, 3, 2, 2, 3, 3, 0, 3, 3, 2, 0, 1, 1], [1, 0, 2, 2, 0, 0, 0, 1, 2, 2, 2, 2, 2],
         1974067200),
        (range(14), [6, 3, 7, 0, 2, 8, 5, 1, 12, 4, 10, 11, 13, 9], 2274646844),
        ([3, 3, 0, 1, 0, 2, 1, 2, 0, 2, 0, 3, 3, 2], [0, 2, 0, 1, 0, 1, 1, 0, 0, 2, 2, 0, 2, 2],
         38454912000),
    ], ids=["9-untied", "9-tied-b", "9-tied-both", "10-untied", "10-tied-b", "10-tied-both",
            "11-untied", "11-tied", "12-untied", "12-tied", "13-untied", "13-tied",
            "14-untied", "14-tied"])
    def test_exact_counts_across_the_integer_width(self, a, b, hits):
        r = spearman(pairs_from(a, b), exact=True)
        assert r.p_value == hits / math.factorial(len(b))

    @staticmethod
    def exact_peak(n, rng):
        # no ties is the costliest input for the exact count
        pairs = pairs_from(rng.normal(0, 1, n), rng.normal(0, 1, n))
        tracemalloc.start()
        try:
            spearman(pairs, exact=True)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_exact_memory_at_the_cohort_size(self, rng):
        # n = 10, as in the cohort-exact benchmark: int32 counts on the
        # step-2 sum lattice peak at 0.50 MB (0.88 MB with a column for
        # every integer sum, 1.91 MB with int64 products)
        assert self.exact_peak(10, rng) < 0.7e6

    def test_exact_memory_at_the_limit(self, rng):
        # 22 MB at peak on the step-2 sum lattice, a quarter above it
        # allowed (41 MB with a column for every integer sum, 67 MB with
        # whole per-group product arrays)
        assert self.exact_peak(SPEARMAN_EXACT_MAX_N, rng) < 28e6

    def test_exact_refused_above_the_limit(self, rng):
        n = SPEARMAN_EXACT_MAX_N + 1
        pairs = pairs_from(rng.normal(0, 1, n), rng.normal(0, 1, n))
        with pytest.raises(ValueOutOfRange, match=f"n <= {SPEARMAN_EXACT_MAX_N}"):
            spearman(pairs, exact=True)

    def test_too_few_pairs(self):
        with pytest.raises(TooFewPairs):
            spearman(pairs_from([1, 2, 3], [4, 5, 6]))

    def test_zero_variance(self):
        with pytest.raises(ZeroVariance):
            spearman(pairs_from([1, 1, 1, 1, 1], [1, 2, 3, 4, 5]))

    def test_duplicate_subjects_refused(self):
        pairs = pairs_from([1, 2, 3, 4, 5], [5, 4, 3, 2, 1])
        pairs[1] = PairedSample("S00", 2.0, 4.0)
        with pytest.raises(ValueOutOfRange):
            spearman(pairs)

    def test_symmetry(self, rng):
        a = rng.normal(0, 1, 12)
        b = rng.normal(0, 1, 12)
        r_ab = spearman(pairs_from(a, b))
        r_ba = spearman(pairs_from(b, a))
        assert r_ab.statistic == r_ba.statistic
        assert r_ab.p_value == r_ba.p_value

    def test_monotone_transform_invariance(self, rng):
        a = rng.normal(0, 1, 15)
        b = rng.normal(0, 1, 15)
        r0 = spearman(pairs_from(a, b))
        r1 = spearman(pairs_from(np.exp(a), b))
        assert r0.statistic == r1.statistic
        assert r0.p_value == r1.p_value


class TestWilcoxon:
    def test_matches_brute_force_with_ties(self):
        # includes tied |d| so the half-rank path is exercised
        a = [10.0, 12.0, 9.0, 14.0, 11.0, 13.0, 8.0, 15.0, 10.5, 12.5]
        b = [11.0, 11.0, 10.0, 16.5, 10.0, 13.6, 9.0, 14.4, 11.5, 13.1]
        d = [y - x for x, y in zip(a, b)]
        w_ref, p_ref = wilcoxon_brute_force(d)
        r = wilcoxon_paired(pairs_from(a, b))
        assert r.method is StatMethod.WILCOXON_EXACT
        assert r.statistic == pytest.approx(w_ref, abs=1e-12)
        assert abs(r.p_value - p_ref) <= 1e-15

    def test_all_positive_ten_pairs(self):
        a = [1.0] * 10
        b = [1.0 + k for k in range(1, 11)]
        r = wilcoxon_paired(pairs_from(a, b))
        assert r.statistic == 0.0
        assert r.p_value == 0.001953125

    def test_random_cases_match_enumeration(self, rng):
        for _ in range(25):
            n = int(rng.integers(5, 11))
            a = rng.normal(0, 1, n)
            b = a + rng.normal(0.3, 1, n)
            if np.any(b - a == 0):
                continue
            w_ref, p_ref = wilcoxon_brute_force(b - a)
            r = wilcoxon_paired(pairs_from(a, b))
            assert r.statistic == pytest.approx(w_ref, abs=1e-12)
            assert abs(r.p_value - p_ref) <= 1e-15

    def test_zero_differences_dropped_and_counted(self):
        a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
        b = [1.0, 2.5, 3.5, 4.5, 5.5, 6.5, 7.0]  # two exact zeros
        r = wilcoxon_paired(pairs_from(a, b))
        assert r.n == 5
        assert r.n_dropped == 2

    def test_all_zero_differences(self):
        a = [1.0, 2.0, 3.0, 4.0, 5.0]
        with pytest.raises(AllZeroDifferences):
            wilcoxon_paired(pairs_from(a, a))

    def test_too_few_pairs_after_drops(self):
        a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        b = [1.0, 2.0, 3.5, 4.5, 5.5, 6.5]
        with pytest.raises(TooFewPairs):
            wilcoxon_paired(pairs_from(a, b))

    def test_normal_approx_close_to_exact(self, rng):
        # one pair beyond the exact cutoff: the approximation must sit
        # within a percent of the dict-based enumeration
        n = 26
        a = rng.normal(0, 1, n)
        b = a + rng.normal(0.4, 1.0, n)
        r = wilcoxon_paired(pairs_from(a, b))
        assert r.method is StatMethod.WILCOXON_NORMAL
        p_ref = wilcoxon_exact_dict(b - a)
        assert r.p_value == pytest.approx(p_ref, abs=0.01)

    def test_exact_at_the_cutoff_matches_dict_enumeration(self, rng):
        # n = 25 with tied |d|: the largest counts the exact path holds
        n = 25
        a = np.round(rng.normal(0, 1, n), 1)
        b = a + np.round(rng.normal(0.4, 1.0, n), 1)
        b[b == a] += 0.5
        r = wilcoxon_paired(pairs_from(a, b))
        assert r.method is StatMethod.WILCOXON_EXACT
        assert r.p_value == wilcoxon_exact_dict(b - a)

    def test_order_antisymmetry(self, rng):
        a = rng.normal(0, 1, 12)
        b = a + rng.normal(0.5, 1, 12)
        r_ab = wilcoxon_paired(pairs_from(a, b))
        r_ba = wilcoxon_paired(pairs_from(b, a))
        assert r_ab.statistic == r_ba.statistic
        assert r_ab.p_value == r_ba.p_value


class TestPairedSample:
    @pytest.mark.parametrize("value", [math.nan, math.inf, "big", None, True])
    def test_refuses_values_that_are_not_finite_numbers(self, value):
        with pytest.raises(ValueOutOfRange, match="S07.*b"):
            PairedSample("S07", 1.0, value)


class TestPairedT:
    def test_against_scipy(self, rng):
        from scipy import stats as sstats

        a = rng.normal(0, 1, 14)
        b = a + rng.normal(0.3, 0.8, 14)
        r = paired_t(pairs_from(a, b))
        ref = sstats.ttest_rel(b, a)
        assert r.statistic == pytest.approx(float(ref.statistic), abs=1e-12)
        assert r.p_value == pytest.approx(float(ref.pvalue), abs=1e-12)
        assert r.method is StatMethod.PAIRED_T
