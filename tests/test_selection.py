import logging
import math

import numpy as np
import pytest

from ktmap._numeric import hurwitz_zeta, minimize_bounded
from ktmap.corpus import CitationNetwork, Document
from ktmap.errors import DegenerateDataError, InsufficientDataError
from ktmap.selection import (MAX_ALPHA, fit_power_law, ks_distance,
                             sample_discrete_power_law, select_top_cited)
from ktmap.synth import PlantedConfig, gen_planted_kt_network

from conftest import make_net

# scipy is the independent reference for the zeta function and the bounded
# minimiser; ktmap itself does not need it
try:
    from scipy.optimize import minimize_scalar
    from scipy.special import zeta
except ImportError:
    zeta = minimize_scalar = None
needs_scipy = pytest.mark.skipif(zeta is None, reason="needs scipy as the reference")


def star_corpus(in_degrees):
    """One node per entry, cited by fresh citer nodes to hit the in-degrees."""
    docs = [Document(id=f"t{i:02d}") for i in range(len(in_degrees))]
    edges = []
    c = 0
    for i, deg in enumerate(in_degrees):
        for _ in range(deg):
            docs.append(Document(id=f"c{c:03d}"))
            edges.append((f"c{c:03d}", f"t{i:02d}"))
            c += 1
    return CitationNetwork(docs, edges)


class TestSelectTopCited:
    def test_distinct_ranks(self):
        net = star_corpus(range(10))  # targets with in-degree 0..9 plus citers
        # 45 citers + 10 targets = 55 docs; fraction fine-tuned to pick top-2
        core = select_top_cited(net, 2 / net.n_docs)
        kept = [i for i in core.ids if i.startswith("t")]
        assert kept == ["t08", "t09"]

    def test_identity_fraction(self):
        net = make_net([("a", "b"), ("c", "b")])
        core = select_top_cited(net, 1.0)
        assert core.ids == net.ids and core.edges == net.edges

    def test_boundary_ties_included(self):
        # in-degrees 5,3,3,3,2,... with target count 2: boundary value 3,
        # every node tied at 3 comes along
        net = star_corpus([5, 3, 3, 3, 2, 1, 1, 0, 0, 0])
        assert net.n_docs == 28  # 18 citers + 10 targets
        assert math.ceil(0.07 * net.n_docs) == 2
        core = select_top_cited(net, 0.07)
        kept = sorted(i for i in core.ids if i.startswith("t"))
        assert kept == ["t00", "t01", "t02", "t03"]

    def test_fraction_out_of_range(self):
        net = make_net([("a", "b")])
        for bad in (0.0, -0.1, 1.2):
            with pytest.raises(ValueError):
                select_top_cited(net, bad)

    def test_empty_corpus(self):
        with pytest.raises(InsufficientDataError):
            select_top_cited(CitationNetwork([], []), 0.5)

    def test_monotone_in_fraction(self):
        net = star_corpus([7, 5, 5, 4, 3, 3, 3, 2, 1, 0])
        previous: set = set()
        for frac in (0.05, 0.1, 0.2, 0.4, 0.7, 1.0):
            ids = set(select_top_cited(net, frac).ids)
            assert previous <= ids
            previous = ids

    def test_core_dominates_excluded(self):
        net = star_corpus([7, 5, 5, 4, 3, 3, 3, 2, 1, 0])
        core = set(select_top_cited(net, 0.1).ids)
        cites = dict(zip(net.ids, map(len, net.in_adj)))
        inside = min(cites[i] for i in core)
        outside = max(cites[i] for i in net.ids if i not in core)
        assert inside >= outside

    def test_external_ranking(self):
        docs = [Document(id="a", ext_citations=10),
                Document(id="b", ext_citations=500),
                Document(id="c", ext_citations=3)]
        net = CitationNetwork(docs, [("a", "b"), ("a", "c")])
        core = select_top_cited(net, 0.3, rank_by="external")
        assert core.ids == ("b",)

    def test_external_ranking_requires_field(self):
        net = make_net([("a", "b")])
        with pytest.raises(ValueError, match="ext_citations"):
            select_top_cited(net, 0.5, rank_by="external")


def brute_force_alpha(tail, xmin, lo=1.01, hi=5.0, step=0.001):
    """Grid argmax of the discrete power-law log-likelihood."""
    grid = np.arange(lo, hi + step / 2, step)
    log_sum = np.log(tail).sum()
    ll = -grid * log_sum - len(tail) * np.log(zeta(grid, xmin))
    return float(grid[np.argmax(ll)])


class TestFitPowerLaw:
    def test_degenerate_constant(self):
        with pytest.raises(DegenerateDataError):
            fit_power_law([3, 3, 3, 3])

    def test_zeros_dropped_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING, logger="ktmap.selection"):
            fit = fit_power_law([0, 0, 1, 1, 2, 2, 3, 4, 5, 9], xmin=1)
        assert "zero" in caplog.text
        assert fit.n_tail == 8

    def test_insufficient_tail(self):
        with pytest.raises(InsufficientDataError):
            fit_power_law([1, 1, 1, 7], xmin=7)

    @needs_scipy
    def test_alpha_matches_grid_scan_at_fixed_xmin(self):
        tail = [1, 1, 1, 1, 2, 2, 3, 5, 9, 14]
        fit = fit_power_law(tail, xmin=1)
        assert abs(fit.alpha - brute_force_alpha(tail, 1)) <= 0.001

    @needs_scipy
    def test_likelihood_optimality_on_grid(self):
        rng = np.random.default_rng(3)
        x = sample_discrete_power_law(2.2, 2, 500, rng)
        fit = fit_power_law(x, xmin=2)
        tail = x[x >= 2]
        log_sum = np.log(tail).sum()

        def loglike(alpha):
            return -alpha * log_sum - tail.size * np.log(zeta(alpha, 2))

        grid = np.arange(max(1.01, fit.alpha - 0.5), fit.alpha + 0.5, 0.001)
        assert loglike(fit.alpha) >= max(loglike(a) for a in grid) - 1e-9

    @needs_scipy
    def test_ks_distance_recomputed_matches(self):
        rng = np.random.default_rng(11)
        x = sample_discrete_power_law(2.5, 1, 2000, rng)
        fit = fit_power_law(x)
        tail = np.asarray([v for v in x if v >= fit.xmin])
        # independent recomputation of the KS statistic
        uniq = np.unique(tail)
        ecdf = np.array([(tail <= u).mean() for u in uniq])
        cdf = 1.0 - zeta(fit.alpha, uniq + 1) / zeta(fit.alpha, fit.xmin)
        assert abs(np.abs(ecdf - cdf).max() - fit.ks_distance) < 1e-9

    def test_recovers_alpha(self):
        rng = np.random.default_rng(0)
        x = sample_discrete_power_law(2.5, 1, 10_000, rng)
        fit = fit_power_law(x)
        assert 2.4 <= fit.alpha <= 2.6
        assert ks_distance(x[x >= fit.xmin], fit.alpha, fit.xmin) == fit.ks_distance

    def test_bootstrap_p_value_range(self):
        rng = np.random.default_rng(1)
        x = sample_discrete_power_law(2.5, 1, 300, rng)
        fit = fit_power_law(x, bootstrap=20, seed=7)
        assert fit.p_value is not None and 0.0 <= fit.p_value <= 1.0
        # a true power-law sample should rarely be rejected outright
        assert fit.p_value > 0.0


class TestSampler:
    def test_values_at_least_xmin(self):
        rng = np.random.default_rng(2)
        x = sample_discrete_power_law(3.0, 4, 1000, rng)
        assert x.min() >= 4

    def test_deterministic_per_seed(self):
        a = sample_discrete_power_law(2.5, 1, 100, np.random.default_rng(9))
        b = sample_discrete_power_law(2.5, 1, 100, np.random.default_rng(9))
        assert (a == b).all()

    @needs_scipy
    def test_tail_frequencies_follow_pmf(self):
        rng = np.random.default_rng(4)
        x = sample_discrete_power_law(2.5, 1, 50_000, rng)
        p1 = (x == 1).mean()
        expected = 1.0 / zeta(2.5, 1)
        assert abs(p1 - expected) < 0.01


# zeta's branches: q > 1e8 is the asymptotic expansion; below it, direct
# summation (which returns early once a term is below machine epsilon, as
# it is for large s) runs until the next term is past q + 9, then
# Euler-Maclaurin takes over
ZETA_S = [1 + d for d in (1e-6, 1e-4, 1e-2, 0.1, 0.3, 0.5, 0.7, 1.0, 1.3, 1.5,
                          2.0, 2.7, 3.5, 5.0, 7.0, 9.5, 12.0, 16.0)]
ZETA_Q = ([float(q) for q in range(1, 41)]
          + [0.5, 8.5, 8.999, 9.0, 9.001, 9.5, 10.5, 123.25]
          + [float(v) for v in np.logspace(2, 9, 29)]
          + [1e8 - 1, 1e8, 1e8 + 1, 1e8 + 0.5, 1.5e8, 1e9])


@needs_scipy
def test_zeta_matches_scipy_exactly():
    mismatches = [(s, q) for s in ZETA_S for q in ZETA_Q
                  if hurwitz_zeta(s, q) != zeta(s, q)]
    assert mismatches == []


def test_zeta_domain():
    assert hurwitz_zeta(2.0, 1) == hurwitz_zeta(2, 1.0)
    assert abs(hurwitz_zeta(2.0, 1.0) - math.pi ** 2 / 6) < 1e-15
    for s, q in ((1.0, 1.0), (0.5, 2.0), (2.0, 0.0), (2.0, -1.5)):
        with pytest.raises(ValueError):
            hurwitz_zeta(s, q)


@needs_scipy
@pytest.mark.parametrize("alpha,xmin,n,seed", [(2.5, 1, 2000, 11), (2.2, 2, 500, 3),
                                               (1.6, 5, 300, 8), (3.5, 1, 80, 4),
                                               (2.0, 1, 10, 5)])
def test_alpha_matches_scipy_minimiser(alpha, xmin, n, seed):
    x = sample_discrete_power_law(alpha, xmin, n, np.random.default_rng(seed))
    tail = x[x >= xmin]
    log_sum = float(np.log(tail).sum())

    def neg_loglike(a):
        return a * log_sum + tail.size * math.log(zeta(a, xmin))

    ref = minimize_scalar(neg_loglike, bounds=(1.0 + 1e-6, MAX_ALPHA),
                          method="bounded", options={"xatol": 1e-9})
    assert minimize_bounded(neg_loglike, 1.0 + 1e-6, MAX_ALPHA, xatol=1e-9) == ref.x
    assert fit_power_law(x, xmin=xmin).alpha == ref.x


@needs_scipy
@pytest.mark.parametrize("func,lo,hi", [
    (lambda x: (x - 2) * x * (x + 2) ** 2, -3.0, -1.0),
    (lambda x: (x - 0.3) ** 2, 0.0, 1.0),
    (lambda x: x, 0.0, 1.0),  # minimum on the lower bound
    (lambda x: -x, -1.0, 0.0),  # on the upper bound, which is 0
    (lambda x: 1.0, 2.0, 2.0),
])
def test_minimiser_matches_scipy(func, lo, hi):
    for xatol in (1e-5, 1e-9):
        ref = minimize_scalar(func, bounds=(lo, hi), method="bounded",
                              options={"xatol": xatol})
        assert minimize_bounded(func, lo, hi, xatol=xatol) == ref.x


def _planted_in_degrees():
    cfg = PlantedConfig(branching=(4, 5), leaf_size=500, p_within=(0.0031, 0.0249),
                        p_between=0.00083, homophily=0.5, n_hubs=5, hub_degree=40)
    net, _ = gen_planted_kt_network(cfg, 3)
    return list(map(len, net.in_adj))


def _sample(alpha, xmin, n, seed):
    return lambda: sample_discrete_power_law(alpha, xmin, n, np.random.default_rng(seed))


# (values, fit options) -> (alpha, xmin, ks_distance, n_tail, p_value), as
# the fit gave them when it still called scipy
@pytest.mark.parametrize("values,options,expected", [
    (_planted_in_degrees, {},
     (16.28683273320971, 29, 0.03498198025299326, 32, None)),
    (_sample(2.5, 1, 2000, 11), {},
     (2.572721227861363, 1, 0.0045425796130116325, 2000, None)),
    (_sample(2.2, 2, 500, 3), {},
     (2.4044052996474905, 4, 0.019715051556029928, 186, None)),
    (_sample(3.0, 4, 1000, 2), {},
     (2.979524854257623, 4, 0.010666007552392442, 1000, None)),
    (lambda: [1, 1, 1, 1, 2, 2, 3, 5, 9, 14], {"xmin": 1},
     (1.7379033677946036, 1, 0.1041874751840891, 10, None)),
    (_sample(2.5, 1, 300, 1), {"bootstrap": 20, "seed": 7},
     (2.5068112854597633, 1, 0.018350820652398014, 300, 0.1)),
])
def test_fit_pinned(values, options, expected):
    fit = fit_power_law(values(), **options)
    assert (fit.alpha, fit.xmin, fit.ks_distance, fit.n_tail, fit.p_value) == expected


def test_sampler_tail_pinned():
    # alpha = 1.5 sends two of 2000 draws past the CDF table, to the
    # survival-function search
    x = sample_discrete_power_law(1.5, 1, 2000, np.random.default_rng(0))
    assert (int((x > 100_000).sum()), int(x.max()), int(x.sum())) == (2, 2357225, 3095340)
