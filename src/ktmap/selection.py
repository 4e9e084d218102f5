"""Top-cited core selection and discrete power-law fitting of the citation
distribution.

The fit follows the standard maximum-likelihood recipe for discrete power
laws: for every candidate cutoff xmin in the observed value set, alpha is
estimated by numerically maximizing the tail log-likelihood

    L(alpha) = -n * log zeta(alpha, xmin) - alpha * sum(log x_i),

and the cutoff minimizing the Kolmogorov-Smirnov distance between the
empirical and fitted tail CDFs is selected. A semiparametric bootstrap
goodness-of-fit p-value is available behind a flag since it dominates
runtime.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._numeric import hurwitz_zeta, minimize_bounded
from .corpus import CitationNetwork
from .errors import DegenerateDataError, InsufficientDataError

log = logging.getLogger("ktmap.selection")

MAX_ALPHA = 25.0


def select_top_cited(net: CitationNetwork, fraction: float,
                     rank_by: str = "in_degree") -> CitationNetwork:
    """Induced sub-network on the ceil(fraction * |V|) most-cited documents.

    Ranking uses the in-degree within the corpus by default; pass
    rank_by="external" to use the documents' ext_citations field instead.
    All documents tied at the boundary value are included, so the result
    may slightly exceed the target count.
    """
    if net.n_docs == 0:
        raise InsufficientDataError("cannot select from an empty corpus")
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    if rank_by == "in_degree":
        value = net.in_degrees
    elif rank_by == "external":
        value = net.ext_citations
        if None in value:
            raise ValueError(f"rank_by='external' but {net.ids[value.index(None)]!r} "
                             "has no ext_citations")
    else:
        raise ValueError(f"unknown rank_by {rank_by!r}")

    target = math.ceil(fraction * net.n_docs)
    boundary = sorted(value, reverse=True)[target - 1]
    keep = [i for i, v in zip(net.ids, value) if v >= boundary]
    return net.induced(keep)


@dataclass(frozen=True)
class PowerLawFit:
    """MLE fit of a discrete power law to the tail x >= xmin."""

    alpha: float
    xmin: int
    ks_distance: float
    n_tail: int
    p_value: float | None = None

    def __post_init__(self):
        if not self.alpha > 1.0:
            raise ValueError("alpha must exceed 1")
        if self.xmin < 1:
            raise ValueError("xmin must be >= 1")
        if not 0.0 <= self.ks_distance <= 1.0:
            raise ValueError("ks_distance must lie in [0, 1]")
        if self.n_tail < 2:
            raise ValueError("n_tail must be >= 2")


def _tail_alpha_mle(tail: np.ndarray, xmin: int) -> float:
    """Maximize the discrete power-law log-likelihood over alpha at fixed xmin."""
    log_sum = float(np.log(tail).sum())
    n = tail.size

    def neg_loglike(alpha: float) -> float:
        return alpha * log_sum + n * math.log(hurwitz_zeta(alpha, xmin))

    return minimize_bounded(neg_loglike, 1.0 + 1e-6, MAX_ALPHA, xatol=1e-9)


def ks_distance(tail: Sequence[int] | np.ndarray, alpha: float, xmin: int) -> float:
    """KS distance between the empirical tail CDF and the fitted CDF,
    evaluated at the unique observed values."""
    tail = np.asarray(tail)
    uniq, counts = np.unique(tail, return_counts=True)
    ecdf = np.cumsum(counts) / tail.size
    norm = hurwitz_zeta(alpha, xmin)
    tail_sums = np.array([hurwitz_zeta(alpha, q) for q in (uniq + 1).tolist()])
    cdf = 1.0 - tail_sums / norm
    return float(np.abs(ecdf - cdf).max())


def fit_power_law(values: Sequence[int], xmin: int | None = None,
                  bootstrap: int = 0, seed: int = 0) -> PowerLawFit:
    """Fit a discrete power law to positive integer observations.

    Zeros are dropped with a warning. When xmin is None it is chosen from
    the observed value set by KS minimization; pass an explicit xmin to fit
    only the exponent. bootstrap > 0 adds a semiparametric goodness-of-fit
    p-value with that many replicates.
    """
    arr = np.asarray(list(values), dtype=np.int64)
    if arr.size and (arr < 0).any():
        raise ValueError("values must be non-negative integers")
    n_zero = int((arr == 0).sum())
    if n_zero:
        log.warning("dropping %d zero value(s) before the power-law fit", n_zero)
        arr = arr[arr > 0]
    if arr.size == 0:
        raise InsufficientDataError("no positive values to fit")
    distinct = sorted(set(arr.tolist()))
    if len(distinct) == 1:
        raise DegenerateDataError(
            f"all values equal {distinct[0]}; power-law fit is degenerate")
    if len(distinct) < 10:
        log.warning("only %d distinct values; fit may be unreliable",
                    len(distinct))

    if xmin is not None:
        if xmin < 1:
            raise ValueError("xmin must be >= 1")
        fit = _fit_at_xmin(arr, int(xmin))
        if fit is None:
            raise InsufficientDataError(
                f"fewer than 2 tail observations at xmin={xmin}")
    else:
        # the largest value leaves a constant tail behind it
        best = None
        for cand in distinct:
            res = _fit_at_xmin(arr, cand)
            if res is None:
                continue
            if best is None or res.ks_distance < best.ks_distance:
                best = res
        if best is None:
            raise InsufficientDataError(
                "fewer than 2 tail observations at every candidate xmin")
        fit = best

    if bootstrap > 0:
        p = bootstrap_p_value(arr, fit, n_replicates=bootstrap, seed=seed)
        fit = PowerLawFit(alpha=fit.alpha, xmin=fit.xmin,
                          ks_distance=fit.ks_distance, n_tail=fit.n_tail,
                          p_value=p)
    return fit


def _fit_at_xmin(arr: np.ndarray, xmin: int) -> PowerLawFit | None:
    tail = arr[arr >= xmin]
    if tail.size < 2 or tail.min() == tail.max():
        return None
    alpha = _tail_alpha_mle(tail, xmin)
    return PowerLawFit(alpha=alpha, xmin=xmin,
                       ks_distance=ks_distance(tail, alpha, xmin),
                       n_tail=int(tail.size))


def sample_discrete_power_law(alpha: float, xmin: int, size: int,
                              rng: np.random.Generator) -> np.ndarray:
    """Draw integer samples from a discrete power law by CDF inversion.

    A CDF table covers the bulk; draws falling beyond it resolve by doubling
    search on the survival function (rare for any sensible alpha).
    """
    if alpha <= 1.0:
        raise ValueError("alpha must exceed 1")
    norm = hurwitz_zeta(alpha, xmin)
    table_max = 100_000
    ks = np.arange(xmin, table_max + 1, dtype=np.float64)
    cdf = np.cumsum(ks ** -alpha) / norm
    u = rng.random(size)
    idx = np.searchsorted(cdf, u, side="left")
    out = idx + xmin
    overflow = out > table_max
    for pos in np.nonzero(overflow)[0]:
        out[pos] = _invert_survival(u[pos], alpha, xmin, norm, table_max)
    return out.astype(np.int64)


def _invert_survival(u: float, alpha: float, xmin: int, norm: float,
                     lo: int) -> int:
    # smallest x with CDF(x) >= u, i.e. zeta(alpha, x+1)/norm <= 1-u
    target = 1.0 - u
    hi = lo * 2
    while hurwitz_zeta(alpha, hi + 1) / norm > target:
        lo, hi = hi, hi * 2
    while lo < hi:
        mid = (lo + hi) // 2
        if hurwitz_zeta(alpha, mid + 1) / norm <= target:
            hi = mid
        else:
            lo = mid + 1
    return int(lo)


def bootstrap_p_value(values: np.ndarray, fit: PowerLawFit,
                      n_replicates: int = 100, seed: int = 0) -> float:
    """Semiparametric bootstrap goodness-of-fit p-value.

    Each replicate draws n observations: with probability n_tail/n from the
    fitted power law above xmin, otherwise uniformly from the observed
    values below xmin; the replicate is refit and its KS distance compared
    with the observed one. Returns the fraction of replicates with KS >=
    the observed value.
    """
    arr = np.asarray(values)
    arr = arr[arr > 0]
    below = arr[arr < fit.xmin]
    n = arr.size
    p_tail = fit.n_tail / n
    rng = np.random.default_rng(seed)
    worse = 0
    for _ in range(n_replicates):
        from_tail = rng.random(n) < p_tail
        n_from_tail = int(from_tail.sum())
        sample = np.empty(n, dtype=np.int64)
        sample[:n_from_tail] = sample_discrete_power_law(
            fit.alpha, fit.xmin, n_from_tail, rng)
        if n - n_from_tail > 0:
            if below.size == 0:
                sample[n_from_tail:] = sample_discrete_power_law(
                    fit.alpha, fit.xmin, n - n_from_tail, rng)
            else:
                sample[n_from_tail:] = rng.choice(below, size=n - n_from_tail)
        try:
            refit = fit_power_law(sample)
        except (DegenerateDataError, InsufficientDataError):
            continue
        if refit.ks_distance >= fit.ks_distance:
            worse += 1
    return worse / n_replicates
