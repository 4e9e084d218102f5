"""Basic-to-clinical scoring of documents and homophily of that score
across citation links.

The translational score T of a document is the share of clinical terms
among its clinical + basic terms: 0 is purely basic research, 1 purely
clinical. Documents with no terms on either side are Unscored; they stay
in the graph (they affect topology) but are excluded from assortativity
and mean-T aggregates.
"""

from __future__ import annotations

import logging
import math
from enum import Enum
from typing import Iterable, Mapping

from .corpus import CitationNetwork
from .errors import InsufficientDataError

log = logging.getLogger("ktmap.axis")

DEFAULT_LOW = 1.0 / 3.0
DEFAULT_HIGH = 2.0 / 3.0


class Stratum(str, Enum):
    BASIC = "basic"
    TRANSLATIONAL = "translational"
    CLINICAL = "clinical"
    UNSCORED = "unscored"


def translational_score(basic_count: int, clinical_count: int) -> float | None:
    """T = clinical / (basic + clinical); None (Unscored) when both are zero."""
    if basic_count < 0 or clinical_count < 0:
        raise ValueError("term counts must be non-negative")
    total = basic_count + clinical_count
    if total == 0:
        return None
    return clinical_count / total


def classify(score: float | None, low: float = DEFAULT_LOW,
             high: float = DEFAULT_HIGH) -> Stratum:
    """Map a score to a stratum: T < low is Basic, T > high is Clinical,
    anything in [low, high] (boundaries included) is Translational."""
    if not 0.0 <= low < high <= 1.0:
        raise ValueError(f"thresholds must satisfy 0 <= low < high <= 1, "
                         f"got ({low}, {high})")
    if score is None:
        return Stratum.UNSCORED
    if score < low:
        return Stratum.BASIC
    if score > high:
        return Stratum.CLINICAL
    return Stratum.TRANSLATIONAL


def score_documents(net: CitationNetwork) -> dict[str, float | None]:
    """Per-document translational score from the stored term counts."""
    return dict(zip(net.ids, map(translational_score, net.basic_terms,
                                 net.clinical_terms)))


def homophily_assortativity(net: CitationNetwork,
                            scores: Mapping[str, float | None]) -> float | None:
    """Pearson correlation of (T_citing, T_cited) over directed edges.

    Edges with an unscored endpoint are skipped. Returns None (undefined)
    when either marginal has zero variance; raises when no edge has both
    endpoints scored.
    """
    t = [scores.get(v) for v in net.ids]
    xs, ys = [], []
    for u, cited in enumerate(net.out_adj):
        t_citing = t[u]
        if t_citing is None:
            continue
        for v in cited:
            t_cited = t[v]
            if t_cited is not None:
                xs.append(t_citing)
                ys.append(t_cited)
    if not xs:
        raise InsufficientDataError("no citation edge has both endpoints scored")

    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    var_x = sum((x - mean_x) ** 2 for x in xs)
    var_y = sum((y - mean_y) ** 2 for y in ys)
    if var_x == 0.0 or var_y == 0.0:
        return None
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    return cov / math.sqrt(var_x * var_y)


def front_mean(members: Iterable[str],
               scores: Mapping[str, float | None]) -> tuple[float | None, float]:
    """(mean T, share unscored) of one front: the mean over its scored
    members, summed in member order, or None when none is scored; and the
    share of its members that are unscored. A member with no score entry
    raises a ValueError."""
    try:
        ts = [scores[node] for node in members]
    except KeyError as exc:
        raise ValueError(f"no score entry for node {exc.args[0]!r}") from None
    scored = [t for t in ts if t is not None]
    return (sum(scored) / len(scored) if scored else None,
            (len(ts) - len(scored)) / len(ts))
