"""Richardson extrapolation and convergence-order estimation.

Eigenvalue sequences computed on meshes with n doubling between levels are
matched by ascending index into a (k, L) array, grouped into clusters when
the extrapolated limits of neighbouring indices agree (a multiple eigenvalue
split by discretization), extrapolated across every neighbouring level pair
at once, and turned into observed-order tables.  Each step is an array
expression over indices and level pairs; only the table's rows are built
one cluster at a time.
"""

import math
from dataclasses import dataclass, field

import numpy as np

# Relative gap between per-index extrapolated limits below which adjacent
# eigenvalues are treated as one multiple eigenvalue.  Raw finest-level
# values are useless for this: a multiple eigenvalue splits at O(h^2), the
# same magnitude as the discretization error itself, while the extrapolated
# limits of its members agree to the (much smaller) extrapolation error.
CLUSTER_RTOL = 1e-6

# Errors at or below this magnitude are saturated: no order is reported.
SATURATION = 1e-13

# The RT0 eigenvalue error expands in even powers of h, led by h^2: the
# power one Richardson step cancels.
EXPANSION_ORDER = 2.0


def richardson(coarse: float, fine: float,
               p: float = EXPANSION_ORDER) -> float:
    """Cancel the leading h^p error term from values at h and h/2.

    Returns (2^p * fine - coarse) / (2^p - 1); exact whenever the inputs
    follow value + C h^p.  It works elementwise, so arrays of coarse and
    fine values give the extrapolations of all their pairs in one call.
    """
    # negated, so that NaN fails it too
    if not 0 < p < math.inf:
        raise ValueError(
            f"expansion order must be positive and finite, got {p}")
    f = 2.0 ** p
    return (f * fine - coarse) / (f - 1.0)


def observed_order(errors) -> np.ndarray:
    """Orders log2(e_i / e_{i+1}) for errors on meshes with h halving.

    Nonpositive or saturated entries yield NaN for the ratios they touch
    rather than raising.
    """
    e = np.asarray(errors, dtype=float)
    if e.size < 2:
        raise ValueError("need at least two error values")
    # math.log2, not np.log2: the two differ in the last bit on some ratios
    return np.array([math.log2(a / b) if a > SATURATION and b > SATURATION
                     else math.nan for a, b in zip(e, e[1:])])


@dataclass(frozen=True)
class LevelSequence:
    """Eigenvalues matched across a doubling family of meshes.

    levels holds (n, h, eigenvalues) per mesh; matched is a (k, L) array
    with one row per eigenvalue index; clusters lists groups of adjacent
    indices treated as one multiple eigenvalue.
    """

    levels: list[tuple[int, float, np.ndarray]]
    matched: np.ndarray
    clusters: list[list[int]]

    def cluster_means(self) -> np.ndarray:
        """(num_clusters, L) representative value per cluster and level."""
        return np.vstack([self.matched[c].mean(axis=0) for c in self.clusters])


def match_and_cluster(levels) -> LevelSequence:
    """Match eigenvalues across levels by ascending index and cluster them.

    `levels` is a sequence of (n, h, eigenvalues) with n strictly doubling
    and eigenvalues finite (or ValueError) and ascending within each level.
    Adjacent indices i, i+1 are clustered when their extrapolated limits,
    taken from the two finest levels, agree to within
    CLUSTER_RTOL * max(1, |limit_i|); clustering is transitive so a triple
    eigenvalue forms one group.
    """
    levels = [(int(n), float(h), np.asarray(vals, dtype=float))
              for n, h, vals in levels]
    if len(levels) < 2:
        raise ValueError("need at least two levels")
    k = levels[0][2].size
    if k == 0:
        raise ValueError("need at least one eigenvalue per level")
    for n, _, vals in levels:
        if vals.size != k:
            raise ValueError(
                f"inconsistent eigenvalue count: level n={n} has "
                f"{vals.size}, expected {k}")
        bad = np.flatnonzero(~np.isfinite(vals))
        if bad.size:
            raise ValueError(f"eigenvalue {bad[0]} on level n={n} is not "
                             f"finite: {vals[bad[0]]}")
        if np.any(np.diff(vals) < 0):
            raise ValueError(f"eigenvalues not ascending on level n={n}")
    for (n0, _, _), (n1, _, _) in zip(levels, levels[1:]):
        if n1 != 2 * n0:
            raise ValueError(
                f"levels must double: {n0} followed by {n1}")

    matched = np.vstack([vals for _, _, vals in levels]).T  # (k, L)
    limits = richardson(matched[:, -2], matched[:, -1])
    # a cluster ends wherever the gap test fails, a NaN gap included
    joined = (np.abs(np.diff(limits))
              <= CLUSTER_RTOL * np.maximum(1.0, np.abs(limits[:-1])))
    clusters = [c.tolist() for c in
                np.split(np.arange(k), np.flatnonzero(~joined) + 1)]
    return LevelSequence(levels=levels, matched=matched, clusters=clusters)


@dataclass
class ClusterRow:
    """Convergence data of one eigenvalue (or multiple-eigenvalue cluster)."""

    indices: list[int]          # 0-based member indices
    label: str                  # 1-based, e.g. "1" or "2-3"
    raw: np.ndarray             # (L,) cluster-mean value per level
    extrapolated: np.ndarray    # (L-1,) value per level pair
    reference: float | None = None
    err_raw: np.ndarray | None = None      # (L,)
    err_extrap: np.ndarray | None = None   # (L-1,)
    order_raw: np.ndarray | None = None    # (L-1,), NaN where saturated
    order_extrap: np.ndarray | None = None  # (L-2,), NaN where saturated


@dataclass
class SupercloseBlock:
    """Per-level eigenfunction error norms for one simple mode."""

    mode: tuple[int, int]
    distance: np.ndarray        # D-weighted projection-to-discrete distance
    err_u: np.ndarray
    err_sigma: np.ndarray
    order_distance: np.ndarray = field(init=False)
    order_err_u: np.ndarray = field(init=False)
    order_err_sigma: np.ndarray = field(init=False)

    def __post_init__(self):
        self.order_distance = observed_order(self.distance)
        self.order_err_u = observed_order(self.err_u)
        self.order_err_sigma = observed_order(self.err_sigma)


@dataclass
class ConvergenceTable:
    """Raw, extrapolated and superclose columns of one study."""

    level_ns: list[int]
    level_hs: list[float]
    reference_kind: str  # "analytic" or "self"
    rows: list[ClusterRow] = field(default_factory=list)
    superclose: SupercloseBlock | None = None


def _cluster_label(indices) -> str:
    lo, hi = indices[0] + 1, indices[-1] + 1
    return str(lo) if lo == hi else f"{lo}-{hi}"


def build_table(seq: LevelSequence,
                reference: np.ndarray | None = None) -> ConvergenceTable:
    """Extrapolate each cluster and attach errors and observed orders.

    `reference` gives one finite analytic eigenvalue per matched index (or
    ValueError); when it is None the table is self-referenced: each
    cluster's reference is the Richardson extrapolation of its two finest
    raw values.
    """
    table = ConvergenceTable(
        level_ns=[n for n, _, _ in seq.levels],
        level_hs=[h for _, h, _ in seq.levels],
        reference_kind="analytic" if reference is not None else "self",
    )
    k = seq.matched.shape[0]
    if reference is not None and not (np.shape(reference) == (k,)
                                      and np.isfinite(reference).all()):
        raise ValueError(
            f"reference must be {k} finite eigenvalues, got {reference}")
    nlev = len(seq.levels)
    for indices, raw in zip(seq.clusters, seq.cluster_means()):
        extrap = richardson(raw[:-1], raw[1:])
        if reference is not None:
            ref = float(np.mean(np.asarray(reference)[indices]))
        else:
            ref = extrap[-1]
        err_raw = np.abs(raw - ref)
        err_extrap = np.abs(extrap - ref)
        row = ClusterRow(
            indices=list(indices),
            label=_cluster_label(indices),
            raw=raw,
            extrapolated=extrap,
            reference=ref,
            err_raw=err_raw,
            err_extrap=err_extrap,
            order_raw=observed_order(err_raw),
            order_extrap=(observed_order(err_extrap)
                          if nlev >= 3 else np.empty(0)),
        )
        table.rows.append(row)
    return table
