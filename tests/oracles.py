"""Reference constructions the tests compare the package against: noiseless
logs, a pairwise FM score and the sensitivity of the two corrections."""

import numpy as np

from watchlab.correction import label_d2co_sensitivity
from watchlab.data_model import Dataset
from watchlab.errors import CurveOrderViolation
from watchlab.synthgen import Curve, GroundTruth
from watchlab.trainer import FMModel


def expected_watch_dataset(dataset: Dataset, truth: GroundTruth) -> Dataset:
    """Replace each watch time by its expectation p*w+ + (1-p)*w-.

    Used by the unbiasedness and rank-equivalence harnesses, where sampling
    noise must be switched off.
    """
    p = truth.p_interest
    w = p * truth.w_plus_d + (1.0 - p) * truth.w_minus_d
    return Dataset.from_codes(dataset.user_table, dataset.user_codes, dataset.item_table,
                              dataset.item_codes, w, dataset.durations, dataset.timestamps,
                              dataset.true_interest, dataset.features)


def matched_interest_dataset(p_values, durations, bias_curve: Curve,
                             noise_curve: Curve) -> tuple:
    """Every duration group carries the same multiset of interest values and
    watch times equal their expectations.

    This construction makes the per-group interest moments identical and
    gives all groups the same interest ranking, the regimes under which the
    standardization and quantile baselines are rank-faithful.
    """
    p_values = np.asarray(p_values, dtype=np.float64)
    durations = np.asarray(durations, dtype=np.int64)
    wp = np.asarray(bias_curve(durations), dtype=np.float64).reshape(-1)
    wm = np.asarray(noise_curve(durations), dtype=np.float64).reshape(-1)
    collapsed = ~(wm < wp)
    if collapsed.any():
        raise CurveOrderViolation(f"noise >= bias at duration {durations[collapsed][0]}")
    m = p_values.size
    p = np.tile(p_values, durations.size)
    wp, wm = np.repeat(wp, m), np.repeat(wm, m)
    ids = np.arange(p.size).astype(str)
    dataset = Dataset(np.char.add("u", ids), np.char.add("i", ids), p * wp + (1.0 - p) * wm,
                      np.repeat(durations, m), timestamps=np.arange(p.size))
    return dataset, GroundTruth(p, p >= 0.5, wp, wm)


def numpy_quantile_bins(values, n_bins: int) -> tuple:
    """ranking.quantile_bins by np.quantile: the distinct linear quantiles
    from np.unique and the right-closed bin of each value."""
    edges = np.unique(np.quantile(values, np.linspace(0, 1, n_bins + 1)))
    return edges, np.searchsorted(edges[1:-1], values, side="left")


def fm_score_bruteforce(model: FMModel, idx_row) -> float:
    """O(k m^2) pairwise reference used to check the identity-based score."""
    s = model.bias + sum(model.linear[i] for i in idx_row)
    for a in range(len(idx_row)):
        for b in range(a + 1, len(idx_row)):
            s += float(model.embeddings[idx_row[a]] @ model.embeddings[idx_row[b]])
    return float(s)


def sensitivity_affine(w, w_plus, w_minus, delta_plus, delta_minus):
    """Closed-form sensitivity of the affine correction to curve disturbances."""
    w, wp, wm = (np.asarray(a, dtype=np.float64) for a in (w, w_plus, w_minus))
    if np.any((w < wm) | (w > wp)):
        raise ValueError("w must lie in [w-, w+]")
    gap2 = (wp - wm) ** 2
    s_plus = (w - wm) / gap2 * abs(delta_plus)
    s_minus = (wp - w) / gap2 * abs(delta_minus)
    return s_plus, s_minus


def sensitivity_scontrolled_numeric(w, w_plus, w_minus, alpha, delta):
    """Sensitivity of the exponential correction to curve disturbances,
    via central finite differences (no closed form asserted here)."""
    w, wp, wm = (np.asarray(a, dtype=np.float64) for a in (w, w_plus, w_minus))
    if np.any((w < wm) | (w > wp)):
        raise ValueError("w must lie in [w-, w+]")
    h = min(1e-4, abs(delta) / 10.0)

    def r(wp_, wm_):
        return label_d2co_sensitivity(w, wp_, wm_, alpha, clip=False)

    d_plus = (r(wp + h, wm) - r(wp - h, wm)) / (2.0 * h)
    d_minus = (r(wp, wm + h) - r(wp, wm - h)) / (2.0 * h)
    return np.abs(d_plus) * abs(delta), np.abs(d_minus) * abs(delta)
