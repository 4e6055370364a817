"""ATE estimators and numerical orthogonality probes.

Implements the plug-in (head-average) estimator, two orthogonal-score
corrections that are affine in the causal parameter and therefore solvable
in closed form, Monte Carlo probes of the orthogonal condition and of the
noise-orthogonality identity, and the classical OLS / k-NN baselines.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import Dataset, TrueModel

logger = logging.getLogger(__name__)

PROPENSITY_CLAMP = 1e-4

SCORE_KINDS = ("psi1", "psi2")
PROBE_KINDS = ("psi1", "psi2", "plugin_naive")
PROBE_DIRECTIONS = ("perturb_g", "perturb_m")
BASELINE_KINDS = ("ols_lr1", "ols_lr2", "knn")
# Neighbours the knn baseline averages.
KNN_K = 5

# Smooth bounded perturbation used by the orthogonality probe.
PROBE_DELTA_SCALE = 0.1


# =========================================================================
# Containers
# =========================================================================

@dataclass
class NuisanceEstimates:
    """Per-unit outcome-head and propensity predictions.

    Propensities are clamped into [PROPENSITY_CLAMP, 1 - PROPENSITY_CLAMP]
    here and nowhere else, so the scores, the probe and eps_p (which
    selects the epoch and is reported) read one clamped propensity.
    ``n_clamped`` counts how many entries the clamp actually moved.
    """

    g0_hat: np.ndarray
    g1_hat: np.ndarray
    m_hat: np.ndarray
    n_clamped: int = 0

    def __post_init__(self):
        self.g0_hat = np.asarray(self.g0_hat, dtype=float)
        self.g1_hat = np.asarray(self.g1_hat, dtype=float)
        raw = np.asarray(self.m_hat, dtype=float)
        if not (self.g0_hat.shape == self.g1_hat.shape == raw.shape):
            raise ValueError("nuisance vectors must have equal length")
        if self.g0_hat.size == 0:
            raise ValueError("empty vectors")
        for v in (self.g0_hat, self.g1_hat, raw):
            if not np.all(np.isfinite(v)):
                raise ValueError("non-finite nuisance values")
        clamped = np.clip(raw, PROPENSITY_CLAMP, 1.0 - PROPENSITY_CLAMP)
        self.n_clamped = int(np.sum(clamped != raw))
        if self.n_clamped:
            logger.info("propensity clamp active on %d units", self.n_clamped)
        self.m_hat = clamped

    @property
    def n_units(self) -> int:
        return self.g0_hat.shape[0]


@dataclass(frozen=True)
class ThetaPair:
    theta0: float
    theta1: float

    @property
    def ate(self) -> float:
        return self.theta1 - self.theta0


# =========================================================================
# Scores and closed-form solutions
# =========================================================================

def plug_in_ate(nuis: NuisanceEstimates) -> ThetaPair:
    """Head averages: theta_i = mean(g_i_hat). No orthogonal correction."""
    return ThetaPair(theta0=float(np.mean(nuis.g0_hat)),
                     theta1=float(np.mean(nuis.g1_hat)))


def score(kind, y, d, g0, g1, m, theta, i):
    """Score psi_i for arm ``i`` at theta, given both outcome heads.

    psi1: inverse-propensity-weighted residual correction.
    psi2: squared treatment-residual reweighting. The conditional noise
    moments are taken as E[nu | z] = 0 and E[nu^2 | z] = m(1 - m), and the
    unobserved potential-outcome residual is replaced by the factual
    residual y - g_d, g_d = d g1 + (1 - d) g0.
    plugin_naive: theta - g_i, the uncorrected plug-in score.
    """
    if kind not in PROBE_KINDS:
        raise ValueError(f"unknown score kind {kind!r}")
    if i not in (0, 1):
        raise ValueError("i must be 0 or 1")
    y, d, g0, g1, m = (np.asarray(v, dtype=float) for v in (y, d, g0, g1, m))
    g_i = g1 if i == 1 else g0
    if kind == "psi1":
        indicator = i * d + (1 - i) * (1 - d)
        prob = i * m + (1 - i) * (1.0 - m)
        return theta - g_i - (y - g_i) * indicator / prob
    if kind == "psi2":
        g_d = d * g1 + (1.0 - d) * g0
        return theta - g_i - (y - g_d) * (d - m) ** 2 / (m * (1.0 - m))
    return theta - g_i


def solve_theta(kind: str, data: Dataset, nuis: NuisanceEstimates, i: int) -> float:
    """Solve (1/N) sum psi = 0 for theta.

    Both scores are affine in theta with unit coefficient, so the solution is
    minus the mean score at theta = 0. No cross-fitting is applied.
    """
    if kind not in SCORE_KINDS:
        raise ValueError(f"unknown score kind {kind!r}")
    if data.n_units != nuis.n_units:
        raise ValueError("dataset and nuisances have different lengths")
    return -float(np.mean(score(kind, data.outcome_factual, data.treatment,
                                nuis.g0_hat, nuis.g1_hat, nuis.m_hat, 0.0, i)))


def ate_orthogonal(kind: str, data: Dataset, nuis: NuisanceEstimates) -> ThetaPair:
    return ThetaPair(theta0=solve_theta(kind, data, nuis, 0),
                     theta1=solve_theta(kind, data, nuis, 1))


# =========================================================================
# Orthogonality probes
# =========================================================================

@dataclass(frozen=True)
class ProbeResult:
    """Central-difference Gateaux derivative with its Monte Carlo error."""

    derivative: float
    std_error: float


def orthogonality_probe(
    kind: str,
    data: Dataset,
    truth: TrueModel,
    direction: str,
    t: float,
    i: int = 1,
) -> ProbeResult:
    """Numerical check of the orthogonal condition at the true nuisances.

    Evaluates the empirical mean score at (g0 + t*delta, m0) or
    (g0, m0 + t*delta) with delta(z) = 0.1 tanh(z1) and returns the central
    difference [S(t) - S(-t)] / (2t), normalized by the sample mean of delta
    so that a score with constant derivative c in the perturbed nuisance
    reports c. Orthogonal scores report values statistically
    indistinguishable from zero; the uncorrected plug-in score reports -1
    under outcome-model perturbation.
    """
    if kind not in PROBE_KINDS:
        raise ValueError(f"unknown probe kind {kind!r}")
    if direction not in PROBE_DIRECTIONS:
        raise ValueError(f"unknown direction {direction!r}")
    if t == 0:
        raise ValueError("degenerate step")
    if abs(t) > 0.1:
        raise ValueError("perturbation step too large")
    if truth.w1 is None or truth.w0 is None:
        raise ValueError("truth missing")

    Z = data.covariates
    n = data.n_units
    g0 = truth.g0(np.zeros(n), Z)
    g1 = truth.g0(np.ones(n), Z)
    m0 = truth.m0(Z)
    delta = PROBE_DELTA_SCALE * np.tanh(Z[:, 0])
    scale = float(np.mean(delta))
    if abs(scale) < 1e-12:
        raise ValueError("perturbation direction has zero sample mean")
    theta = float(np.mean(g1 if i == 1 else g0))

    def scores(g_shift, m_shift):
        nuis = NuisanceEstimates(g0 + g_shift, g1 + g_shift, m0 + m_shift)
        return score(kind, data.outcome_factual, data.treatment,
                     nuis.g0_hat, nuis.g1_hat, nuis.m_hat, theta, i)

    if direction == "perturb_g":
        up, down = scores(t * delta, 0.0), scores(-t * delta, 0.0)
    else:
        up, down = scores(0.0, t * delta), scores(0.0, -t * delta)
    u = (up - down) / (2.0 * t)
    derivative = float(np.mean(u) / scale)
    std_error = float(np.std(u, ddof=1) / (np.sqrt(n) * abs(scale)))
    return ProbeResult(derivative=derivative, std_error=std_error)


@dataclass(frozen=True)
class NoiseOrthogonalityResult:
    stat: float
    std_error: float


def noise_orthogonality_stat(data: Dataset, truth: TrueModel) -> NoiseOrthogonalityResult:
    """Empirical mean of (y - g0(d, z)) (d - m0(z)).

    Population value is zero under the noise conditions; the Monte Carlo
    standard error of the mean is returned alongside.
    """
    if truth.w1 is None or truth.w0 is None:
        raise ValueError("truth missing")
    products = ((data.outcome_factual - truth.g0(data.treatment, data.covariates))
                * (data.treatment - truth.m0(data.covariates)))
    return NoiseOrthogonalityResult(
        stat=float(np.mean(products)),
        std_error=float(np.std(products, ddof=1) / np.sqrt(data.n_units)),
    )


# =========================================================================
# Baselines
# =========================================================================

@dataclass
class BaselineResult:
    theta: ThetaPair
    y0_hat: np.ndarray
    y1_hat: np.ndarray
    yhat_factual: np.ndarray
    rank_deficient: bool = False


def _lstsq(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, bool]:
    beta, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
    deficient = rank < X.shape[1]
    if deficient:
        logger.warning("least squares design is rank deficient (rank %d < %d)",
                       rank, X.shape[1])
    return beta, deficient


def _knn_means(source_z: np.ndarray, source_y: np.ndarray,
               targets: np.ndarray) -> np.ndarray:
    d2 = (np.sum(targets * targets, axis=1)[:, None]
          + np.sum(source_z * source_z, axis=1)[None, :]
          - 2.0 * targets @ source_z.T)
    k = min(KNN_K, source_z.shape[0])
    nearest = np.argpartition(d2, k - 1, axis=1)[:, :k]
    return source_y[nearest].mean(axis=1)


def fit_baseline(kind: str, train: Dataset) -> Callable[[Dataset], BaselineResult]:
    """Fit a classical reference estimator on ``train`` once; the returned
    function evaluates it on any dataset with the same covariate width.

    ols_lr1: one least-squares fit on [z, d]; the ITE is the (constant)
    treatment coefficient. ols_lr2: separate fits per treatment arm.
    knn: the counterfactual outcome is the mean of the KNN_K nearest
    opposite-arm training units (euclidean distance on z).
    """
    if kind not in BASELINE_KINDS:
        raise ValueError(f"unknown baseline {kind!r}")
    Zt = train.covariates
    yt = train.outcome_factual
    dt = train.treatment
    treated = dt == 1
    if not treated.any() or treated.all():
        raise ValueError("a treatment group is empty")

    deficient = False
    if kind == "ols_lr1":
        X = np.column_stack([np.ones(train.n_units), Zt, dt])
        beta, deficient = _lstsq(X, yt)

        def outcomes(data: Dataset):
            base = np.column_stack([np.ones(data.n_units), data.covariates]) @ beta[:-1]
            y1_hat = base + beta[-1]
            return base, y1_hat, np.where(data.treatment == 1, y1_hat, base)
    elif kind == "ols_lr2":
        X1 = np.column_stack([np.ones(int(treated.sum())), Zt[treated]])
        X0 = np.column_stack([np.ones(int((~treated).sum())), Zt[~treated]])
        beta1, d1 = _lstsq(X1, yt[treated])
        beta0, d0 = _lstsq(X0, yt[~treated])
        deficient = d1 or d0

        def outcomes(data: Dataset):
            Xe = np.column_stack([np.ones(data.n_units), data.covariates])
            y1_hat = Xe @ beta1
            y0_hat = Xe @ beta0
            return y0_hat, y1_hat, np.where(data.treatment == 1, y1_hat, y0_hat)
    else:
        def outcomes(data: Dataset):
            de = data.treatment
            ye = data.outcome_factual
            imput1 = _knn_means(Zt[treated], yt[treated], data.covariates)
            imput0 = _knn_means(Zt[~treated], yt[~treated], data.covariates)
            # The same-arm k-NN mean is used only for factual-fit reporting.
            return (np.where(de == 0, ye, imput0), np.where(de == 1, ye, imput1),
                    np.where(de == 1, imput1, imput0))

    def evaluate(eval_data: Dataset) -> BaselineResult:
        if train.n_covariates != eval_data.n_covariates:
            raise ValueError("train and eval covariate dimensions differ")
        y0_hat, y1_hat, yhat_factual = outcomes(eval_data)
        theta = ThetaPair(theta0=float(np.mean(y0_hat)), theta1=float(np.mean(y1_hat)))
        return BaselineResult(theta=theta, y0_hat=y0_hat, y1_hat=y1_hat,
                              yhat_factual=yhat_factual, rank_deficient=deficient)

    return evaluate


def baseline(kind: str, train: Dataset, eval_data: Dataset) -> BaselineResult:
    """``fit_baseline(kind, train)`` evaluated on ``eval_data``."""
    return fit_baseline(kind, train)(eval_data)
