"""Dataset container, CSV ingestion, splitting, synthetic generators and
assumption diagnostics.

CSV schema (the single ingestion format): header ``z1,...,zs,d,y`` with
optional ground-truth pairs ``y0,y1`` and ``mu0,mu1``; UTF-8, ``.`` decimal
separator, no thousands separators.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .nn import sigmoid
from .records import require_int_fields

OUTCOME_KINDS = ("continuous", "binary")

# Tolerance used when checking outcomes against potential outcomes loaded
# from text files; generated data satisfies the identity exactly.
CONSISTENCY_ATOL = 1e-8

# The generators read N(0, v) as a normal with standard deviation v.
OUTCOME_NOISE_SD = 0.1
ASSIGNMENT_NOISE_SD = 0.01
ASSIGNMENT_WEIGHT_RANGE = 0.01


# =========================================================================
# Dataset
# =========================================================================

@dataclass
class Dataset:
    """Observational sample with optional ground-truth potential outcomes.

    ``y0``/``y1`` hold realized potential outcomes, ``mu0``/``mu1`` their
    noiseless means; either pair enables oracle evaluation.
    """

    covariates: np.ndarray
    treatment: np.ndarray
    outcome_factual: np.ndarray
    outcome_kind: str = "continuous"
    y0: np.ndarray | None = None
    y1: np.ndarray | None = None
    mu0: np.ndarray | None = None
    mu1: np.ndarray | None = None

    def __post_init__(self):
        self.covariates = np.asarray(self.covariates, dtype=float)
        self.outcome_factual = np.asarray(self.outcome_factual, dtype=float)
        treatment = np.asarray(self.treatment)
        if treatment.size and not np.isin(treatment, (0, 1)).all():
            raise ValueError("treatment not binary")
        self.treatment = treatment.astype(int)
        for name in ("y0", "y1", "mu0", "mu1"):
            v = getattr(self, name)
            if v is not None:
                setattr(self, name, np.asarray(v, dtype=float))
        self.validate()

    @property
    def n_units(self) -> int:
        return self.covariates.shape[0]

    @property
    def n_covariates(self) -> int:
        return self.covariates.shape[1]

    def validate(self) -> None:
        if self.outcome_kind not in OUTCOME_KINDS:
            raise ValueError(f"unknown outcome kind {self.outcome_kind!r}")
        if self.covariates.ndim != 2:
            raise ValueError("covariates must be a 2-d matrix")
        n = self.covariates.shape[0]
        if n < 2:
            raise ValueError("need at least 2 units")
        for name in ("treatment", "outcome_factual"):
            v = getattr(self, name)
            if v.shape != (n,):
                raise ValueError(f"{name} must have shape ({n},)")
        if (self.y0 is None) != (self.y1 is None):
            raise ValueError("y0 and y1 must be provided together")
        if (self.mu0 is None) != (self.mu1 is None):
            raise ValueError("mu0 and mu1 must be provided together")
        for name in ("y0", "y1", "mu0", "mu1"):
            v = getattr(self, name)
            if v is not None and v.shape != (n,):
                raise ValueError(f"{name} must have shape ({n},)")
        arrays = [self.covariates, self.outcome_factual, self.y0, self.y1,
                  self.mu0, self.mu1]
        for v in arrays:
            if v is not None and not np.all(np.isfinite(v)):
                raise ValueError("non-finite value")
        if self.treatment.sum() == 0 or self.treatment.sum() == n:
            raise ValueError("need at least one treated and one control unit")
        if self.outcome_kind == "binary":
            for name in ("outcome_factual", "y0", "y1"):
                v = getattr(self, name)
                if v is not None and not np.isin(v, (0.0, 1.0)).all():
                    raise ValueError(f"binary outcome column {name} must be 0/1")
        if self.y0 is not None:
            expected = np.where(self.treatment == 1, self.y1, self.y0)
            if not np.allclose(self.outcome_factual, expected,
                               rtol=0.0, atol=CONSISTENCY_ATOL):
                raise ValueError("consistency violation")

    def subset(self, indices: np.ndarray) -> "Dataset":
        indices = np.asarray(indices)

        def take(v):
            return None if v is None else v[indices]

        return Dataset(
            covariates=self.covariates[indices],
            treatment=self.treatment[indices],
            outcome_factual=self.outcome_factual[indices],
            outcome_kind=self.outcome_kind,
            y0=take(self.y0), y1=take(self.y1),
            mu0=take(self.mu0), mu1=take(self.mu1),
        )


def concat(parts: Sequence[Dataset]) -> Dataset:
    """Stack datasets that share covariate dimension and outcome kind.

    Optional ground-truth columns survive only if every part carries them.
    """
    if not parts:
        raise ValueError("nothing to concatenate")
    kind = parts[0].outcome_kind
    s = parts[0].n_covariates
    if any(p.outcome_kind != kind or p.n_covariates != s for p in parts):
        raise ValueError("datasets are not compatible")

    def stack(name):
        vals = [getattr(p, name) for p in parts]
        if any(v is None for v in vals):
            return None
        return np.concatenate(vals)

    return Dataset(
        covariates=np.vstack([p.covariates for p in parts]),
        treatment=np.concatenate([p.treatment for p in parts]),
        outcome_factual=np.concatenate([p.outcome_factual for p in parts]),
        outcome_kind=kind,
        y0=stack("y0"), y1=stack("y1"), mu0=stack("mu0"), mu1=stack("mu1"),
    )


# =========================================================================
# Splitting
# =========================================================================

@dataclass(frozen=True)
class SplitSpec:
    train_frac: float
    val_frac: float
    test_frac: float
    seed: int = 0

    def __post_init__(self):
        require_int_fields(self)
        fracs = (self.train_frac, self.val_frac, self.test_frac)
        if any(f <= 0 for f in fracs):
            raise ValueError("split fractions must be positive")
        if abs(sum(fracs) - 1.0) > 1e-12:
            raise ValueError("split fractions must sum to 1")


DEFAULT_SPLIT = SplitSpec(0.63, 0.27, 0.10)


def split(data: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset, Dataset]:
    """Disjoint seed-deterministic partition into train/validation/test.

    Validation and test sizes are floored shares of N; the remainder goes
    to train.
    """
    n = data.n_units
    if n * min(spec.train_frac, spec.val_frac, spec.test_frac) < 1:
        raise ValueError("fraction so small that a split would be empty")
    n_val = math.floor(n * spec.val_frac)
    n_test = math.floor(n * spec.test_frac)
    n_train = n - n_val - n_test
    if min(n_train, n_val, n_test) < 1:
        raise ValueError("fraction so small that a split would be empty")
    perm = np.random.default_rng(spec.seed).permutation(n)
    idx_train = perm[:n_train]
    idx_val = perm[n_train:n_train + n_val]
    idx_test = perm[n_train + n_val:]
    return data.subset(idx_train), data.subset(idx_val), data.subset(idx_test)


# =========================================================================
# Synthetic generators
# =========================================================================

@dataclass
class SimConfig:
    """Two-Gaussian selection-bias simulator configuration."""

    n_treated: int = 2500
    n_control: int = 5000
    dim: int = 10
    mu1: np.ndarray | None = None
    mu0: np.ndarray | None = None
    sigma_scale: float = 0.5
    seed: int = 0

    def __post_init__(self):
        require_int_fields(self)
        if self.n_treated < 1 or self.n_control < 1:
            raise ValueError("group counts must be at least 1")
        if self.dim < 1:
            raise ValueError("dim must be at least 1")
        if self.sigma_scale <= 0:
            raise ValueError("sigma_scale must be positive")
        for name in ("mu1", "mu0"):
            v = getattr(self, name)
            v = np.zeros(self.dim) if v is None else np.asarray(v, dtype=float)
            if v.shape != (self.dim,):
                raise ValueError(f"{name} must have length {self.dim}")
            setattr(self, name, v)


@dataclass
class TrueModel:
    """Closed-form nuisance functions of a synthetic generator.

    The linear simulator stores its outcome coefficients (w1, w0); the
    treatment-assignment generator stores the realized logistic weights.
    """

    m0: Callable[[np.ndarray], np.ndarray]
    w1: np.ndarray | None = None
    w0: np.ndarray | None = None
    assign_w: np.ndarray | None = None
    assign_n: float | None = None

    def g0(self, d, Z) -> np.ndarray:
        if self.w1 is None or self.w0 is None:
            raise ValueError("outcome model unavailable")
        d = np.asarray(d, dtype=float)
        Z = np.asarray(Z, dtype=float)
        return d * (Z @ self.w1) + (1.0 - d) * (Z @ self.w0)


def _gaussian_posterior(mu1, mu0, cov, prior_treated) -> Callable[[np.ndarray], np.ndarray]:
    """Exact P(treated | z) implied by two equal-covariance Gaussians."""
    prec = np.linalg.inv(cov)
    log_odds_prior = np.log(prior_treated) - np.log1p(-prior_treated)

    def m0(Z: np.ndarray) -> np.ndarray:
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        a1 = Z - mu1
        a0 = Z - mu0
        q1 = ((a1 @ prec) * a1).sum(axis=1)
        q0 = ((a0 @ prec) * a0).sum(axis=1)
        return sigmoid(log_odds_prior - 0.5 * (q1 - q0))

    return m0


def generate_simulation(
    cfg: SimConfig,
    seed: int | None = None,
    mixing: np.ndarray | None = None,
) -> tuple[Dataset, TrueModel]:
    """Draw a selection-biased linear-outcome dataset.

    Covariates: treated ~ N(mu1, sigma_scale * S S^T), control ~ N(mu0, same),
    with S uniform on (-1, 1). Potential outcomes are w_d^T z plus Gaussian
    noise; noiseless means are stored alongside. The returned TrueModel's
    propensity is the exact group-membership posterior given z.

    ``mixing`` overrides the S draw (used by the KL-targeted sweeps).
    """
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    dim = cfg.dim
    if mixing is None:
        mixing = rng.uniform(-1.0, 1.0, size=(dim, dim))
    else:
        mixing = np.asarray(mixing, dtype=float)
        if mixing.shape != (dim, dim):
            raise ValueError(f"mixing must be {dim}x{dim}")
    cov = cfg.sigma_scale * (mixing @ mixing.T)

    z_treated = rng.multivariate_normal(cfg.mu1, cov, size=cfg.n_treated)
    z_control = rng.multivariate_normal(cfg.mu0, cov, size=cfg.n_control)
    Z = np.vstack([z_treated, z_control])
    d = np.concatenate([np.ones(cfg.n_treated, dtype=int),
                        np.zeros(cfg.n_control, dtype=int)])

    w1 = rng.uniform(-1.0, 1.0, size=dim)
    w0 = rng.uniform(-1.0, 1.0, size=dim)
    mu1_vec = Z @ w1
    mu0_vec = Z @ w0
    n = cfg.n_treated + cfg.n_control
    y1 = mu1_vec + rng.normal(0.0, OUTCOME_NOISE_SD, size=n)
    y0 = mu0_vec + rng.normal(0.0, OUTCOME_NOISE_SD, size=n)
    y = np.where(d == 1, y1, y0)

    prior = cfg.n_treated / n
    data = Dataset(Z, d, y, "continuous", y0=y0, y1=y1, mu0=mu0_vec, mu1=mu1_vec)
    truth = TrueModel(m0=_gaussian_posterior(cfg.mu1, cfg.mu0, cov, prior),
                      w1=w1, w0=w0)
    return data, truth


def generate_twins_assignment(
    covariates: np.ndarray,
    seed: int,
    w: np.ndarray | None = None,
    n: float | None = None,
) -> tuple[np.ndarray, TrueModel]:
    """Covariate-dependent Bernoulli treatment assignment.

    D_m ~ Bernoulli(sigmoid(w^T z_m + n)) with w uniform on (-0.01, 0.01) and
    a single intercept noise n ~ N(0, 0.01). Passing ``w``/``n`` explicitly
    is a debug hook (w = 0, n = 0 yields propensity exactly 0.5 everywhere).
    """
    Z = np.asarray(covariates, dtype=float)
    if Z.ndim != 2:
        raise ValueError("covariates must be a 2-d matrix")
    rng = np.random.default_rng(seed)
    if w is None:
        w = rng.uniform(-ASSIGNMENT_WEIGHT_RANGE, ASSIGNMENT_WEIGHT_RANGE,
                        size=Z.shape[1])
    else:
        w = np.asarray(w, dtype=float)
    if n is None:
        n = float(rng.normal(0.0, ASSIGNMENT_NOISE_SD))
    p = sigmoid(Z @ w + n)
    d = rng.binomial(1, p).astype(int)

    w_fixed, n_fixed = w, float(n)

    def m0(Znew: np.ndarray) -> np.ndarray:
        return sigmoid(np.atleast_2d(np.asarray(Znew, dtype=float)) @ w_fixed + n_fixed)

    return d, TrueModel(m0=m0, assign_w=w_fixed, assign_n=n_fixed)


# =========================================================================
# Diagnostics
# =========================================================================

def kl_selection_bias(mu1: np.ndarray, mu0: np.ndarray, cov: np.ndarray) -> float:
    """KL(N(mu1, cov) || N(mu0, cov)) in closed form for equal covariances."""
    mu1 = np.asarray(mu1, dtype=float)
    mu0 = np.asarray(mu0, dtype=float)
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or cov.shape[0] != mu1.shape[0]:
        raise ValueError("cov must be square and match the mean dimension")
    if mu1.shape != mu0.shape:
        raise ValueError("mean vectors must have equal length")
    if not np.allclose(cov, cov.T, atol=1e-10):
        raise ValueError("covariance not symmetric")
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise ValueError("singular covariance") from exc
    x = np.linalg.solve(chol, mu1 - mu0)
    return 0.5 * float(x @ x)


@dataclass
class OverlapReport:
    passed: bool
    n_violations: int
    violation_indices: np.ndarray
    eps: float


def check_overlap(propensities: np.ndarray, eps: float) -> OverlapReport:
    """Flag units whose propensity leaves [eps, 1 - eps].

    Non-finite or out-of-(0,1) entries are counted as violations rather than
    raising.
    """
    if not 0.0 < eps < 0.5:
        raise ValueError("invalid eps")
    p = np.asarray(propensities, dtype=float).ravel()
    bad = ~np.isfinite(p) | (p < eps) | (p > 1.0 - eps)
    idx = np.flatnonzero(bad)
    return OverlapReport(passed=idx.size == 0, n_violations=int(idx.size),
                         violation_indices=idx, eps=float(eps))


def true_outcomes(data: Dataset) -> tuple[np.ndarray, np.ndarray] | None:
    """Ground-truth (treated, control) outcomes: noiseless means when
    available, else realized potential outcomes (fixed preference order);
    None without either pair."""
    if data.mu0 is not None and data.mu1 is not None:
        return data.mu1, data.mu0
    if data.y0 is not None and data.y1 is not None:
        return data.y1, data.y0
    return None


def true_ate(data: Dataset) -> float:
    truth = true_outcomes(data)
    if truth is None:
        raise ValueError("ground truth unavailable")
    return float(np.mean(truth[0] - truth[1]))


# =========================================================================
# CSV ingestion
# =========================================================================

_OPTIONAL_PAIRS = (("y0", "y1"), ("mu0", "mu1"))


def load_csv(path: str | Path, outcome_kind: str = "continuous") -> Dataset:
    """Read a dataset from the documented CSV schema.

    The header must name columns z1..zs, d, y and optionally the pairs
    y0,y1 and mu0,mu1 (any order, no extras).
    """
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = [c.strip() for c in next(reader)]
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        rows = [r for r in reader if r]

    known_extra = {"d", "y", "y0", "y1", "mu0", "mu1"}
    z_names = [c for c in header if c not in known_extra]
    s = len(z_names)
    expected_z = [f"z{i}" for i in range(1, s + 1)]
    if sorted(z_names) != sorted(expected_z):
        unexpected = sorted(set(z_names) - set(expected_z))
        raise ValueError(f"{path}: unexpected column(s) {unexpected}")
    for col in ("d", "y"):
        if col not in header:
            raise ValueError(f"{path}: missing mandatory column {col!r}")
    if s == 0:
        raise ValueError(f"{path}: missing mandatory column 'z1'")
    for a, b in _OPTIONAL_PAIRS:
        if (a in header) != (b in header):
            raise ValueError(f"{path}: columns {a} and {b} must come together")

    col_idx = {name: header.index(name) for name in header}

    def column(name: str) -> np.ndarray:
        out = np.empty(len(rows))
        j = col_idx[name]
        for i, row in enumerate(rows):
            try:
                out[i] = float(row[j])
            except (ValueError, IndexError) as exc:
                raise ValueError(
                    f"{path}: bad value in column {name!r}, row {i + 2}") from exc
        return out

    Z = np.column_stack([column(f"z{i}") for i in range(1, s + 1)])
    kwargs = {}
    for a, b in _OPTIONAL_PAIRS:
        if a in header:
            kwargs[a] = column(a)
            kwargs[b] = column(b)
    return Dataset(covariates=Z, treatment=column("d"),
                   outcome_factual=column("y"), outcome_kind=outcome_kind,
                   **kwargs)


def save_csv(data: Dataset, path: str | Path) -> None:
    """Write a dataset in the documented CSV schema (full float precision)."""
    path = Path(path)
    cols = [f"z{i}" for i in range(1, data.n_covariates + 1)] + ["d", "y"]
    extras = []
    for a, b in _OPTIONAL_PAIRS:
        if getattr(data, a) is not None:
            extras.extend([a, b])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols + extras)
        for i in range(data.n_units):
            row = [repr(float(v)) for v in data.covariates[i]]
            row.append(str(int(data.treatment[i])))
            row.append(repr(float(data.outcome_factual[i])))
            for name in extras:
                row.append(repr(float(getattr(data, name)[i])))
            writer.writerow(row)
