"""Dataset container, CSV ingestion, splitting, synthetic generators and
assumption diagnostics.

CSV schema (the single ingestion format): header ``z1,...,zs,d,y`` with
optional ground-truth pairs ``y0,y1`` and ``mu0,mu1``; UTF-8, ``.`` decimal
separator, no thousands separators.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .nn import sigmoid
from .records import bounded, check_fields

OUTCOME_KINDS = ("continuous", "binary")

# Tolerance used when checking outcomes against potential outcomes loaded
# from text files; generated data satisfies the identity exactly.
CONSISTENCY_ATOL = 1e-8

# The generators read N(0, v) as a normal with standard deviation v.
OUTCOME_NOISE_SD = 0.1
ASSIGNMENT_NOISE_SD = 0.01
ASSIGNMENT_WEIGHT_RANGE = 0.01
# The simulator's covariance is SIGMA_SCALE * S S^T.
SIGMA_SCALE = 0.5

KL_MATCH_TOL = 1e-9  # largest accepted miss of simulate_at_kl's KL


# =========================================================================
# Dataset
# =========================================================================

# Per-unit columns of a Dataset besides the covariate matrix, and the
# ground-truth pairs among them, each present or absent as a whole.
_UNIT_COLUMNS = ("treatment", "outcome_factual", "y0", "y1", "mu0", "mu1")
_TRUTH_PAIRS = (("y0", "y1"), ("mu0", "mu1"))


@dataclass
class Dataset:
    """Observational sample with optional ground-truth potential outcomes.

    Besides the (n, s) ``covariates`` a sample holds the per-unit columns
    ``treatment`` (0/1) and ``outcome_factual``, plus the ground-truth pairs
    ``y0,y1`` (realized potential outcomes) and ``mu0,mu1`` (their noiseless
    means). Each pair is present or absent as a whole; either one enables
    oracle evaluation.
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
        treatment = np.asarray(self.treatment)
        if treatment.size and not np.isin(treatment, (0, 1)).all():
            raise ValueError("treatment not binary")
        self.treatment = treatment.astype(int)
        self.covariates = np.asarray(self.covariates, dtype=float)
        for name in _UNIT_COLUMNS[1:]:  # the float columns
            if getattr(self, name) is not None:
                setattr(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.outcome_kind not in OUTCOME_KINDS:
            raise ValueError(f"unknown outcome kind {self.outcome_kind!r}")
        if self.covariates.ndim != 2:
            raise ValueError("covariates must be a 2-d matrix")
        n = self.n_units
        if n < 2:
            raise ValueError("need at least 2 units")
        for a, b in _TRUTH_PAIRS:
            if (getattr(self, a) is None) != (getattr(self, b) is None):
                raise ValueError(f"{a} and {b} must be provided together")
        if not np.all(np.isfinite(self.covariates)):
            raise ValueError("covariates has a non-finite value")
        for name, v in self._columns().items():
            if v.shape != (n,):
                raise ValueError(f"{name} must have shape ({n},)")
            if not np.all(np.isfinite(v)):
                raise ValueError(f"{name} has a non-finite value")
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

    @property
    def n_units(self) -> int:
        return self.covariates.shape[0]

    @property
    def n_covariates(self) -> int:
        return self.covariates.shape[1]

    def _columns(self) -> dict[str, np.ndarray]:
        """The per-unit columns this sample carries, by name."""
        return {name: getattr(self, name) for name in _UNIT_COLUMNS
                if getattr(self, name) is not None}

    def subset(self, indices: np.ndarray) -> "Dataset":
        indices = np.asarray(indices)
        return replace(self, covariates=self.covariates[indices],
                       **{name: v[indices] for name, v in self._columns().items()})


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
    stacked = {}
    for name in _UNIT_COLUMNS:
        vals = [getattr(p, name) for p in parts]
        stacked[name] = None if any(v is None for v in vals) else np.concatenate(vals)
    return replace(parts[0], covariates=np.concatenate([p.covariates for p in parts]),
                   **stacked)


# =========================================================================
# Splitting
# =========================================================================

@dataclass(frozen=True)
class SplitSpec:
    train_frac: float = bounded(positive=True)
    val_frac: float = bounded(positive=True)
    test_frac: float = bounded(positive=True)
    seed: int = bounded(0, at_least=0)

    def __post_init__(self):
        check_fields(self)
        if abs(self.train_frac + self.val_frac + self.test_frac - 1.0) > 1e-12:
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

    n_treated: int = bounded(2500, at_least=1)
    n_control: int = bounded(5000, at_least=1)
    dim: int = bounded(10, at_least=1)
    mu1: np.ndarray | None = None
    mu0: np.ndarray | None = None
    seed: int = bounded(0, at_least=0)

    def __post_init__(self):
        check_fields(self)
        for name in ("mu1", "mu0"):
            v = getattr(self, name)
            v = np.zeros(self.dim) if v is None else np.asarray(v, dtype=float)
            if v.shape != (self.dim,):
                raise ValueError(f"{name} must have length {self.dim}")
            if not np.all(np.isfinite(v)):
                raise ValueError(f"{name} must be finite, not {v.tolist()}")
            setattr(self, name, v)


@dataclass
class TrueModel:
    """Closed-form nuisance functions of a synthetic generator.

    The propensity is logit-linear, m0(z) = sigmoid(z . m_w + m_c): the
    linear simulator derives (m_w, m_c) from its two Gaussians, the
    treatment-assignment generator draws them. The linear simulator also
    stores its outcome coefficients (w1, w0); the assignment generator has
    no outcome model.
    """

    m_w: np.ndarray
    m_c: float
    w1: np.ndarray | None = None
    w0: np.ndarray | None = None

    def m0(self, Z) -> np.ndarray:
        return sigmoid(np.atleast_2d(np.asarray(Z, dtype=float)) @ self.m_w + self.m_c)

    def g0(self, d, Z) -> np.ndarray:
        if self.w1 is None or self.w0 is None:
            raise ValueError("outcome model unavailable")
        d = np.asarray(d, dtype=float)
        Z = np.asarray(Z, dtype=float)
        return d * (Z @ self.w1) + (1.0 - d) * (Z @ self.w0)


def generate_simulation(
    cfg: SimConfig,
    seed: int | None = None,
    mixing: np.ndarray | None = None,
) -> tuple[Dataset, TrueModel]:
    """Draw a selection-biased linear-outcome dataset.

    Covariates: treated ~ N(mu1, SIGMA_SCALE * S S^T), control ~ N(mu0, same),
    with S uniform on (-1, 1). Potential outcomes are w_d^T z plus Gaussian
    noise; noiseless means are stored alongside. The returned TrueModel's
    propensity is the exact group-membership posterior given z. With equal
    covariances the two quadratic forms cancel to an affine log-odds,
    sigmoid(z . w + c) with w = cov^-1 (mu1 - mu0) and
    c = -(mu1 + mu0) . w / 2 + logit(n_treated / n).

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
    cov = SIGMA_SCALE * (mixing @ mixing.T)

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
    m_w = np.linalg.solve(cov, cfg.mu1 - cfg.mu0)
    m_c = -0.5 * float((cfg.mu1 + cfg.mu0) @ m_w) + math.log(prior) - math.log1p(-prior)
    data = Dataset(Z, d, y, "continuous", y0=y0, y1=y1, mu0=mu0_vec, mu1=mu1_vec)
    truth = TrueModel(m_w=m_w, m_c=m_c, w1=w1, w0=w0)
    return data, truth


def generate_twins_assignment(covariates: np.ndarray,
                              seed: int) -> tuple[np.ndarray, TrueModel]:
    """Covariate-dependent Bernoulli treatment assignment.

    D_m ~ Bernoulli(sigmoid(w^T z_m + n)) with w uniform on (-0.01, 0.01) and
    a single intercept noise n ~ N(0, 0.01).
    """
    Z = np.asarray(covariates, dtype=float)
    if Z.ndim != 2:
        raise ValueError("covariates must be a 2-d matrix")
    rng = np.random.default_rng(seed)
    w = rng.uniform(-ASSIGNMENT_WEIGHT_RANGE, ASSIGNMENT_WEIGHT_RANGE, size=Z.shape[1])
    n = float(rng.normal(0.0, ASSIGNMENT_NOISE_SD))
    truth = TrueModel(m_w=w, m_c=n)
    d = rng.binomial(1, truth.m0(Z)).astype(int)
    return d, truth


def kl_target_mu1(mu1: np.ndarray, mu0: np.ndarray, cov: np.ndarray,
                  target: float) -> np.ndarray:
    """Scale mu1 along (mu1 - mu0) so the Gaussian KL hits ``target`` exactly.

    A zero base direction falls back to the ones vector.
    """
    direction = np.asarray(mu1, dtype=float) - np.asarray(mu0, dtype=float)
    if not np.any(direction):
        direction = np.ones_like(direction)
    quad = 2.0 * kl_selection_bias(mu0 + direction, mu0, cov)
    scale = np.sqrt(2.0 * target / quad)
    return np.asarray(mu0, dtype=float) + scale * direction


def simulate_at_kl(sim: SimConfig, level: float,
                   seed: int) -> tuple[Dataset, TrueModel, float]:
    """Simulator draw whose between-group KL is pinned to ``level``.

    The mixing matrix is drawn from ``seed`` first; mu1 is then rescaled
    along mu1 - mu0 to hit the level and the sample drawn with the same
    seed. Returns (data, truth, realized KL).
    """
    rng = np.random.default_rng(seed)
    mixing = rng.uniform(-1.0, 1.0, size=(sim.dim, sim.dim))
    cov = SIGMA_SCALE * (mixing @ mixing.T)
    mu1 = kl_target_mu1(sim.mu1, sim.mu0, cov, level)
    realized = kl_selection_bias(mu1, sim.mu0, cov)
    if abs(realized - level) > KL_MATCH_TOL:
        raise RuntimeError(
            f"KL inversion off target: requested {level}, got {realized}")
    data, truth = generate_simulation(replace(sim, mu1=mu1), seed=seed,
                                      mixing=mixing)
    return data, truth, realized


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

def load_csv(path: str | Path, outcome_kind: str = "continuous") -> Dataset:
    """Read a dataset from the documented CSV schema.

    The header must name columns z1..zs, d, y and optionally the pairs
    y0,y1 and mu0,mu1 (any order, each once, no extras), and every data
    row must have one cell per header column.
    """
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = [c.strip() for c in next(reader)]
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        # (file line number, cells) per data row; blank lines count too.
        rows = [(reader.line_num, r) for r in reader if r]

    duplicated = sorted({c for c in header if header.count(c) > 1})
    if duplicated:
        raise ValueError(f"{path}: duplicate column(s) {duplicated}")
    known_extra = {"d", "y"}.union(*_TRUTH_PAIRS)
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
    for a, b in _TRUTH_PAIRS:
        if (a in header) != (b in header):
            raise ValueError(f"{path}: columns {a} and {b} must come together")

    for line, row in rows:
        if len(row) != len(header):
            raise ValueError(f"{path}: row {line} has {len(row)} cells; "
                             f"the header names {len(header)}")
    col_idx = {name: header.index(name) for name in header}

    def column(name: str) -> np.ndarray:
        out = np.empty(len(rows))
        j = col_idx[name]
        for i, (line, row) in enumerate(rows):
            try:
                out[i] = float(row[j])
            except ValueError as exc:
                raise ValueError(
                    f"{path}: bad value in column {name!r}, row {line}") from exc
        return out

    Z = np.column_stack([column(f"z{i}") for i in range(1, s + 1)])
    kwargs = {}
    for a, b in _TRUTH_PAIRS:
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
    for a, b in _TRUTH_PAIRS:
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
