"""The benchmark workloads: inputs made from a seed, one unit of fixed work,
and the check of that unit's output.

Each workload object is built once per process (set-up), then ``run`` is
called repeatedly in a closed loop by one caller; ``verify`` looks at each
unit's output outside the timed region. Calls into mbrl go through module
attributes looked up at call time, so the span wrappers of ``spans.Tracer``
see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mbrl import cli, data, estimators, harness, metrics, model
from mbrl.ot import SinkhornConfig

# Criterion-7 study configuration (tests/test_acceptance.py STUDY_CONFIG).
STUDY_TRAIN = model.TrainConfig(
    lambda1=0.01, lambda2=0.01, batch_size=128, epochs=80,
    learning_rate=1e-3, phi_depth=1, phi_width=128, pi_depth=2, pi_width=64,
    head_depth=2, head_width=64,
    sinkhorn=SinkhornConfig(entropic_reg=0.1, max_iters=100, tol=1e-6))
STUDY_KL_LEVELS = (0.0, 62.85)
# Four cells give the process-pool lever more than one cell per core and
# average the seed's effect on Sinkhorn work.
STUDY_REPLICATIONS = 2
SIM = data.SimConfig(n_treated=500, n_control=1000, dim=10)
SPLIT_FRACS = (0.63, 0.27, 0.10)

# deep_fit trains the default architecture for this many epochs per unit;
# the default 1000 epochs would take about 6 minutes.
DEEP_FIT_EPOCHS = 10

# mbrl check prints one PASS/FAIL line per check in checks.run_checks.
CHECK_COUNT = 6


@dataclass
class UnitResult:
    """What one unit did and how many of its operations failed."""

    attempted: int
    failed: int
    fit_steps: int = 0
    fit_s: float = 0.0
    ate_err_out: list[float] = field(default_factory=list)
    pehe_out: list[float] = field(default_factory=list)
    cell_s: list[float] = field(default_factory=list)


def steps_per_epoch(n_train: int, batch_size: int) -> int:
    """Minibatches model.fit runs per epoch (it skips batches under 2 rows)."""
    return sum(1 for start in range(0, n_train, batch_size)
               if min(batch_size, n_train - start) >= 2)


def _finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=float))))


class _FitMeter:
    """Stands in for ``harness.fit``: times each fit and counts its steps
    from the returned history."""

    def __init__(self, inner):
        self.inner = inner
        self.seconds = 0.0
        self.steps = 0

    def __call__(self, train, val, cfg):
        started = time.perf_counter()
        ckpt = self.inner(train, val, cfg)
        self.seconds += time.perf_counter() - started
        self.steps += len(ckpt.history) * steps_per_epoch(train.n_units, cfg.batch_size)
        return ckpt


class Study:
    """harness.run_experiment at the criterion-7 per-cell config, then
    harness.emit_report; consecutive report.json files must be identical."""

    name = "study"
    min_units = 2

    def __init__(self, seed: int, work_dir: Path | None):
        self.cfg = harness.ExperimentConfig(
            source="simulator", sim=SIM, split=data.SplitSpec(*SPLIT_FRACS),
            train=STUDY_TRAIN, estimators=("plugin", "psi1", "psi2", "ols_lr1"),
            replications=STUDY_REPLICATIONS, kl_levels=STUDY_KL_LEVELS, seed=seed)
        self.work_dir = work_dir
        self.cells = len(STUDY_KL_LEVELS) * self.cfg.replications
        self.previous: bytes | None = None
        self.report_sha256: str | None = None

    def run(self):
        meter = _FitMeter(harness.fit)
        harness.fit = meter
        try:
            report = harness.run_experiment(self.cfg)
        finally:
            harness.fit = meter.inner
        paths = harness.emit_report(report, self.work_dir)
        return report, paths["report"], meter

    def verify(self, out) -> UnitResult:
        report, report_path, meter = out
        res = UnitResult(attempted=self.cells, failed=len(report.failures),
                         fit_steps=meter.steps, fit_s=meter.seconds,
                         cell_s=[t["seconds"] for t in report.timings])
        bad_cells = {(r["kl_level"], r["replication"]) for r in report.rows
                     if r.get("eps_ate") is None or not _finite(r["eps_ate"])}
        res.failed = min(self.cells, res.failed + len(bad_cells))
        psi1_out = [r for r in report.rows
                    if r["estimator"] == "psi1" and r["sample"] == "out"]
        res.ate_err_out = [r["eps_ate"] for r in psi1_out]
        res.pehe_out = [r["pehe_root"] for r in psi1_out]
        text = report_path.read_bytes()
        if self.previous is not None and text != self.previous:
            res.failed = self.cells
        self.previous = text
        self.report_sha256 = hashlib.sha256(text).hexdigest()
        return res


class DeepFit:
    """One model.fit at the default architecture, then predict, plug_in_ate
    and ate_orthogonal("psi1") on the test split."""

    name = "deep_fit"
    min_units = 2

    def __init__(self, seed: int, work_dir: Path | None):
        sample, _ = data.generate_simulation(SIM, seed=seed)
        self.train, self.val, self.test = data.split(
            sample, data.SplitSpec(*SPLIT_FRACS, seed=seed))
        self.cfg = model.TrainConfig(epochs=DEEP_FIT_EPOCHS, seed=seed)
        self.tau = data.true_ate(self.test)

    def run(self):
        started = time.perf_counter()
        ckpt = model.fit(self.train, self.val, self.cfg)
        fit_s = time.perf_counter() - started
        yhat0, yhat1, p = model.predict(ckpt.net, self.test.covariates)
        nuis = estimators.NuisanceEstimates(g0_hat=yhat0, g1_hat=yhat1, m_hat=p)
        plugin = estimators.plug_in_ate(nuis)
        psi1 = estimators.ate_orthogonal("psi1", self.test, nuis)
        return ckpt, fit_s, (yhat0, yhat1, p), plugin, psi1

    def verify(self, out) -> UnitResult:
        ckpt, fit_s, preds, plugin, psi1 = out
        res = UnitResult(attempted=1, failed=0, fit_s=fit_s,
                         fit_steps=len(ckpt.history) * steps_per_epoch(
                             self.train.n_units, self.cfg.batch_size))
        if (ckpt.net is None or not all(_finite(v) for v in preds)
                or not _finite([plugin.ate, psi1.ate])):
            res.failed = 1
            return res
        res.ate_err_out = [metrics.ate_error(self.tau, psi1.ate)]
        res.pehe_out = [metrics.pehe_root(self.test.mu1, self.test.mu0,
                                          preds[1], preds[0])]
        return res


class Check:
    """cli.main(["check", "--seed", S]) in-process with stdout captured;
    every check line must read PASS."""

    name = "check"
    min_units = 1

    def __init__(self, seed: int, work_dir: Path | None):
        self.argv = ["check", "--seed", str(seed)]

    def run(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(self.argv)
        return code, buf.getvalue()

    def verify(self, out) -> UnitResult:
        code, text = out
        verdicts = [ln for ln in text.splitlines() if ln.startswith(("PASS", "FAIL"))]
        failed = sum(1 for ln in verdicts if not ln.startswith("PASS"))
        failed += max(0, CHECK_COUNT - len(verdicts))
        if code != 0:
            failed = max(failed, 1)
        return UnitResult(attempted=CHECK_COUNT, failed=failed)


WORKLOADS = {w.name: w for w in (Study, DeepFit, Check)}
