import re

import pytest

from mbrl.data import SimConfig, SplitSpec
from mbrl.harness import ExperimentConfig
from mbrl.model import EpochStats, TrainConfig
from mbrl.ot import SinkhornConfig

TINY = 5e-324  # the smallest positive float
SPLIT = {"train_frac": 0.5, "val_frac": 0.25, "test_frac": 0.25}
FILE = {"csv_path": "data.csv", "sim": None}

# Every bounded config field: a value just outside its bound, the boundary
# value it accepts, and the other fields the record needs. Written out here
# rather than read back from the field declarations, so a bound that goes
# missing from a field fails this table.
BOUNDS = [
    (SinkhornConfig, "entropic_reg", 0.0, TINY, {}),
    (SinkhornConfig, "max_iters", 0, 1, {}),
    (SinkhornConfig, "tol", 0.0, TINY, {}),
    (TrainConfig, "lambda1", -TINY, 0.0, {}),
    (TrainConfig, "lambda2", -TINY, 0.0, {}),
    (TrainConfig, "beta", -TINY, 0.0, {}),
    (TrainConfig, "batch_size", 1, 2, {}),
    (TrainConfig, "epochs", 0, 1, {}),
    (TrainConfig, "learning_rate", -TINY, 0.0, {}),
    (TrainConfig, "ablation", "bogus", "tarnet_mode", {}),
    (TrainConfig, "phi_depth", 0, 1, {}),
    (TrainConfig, "phi_width", 0, 1, {}),
    (TrainConfig, "pi_depth", 0, 1, {}),
    (TrainConfig, "pi_width", 0, 1, {}),
    (TrainConfig, "head_depth", 0, 1, {}),
    (TrainConfig, "head_width", 0, 1, {}),
    (SimConfig, "n_treated", 0, 1, {}),
    (SimConfig, "n_control", 0, 1, {}),
    (SimConfig, "dim", 0, 1, {}),
    (SimConfig, "sigma_scale", 0.0, TINY, {}),
    (SplitSpec, "train_frac", 0.0, TINY, {"val_frac": 0.5, "test_frac": 0.5}),
    (SplitSpec, "val_frac", 0.0, TINY, {"train_frac": 0.5, "test_frac": 0.5}),
    (SplitSpec, "test_frac", 0.0, TINY, {"train_frac": 0.5, "val_frac": 0.5}),
    (ExperimentConfig, "source", "bogus", "twins", FILE),
    (ExperimentConfig, "outcome_kind", "bogus", "binary", FILE | {"source": "csv"}),
    (ExperimentConfig, "replications", 0, 1, {}),
    (ExperimentConfig, "knn_k", 0, 1, {}),
    (ExperimentConfig, "kl_levels", (0.5, -TINY), (0.5, 0.0), {}),
    (SimConfig, "seed", -1, 0, {}),
    (SplitSpec, "seed", -1, 0, SPLIT),
    (TrainConfig, "seed", -1, 0, {}),
    (ExperimentConfig, "seed", -1, 0, {}),
]


@pytest.mark.parametrize("record,name,outside,boundary,others", BOUNDS,
                         ids=[f"{r.__name__}.{n}" for r, n, *_ in BOUNDS])
def test_each_field_holds_its_bound(record, name, outside, boundary, others):
    with pytest.raises(ValueError) as exc:
        record(**others, **{name: outside})
    shown = outside[-1] if isinstance(outside, tuple) else outside
    assert name in str(exc.value) and str(shown) in str(exc.value)
    assert getattr(record(**others, **{name: boundary}), name) == boundary


@pytest.mark.parametrize("record,name,message", [
    (TrainConfig, "batch_size", "batch_size must be an integer, not None"),
    (TrainConfig, "lambda1", "lambda1 must be a number, not None"),
    (TrainConfig, "ablation", "unknown ablation None"),
])
def test_null_is_rejected_where_the_field_is_not_nullable(record, name, message):
    with pytest.raises(ValueError, match=message):
        record(**{name: None})


def test_null_keeps_its_meaning_where_the_field_is_nullable():
    assert TrainConfig(beta=None).beta is None
    assert ExperimentConfig(kl_levels=None).kl_levels is None


@pytest.mark.parametrize("value", [True, "a", [1.0], None])
def test_float_fields_and_kl_levels_take_numbers_only(value):
    shown = re.escape(repr(value))
    with pytest.raises(ValueError, match=f"learning_rate must be a number, not {shown}"):
        TrainConfig(learning_rate=value)
    with pytest.raises(ValueError, match=f"kl_levels must be a number, not {shown}"):
        ExperimentConfig(kl_levels=[0.5, value])


_EPOCH = dict(epoch=1, l_fo=0.5, l_dis=-0.7, l_imb=0.1, omega_y=0.0, omega_d=0.0,
              val_rmse=0.4, val_eps_p=0.45)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_a_field_bounded_not_finite_takes_any_float(value):
    # fit records an epoch whose validation score is not finite; its
    # training losses stay finite.
    stats = EpochStats(**_EPOCH | {"val_rmse": value, "val_eps_p": value})
    assert repr(stats.val_rmse) == repr(value)
    with pytest.raises(ValueError, match="l_fo must be finite"):
        EpochStats(**_EPOCH | {"l_fo": value})


@pytest.mark.parametrize("value", [True, "a", [1.0], None])
def test_a_field_bounded_not_finite_still_takes_numbers_only(value):
    with pytest.raises(ValueError, match="val_rmse must be a number"):
        EpochStats(**_EPOCH | {"val_rmse": value})
