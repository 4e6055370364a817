"""Hashes of the result bytes a no-result-change edit must leave alone.

    python3 tools/result_bytes.py > bytes.txt

Prints one sorted line per item, computed under OPENBLAS_NUM_THREADS=1:

- ``study seed=S``: the benchmark study's report.json sha256 (seeds 1-3),
  and ``results=``, the sha256 of canonical JSON of the report's rows,
  aggregates and failures, which an edit of the serialized config alone
  leaves alone;
- ``deep_fit seed=S``: the sha256 of the selected and RMSE-selected nets'
  parameter bytes, and the unit's ATE error and root-PEHE (seeds 1-2);
- ``tiny ablation=A outcome=K``: the checkpoint file's sha256 for a
  3-epoch fit of a tiny net, for every ablation and both outcome kinds;
  two hashes of what ``load_checkpoint`` returns for it, which a change of
  the file format alone leaves alone: ``loaded=``, of the selected and
  RMSE-selected nets whole (``net_bytes``), so a net rebuilt from what the
  file stores shows as the net that was saved, and ``record=``, of canonical JSON
  (sorted keys, dataclasses as dicts) of the attributes named in
  ``RECORD``: the rule, beta, both selected epochs and their scores, the
  history and the clip count, stored or derived alike; ``config=``, of
  the loaded config's canonical JSON, which an edit of the config's fields
  alone moves; and the exit code and output sha256 of ``mbrl evaluate`` on
  that checkpoint and a CSV of the fit's validation split;
- ``check seed=S``: ``mbrl check --seed S``'s exit code and output sha256
  (seeds 0-16);
- ``adam``: the sha256 of the parameter vector and both moment vectors
  after 20 seeded ``nn.adam_update`` steps on three full Adam blocks and a
  ragged tail, so a change of the optimizer's bytes shows by itself.

Two trees produce the same results exactly when this output is the same:
run it in each and ``diff`` the two files. It reads checkpoints only
through ``load_checkpoint`` and the attributes in ``RECORD``, so a copy of
it also runs in a tree whose checkpoint stores some of them and derives the
others, or whose file format differs.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy is imported

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from dataclasses import asdict, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import numpy as np  # noqa: E402
from workloads import DeepFit, Study, cli, data, model  # noqa: E402

from mbrl import nn  # noqa: E402

TINY = model.TrainConfig(
    batch_size=8, epochs=3, phi_depth=2, phi_width=6, pi_depth=2, pi_width=5,
    head_depth=2, head_width=5,
    sinkhorn=model.SinkhornConfig(entropic_reg=0.1, max_iters=50, tol=1e-6))


# What a loaded checkpoint says besides its two nets, read by name, whether
# the checkpoint stores a value or derives it from its config and history.
RECORD = ("selection", "beta", "best_epoch", "best_eps_p", "best_epoch_rmse",
          "best_val_rmse", "history", "clip_events")
# The rows, aggregates and failures of a study report: everything in it but
# the metadata, which holds the serialized config.
RESULTS = ("rows", "aggregates", "failures")


def sha256(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def canonical_sha256(value) -> str:
    return sha256(json.dumps(value, sort_keys=True, default=asdict).encode())


def net_bytes(net) -> bytes:
    """A net whole: its parameter bytes, canonical JSON of its four specs
    and outcome kind, and its input transform's bytes."""
    specs = {name: asdict(getattr(net, f"{name}_spec")) for name in model.SUBNETS}
    return (net.params.tobytes()
            + json.dumps([specs, net.outcome_kind], sort_keys=True).encode()
            + net.input_mean.tobytes() + net.input_scale.tobytes())


def run_cli(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return f"exit={code} sha256={sha256(buf.getvalue().encode())}"


def study_lines(work: Path):
    for seed in (1, 2, 3):
        unit = Study(seed, work / f"study-{seed}")
        out = unit.run()
        unit.verify(out)
        report = json.loads(out[1].read_text())
        results = canonical_sha256({key: report[key] for key in RESULTS})
        yield (f"study seed={seed} report_sha256={unit.report_sha256} "
               f"results={results}")


def deep_fit_lines():
    for seed in (1, 2):
        unit = DeepFit(seed, None)
        out = unit.run()
        ckpt, res = out[0], unit.verify(out)
        yield (f"deep_fit seed={seed} net={sha256(ckpt.net.params.tobytes())} "
               f"net_rmse={sha256(ckpt.net_rmse.params.tobytes())} "
               f"ate_err_out={res.ate_err_out!r} pehe_out={res.pehe_out!r}")


def tiny_lines(work: Path):
    sample, _ = data.generate_simulation(
        data.SimConfig(n_treated=40, n_control=80, dim=3, seed=0))
    splits = data.split(sample, data.SplitSpec(0.6, 0.2, 0.2, seed=0))[:2]
    cut = float(sample.outcome_factual.mean())
    binary = [data.Dataset(s.covariates, s.treatment,
                           (s.outcome_factual > cut).astype(float),
                           outcome_kind="binary") for s in splits]
    for kind, (train, val) in (("continuous", splits), ("binary", binary)):
        val_csv = work / f"val-{kind}.csv"
        data.save_csv(val, val_csv)
        for ablation in model.ABLATIONS:
            path = work / f"tiny-{ablation}-{kind}.json"
            model.save_checkpoint(
                model.fit(train, val, replace(TINY, ablation=ablation, seed=3)), path)
            back = model.load_checkpoint(path)
            loaded = net_bytes(back.net) + net_bytes(back.net_rmse)
            record = canonical_sha256({name: getattr(back, name) for name in RECORD})
            evaluate = run_cli(["evaluate", "--checkpoint", str(path),
                                "--data", str(val_csv)])
            yield (f"tiny ablation={ablation} outcome={kind} "
                   f"checkpoint={sha256(path.read_bytes())} "
                   f"loaded={sha256(loaded)} record={record} "
                   f"config={canonical_sha256(back.config)} "
                   f"evaluate {evaluate}")


def check_lines():
    for seed in range(17):
        yield f"check seed={seed} {run_cli(['check', '--seed', str(seed)])}"


def adam_lines():
    rng = np.random.default_rng(0)
    n = 3 * nn.ADAM_BLOCK + 2334
    state = nn.adam_init(1e-3 * rng.normal(size=n), np.zeros(n))
    for _ in range(20):
        state.grad[...] = (rng.choice([-1.0, 1.0], size=n)
                           * 10.0 ** rng.uniform(-4.0, 2.0, size=n))
        nn.adam_update(state)
    raw = state.params.tobytes() + state.m.tobytes() + state.v.tobytes()
    yield f"adam steps=20 sha256={sha256(raw)}"


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        lines = [*study_lines(work), *deep_fit_lines(), *tiny_lines(work),
                 *check_lines(), *adam_lines()]
    print("\n".join(sorted(lines)))


if __name__ == "__main__":
    main()
