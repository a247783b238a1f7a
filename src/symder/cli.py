"""Command line front end.

    symder generate --preset lorenz --out data/lorenz --seed 0
    symder train    --data data/lorenz --out runs/lorenz
    symder eval     --data data/lorenz --run runs/lorenz
    symder predict  --data data/lorenz --run runs/lorenz
    symder report   --run runs/lorenz

Exit codes: 0 success, 1 runtime failure (divergence, bad arguments caught
late, existing output without --force), 2 missing dataset or run input,
3 corrupt dataset, checkpoint or model file.

SYMDER_THREADS limits the BLAS thread pools; it must be handled before numpy
is first imported, which is why this module sets the environment up top.
"""

import argparse
import ctypes
import json
import math
import os
import sys
from pathlib import Path

if "SYMDER_THREADS" in os.environ:
    _n = os.environ["SYMDER_THREADS"]
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(_var, _n)

import numpy as np

from . import datagen, encoders, evaluate, library, recover, train

# training schedules per system, overridable by a JSON config. The system
# kind picks the path: ODE presets train staged (`recover`), where "width"
# > 0 distills the embedding into a conv encoder of that width; the others
# train jointly (`train.fit`)
DEFAULT_CONFIGS = {
    "rossler": {"steps": 20500, "lr": 2e-3, "width": 0},
    "lorenz": {"steps": 20500, "lr": 2e-3, "width": 0},
    "diffusion_source": {"steps": 50000, "lr": 1e-4, "width": 64,
                         "alphas": [1.0, 10.0], "sparsify_every": 1000,
                         "theta_threshold": 5e-3, "chunk_time": 64},
    "diffusive_lv": {"steps": 100000, "lr": 1e-3, "width": 64,
                     "alphas": [1.0, 1.0], "sparsify_every": 1000,
                     "theta_threshold": 2e-3, "chunk_time": 64},
    "nlse": {"steps": 100000, "lr": 1e-4, "width": 0,
             "alphas": [1.0, 1.0], "beta_phase": 1e3,
             "sparsify_every": 10000, "theta_threshold": 1e-3,
             "divergence_limit": 1e9},
}

# the config keys each path reads
STAGED_KEYS = {"steps", "lr", "width"}
JOINT_KEYS = STAGED_KEYS | {"alphas", "sparsify_every", "theta_threshold",
                            "chunk_time", "beta_phase", "divergence_limit"}

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_MISSING = 2
EXIT_CORRUPT = 3


# glibc mallopt parameters, and the heap top it may keep unreturned
M_TRIM_THRESHOLD = -1
M_MMAP_MAX = -4
TRIM_THRESHOLD = 1 << 30


def keep_freed_heap():
    """Have glibc's malloc keep the pages that freed arrays leave for reuse:
    no array gets its own mmap, and up to TRIM_THRESHOLD bytes of free heap
    top stay mapped. Each training step frees its tape as `backward` sweeps
    it and builds one as large in the next forward, which would otherwise
    fault every page back in. Returns True when both settings took; where
    the C library has no `mallopt` it does nothing and returns False."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):   # no dlopen(NULL), no symbol
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return (mallopt(M_MMAP_MAX, 0) == 1
            and mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1)


class CliError(Exception):
    def __init__(self, message, code=EXIT_FAIL):
        super().__init__(message)
        self.code = code


def _positive(v):
    return type(v) in (int, float) and 0 < v < math.inf


_COUNT = (lambda v: type(v) is int and v >= 0, "a non-negative integer")
_POSITIVE = (_positive, "a positive finite number")
# the values each config key admits: (test, description)
CONFIG_RULES = {
    "steps": _COUNT, "width": _COUNT, "lr": _POSITIVE,
    "alphas": (lambda v: type(v) is list and len(v) >= 2
               and all(map(_positive, v)),
               "a list of two or more positive finite numbers"),
    "sparsify_every": _COUNT, "chunk_time": _COUNT,
    "theta_threshold": _POSITIVE, "divergence_limit": _POSITIVE,
    "beta_phase": (lambda v: type(v) in (int, float) and 0 <= v < math.inf,
                   "a non-negative finite number"),
}


def check_config(cfg):
    """Raise CliError naming the first key whose value is out of range."""
    for key, value in cfg.items():
        ok, what = CONFIG_RULES[key]
        if not ok(value):
            raise CliError(f"config {key} must be {what}, got {value!r}")


def load_config(preset, config_path=None):
    """The preset's schedule under the config file, which may set only the
    keys its path reads."""
    user = {}
    if config_path is not None:
        path = Path(config_path)
        if not path.exists():
            raise CliError(f"config not found: {path}", EXIT_MISSING)
        try:
            user = dict(json.loads(path.read_text()))
        except (TypeError, ValueError) as e:
            raise CliError(f"bad config {path}: {e}", EXIT_FAIL)
        staged = preset.kind == "ode"
        unknown = set(user) - (STAGED_KEYS if staged else JOINT_KEYS)
        if unknown:
            raise CliError(
                f"{path}: the {'staged' if staged else 'joint'} path of "
                f"{preset.name} does not read config keys "
                f"{', '.join(sorted(unknown))}")
    return {**DEFAULT_CONFIGS[preset.name], **user}


def load_dataset(path):
    path = Path(path)
    try:
        return datagen.Dataset.load(path)
    except (FileNotFoundError, NotADirectoryError) as e:
        raise CliError(f"dataset file not found: {e.filename}", EXIT_MISSING)
    except (KeyError, TypeError, IndexError, ValueError) as e:
        raise CliError(f"corrupt dataset {path}: {e}", EXIT_CORRUPT)


def load_run(run_dir):
    run_dir = Path(run_dir)
    model_path = run_dir / "model.json"
    ckpt_path = run_dir / "encoder.ckpt"
    for p in (model_path, ckpt_path):
        if not p.exists():
            raise CliError(f"run artifact not found: {p}", EXIT_MISSING)
    try:
        model = library.SymbolicModel.from_json(model_path.read_text())
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as e:
        raise CliError(f"corrupt model file {model_path}: {e}", EXIT_CORRUPT)
    try:
        encoder = encoders.load_checkpoint(ckpt_path)
    except encoders.CheckpointError as e:
        raise CliError(str(e), EXIT_CORRUPT)
    return model, encoder


# -- subcommands --------------------------------------------------------------

def cmd_generate(args):
    for flag, value in (("--n-time", args.n_time), ("--nx", args.nx)):
        if value is not None and value < 1:
            raise CliError(f"{flag} must be a positive integer, got {value}")
    try:
        preset = datagen.get_preset(args.preset, n_time=args.n_time,
                                    nx=args.nx)
    except KeyError:
        raise CliError(f"unknown preset {args.preset!r}", EXIT_FAIL)
    ds = datagen.simulate(preset, seed=args.seed)
    try:
        ds.save(args.out, force=args.force)
    except FileExistsError:
        raise CliError(f"{args.out} exists; pass --force to overwrite",
                       EXIT_FAIL)
    print(f"wrote {args.out}: {preset.name}, visible shape "
          f"{ds.visible.shape}, seed {args.seed}")
    return EXIT_OK


def cmd_train(args):
    ds = load_dataset(args.data)
    cfg = load_config(ds.preset, args.config)
    if args.steps is not None:
        cfg["steps"] = args.steps
    if args.width is not None:
        cfg["width"] = args.width
    if args.lr is not None:
        cfg["lr"] = args.lr
    check_config(cfg)
    keep_freed_heap()
    try:
        if ds.preset.kind == "ode":
            return _train_staged(args, ds, cfg)
        return _train_joint(args, ds, cfg)
    except train.SeriesTooShort as e:
        raise CliError(f"cannot train on {args.data}: {e}", EXIT_FAIL)
    except train.TrainingDiverged as e:
        raise CliError(f"training diverged: {e}", EXIT_FAIL)


def _train_joint(args, ds, cfg):
    """PDE and wave systems: the encoder and the coefficients descend
    jointly (`train.fit`)."""
    model = train.default_model(ds.preset, seed=args.seed)
    enc = train.default_encoder(ds, width=cfg["width"] or None,
                                seed=args.seed)
    # beta_phase weighs the hidden residual in physical time units; the
    # problem scores it in model time units
    beta = cfg.get("beta_phase", 0.0) / (model.s_t * ds.norm.dt) ** 2
    prob = train.Problem(ds, model, enc, alphas=tuple(cfg["alphas"]),
                         beta=beta)
    tcfg = train.TrainConfig(
        steps=cfg["steps"], lr=cfg["lr"],
        sparsify_every=cfg["sparsify_every"],
        theta_threshold=cfg["theta_threshold"],
        divergence_limit=cfg.get("divergence_limit",
                                 train.DIVERGENCE_LIMIT),
        chunk_time=cfg.get("chunk_time", 0), seed=args.seed)
    train.fit(prob, tcfg, out_dir=args.out, log=print)
    print(f"wrote {args.out}: {model.active_terms()} active terms")
    return EXIT_OK


def _train_staged(args, ds, cfg):
    """ODE systems: free-embedding recovery with staged support selection.

    `steps` is the total descent budget, which alone sets the schedule; a
    budget below 20000 picks the reduced schedule, which skips elimination.
    Elimination trials add history rows beyond the budget. `lr` is the
    recovery's peak rate (warmup runs at half of it). A `width` above 0
    additionally distills the embedding into a temporal-conv encoder of
    that width in `recover.DISTILL_STEPS` further steps, which write no
    history rows; that encoder is then the one saved."""
    rcfg = recover.RecoveryConfig(cfg["steps"], lr=cfg["lr"], seed=args.seed)
    rec = recover.EmbeddingRecovery(
        ds, train.default_model(ds.preset, seed=args.seed), rcfg)
    width = cfg["width"] or None
    loss = rec.fit()
    enc = recover.distill(rec, width) if width else rec.emb
    train.save_run(args.out, rec.model, enc, rec.history,
                   {"pipeline": "staged", "steps": cfg["steps"],
                    "distill_width": width,
                    "distill_steps": recover.DISTILL_STEPS if width else 0,
                    "recovery": {**rcfg.schedule._asdict(), "lr": rcfg.lr,
                                 "eliminate": rcfg.eliminate,
                                 "seed": rcfg.seed},
                    "loss": loss, "events": rec.events})
    print(f"wrote {args.out}: {rec.model.active_terms()} active terms "
          f"(staged, loss {loss:.3g})")
    return EXIT_OK


def _evaluate_run(args, ds, model, encoder):
    """`evaluate.evaluate_run` for eval and predict. A run that does not fit
    the dataset (a model of another kind or state size than the preset's,
    a conv encoder of other visible channels, a per-sample embedding of
    another series), or a series too short to score, raises CliError."""
    vis, spec = ds.visible.shape, encoder.spec
    embeds = spec.kind == "phase_embedding"
    for what, have, want in (
            ("model kind and state size", (model.kind, model.state_dim),
             ("complex" if ds.preset.kind == "nlse" else "real",
              ds.preset.state_dim)),
            ("embedded series" if embeds else "visible channels",
             spec.shape[:len(vis) - 1] if embeds else spec.n_visible,
             vis[:-1] if embeds else vis[-1])):
        if have != want:
            raise CliError(f"run {args.run} does not fit {args.data}: "
                           f"{what} {have}, the dataset's {want}")
    try:
        return evaluate.evaluate_run(ds, model, encoder)
    except train.SeriesTooShort as e:
        raise CliError(f"cannot evaluate on {args.data}: {e}")


def cmd_eval(args):
    ds = load_dataset(args.data)
    model, encoder = load_run(args.run)
    res = _evaluate_run(args, ds, model, encoder)
    extra = {}
    if "phase_error" in res:
        extra = {"phase_error": res["phase_error"],
                 "phase_gradient_error": res["phase_gradient_error"]}
    doc = evaluate.report(model, ds, res["align"], res["comparison"],
                          extra=extra)
    out = Path(args.out) if args.out else Path(args.run) / "report.json"
    evaluate.write_report(doc, out)
    print(f"wrote {out}")
    print(f"pattern match: {doc['pattern_match']}")
    print(f"hidden rel error: "
          f"{', '.join(f'{e:.4g}' for e in doc['hidden']['rel_error'])}")
    return EXIT_OK


def cmd_predict(args):
    ds = load_dataset(args.data)
    model, encoder = load_run(args.run)
    if ds.preset.kind != "ode":
        raise CliError("predict supports the ODE presets only", EXIT_FAIL)
    res = _evaluate_run(args, ds, model, encoder)
    start = args.start - res["lo"]
    if start < 0 or start >= res["hidden_estimate"].shape[0]:
        raise CliError(f"--start must be in [{res['lo']}, {res['hi']})",
                       EXIT_FAIL)
    ds_fwd = datagen.Dataset(
        preset=ds.preset, seed=ds.seed,
        visible_raw=ds.visible_raw[args.start:],
        hidden_truth=ds.hidden_truth[args.start:], norm=ds.norm)
    horizon = evaluate.prediction_horizon(
        model, ds_fwd, res["align"], res["hidden_estimate"][start])
    unit = "Lyapunov times" if ds.preset.lyapunov_time else "time units"
    print(f"prediction horizon: {horizon:.3f} {unit}")
    return EXIT_OK


def cmd_report(args):
    path = Path(args.run) / "report.json"
    if not path.exists():
        raise CliError(f"no report at {path}; run `symder eval` first",
                       EXIT_MISSING)
    try:
        doc = json.loads(path.read_text())
        lines = [
            f"preset: {doc['preset']}  seed: {doc['seed']}",
            f"pattern match: {doc['pattern_match']}",
            f"active terms: {doc['active_terms']}",
            "hidden rel error: "
            f"{', '.join(f'{e:.4g}' for e in doc['hidden']['rel_error'])}"]
        for eq, row in doc["equations"].items():
            terms = "  ".join(f"{c:+.4g} {name}" for name, c in row.items())
            lines.append(f"  d[{eq}]/dt = {terms}")
    except (ValueError, KeyError, TypeError, AttributeError) as e:
        raise CliError(f"corrupt report {path}: {e!r}", EXIT_CORRUPT)
    print("\n".join(lines))
    return EXIT_OK


def build_parser():
    ap = argparse.ArgumentParser(
        prog="symder",
        description="sparse symbolic dynamics recovery from partial "
                    "observations")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="simulate a dataset")
    g.add_argument("--preset", required=True,
                   choices=sorted(DEFAULT_CONFIGS))
    g.add_argument("--out", required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--n-time", type=int, default=None)
    g.add_argument("--nx", type=int, default=None)
    g.add_argument("--force", action="store_true")
    g.set_defaults(fn=cmd_generate)

    t = sub.add_parser("train", help="fit coefficients and encoder")
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--config", default=None)
    t.add_argument("--steps", type=int, default=None)
    t.add_argument("--width", type=int, default=None)
    t.add_argument("--lr", type=float, default=None)
    t.add_argument("--seed", type=int, default=0)
    t.set_defaults(fn=cmd_train)

    e = sub.add_parser("eval", help="score a trained run against the truth")
    e.add_argument("--data", required=True)
    e.add_argument("--run", required=True)
    e.add_argument("--out", default=None)
    e.set_defaults(fn=cmd_eval)

    p = sub.add_parser("predict", help="forecast horizon from a trained run")
    p.add_argument("--data", required=True)
    p.add_argument("--run", required=True)
    p.add_argument("--start", type=int, default=100)
    p.set_defaults(fn=cmd_predict)

    r = sub.add_parser("report", help="print a saved evaluation report")
    r.add_argument("--run", required=True)
    r.set_defaults(fn=cmd_report)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code


if __name__ == "__main__":
    sys.exit(main())
