"""Command line front end.

    symder generate --preset lorenz --out data/lorenz --seed 0
    symder train    --data data/lorenz --out runs/lorenz
    symder eval     --data data/lorenz --run runs/lorenz
    symder predict  --data data/lorenz --run runs/lorenz
    symder report   --run runs/lorenz

Exit codes: 0 success, 1 runtime failure (divergence, late bad arguments,
existing output without --force, an unwritable --out, a closed stdout), 2
missing dataset or run input, 3 corrupt dataset, checkpoint or model file.

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

# the run settings per system: every key its path reads, which a JSON config
# and the flags may override. The system kind picks the path: ODE presets
# train staged (`recover`), where "width" > 0 distills the embedding into a
# conv encoder of that width; the others train jointly (`train.fit`)
DEFAULT_CONFIGS = {
    "rossler": {"steps": 20500, "lr": 2e-3, "width": 0},
    "lorenz": {"steps": 20500, "lr": 2e-3, "width": 0},
    "diffusion_source": {"steps": 50000, "lr": 1e-4, "width": 64,
                         "alphas": [1.0, 10.0], "beta_phase": 0.0,
                         "sparsify_every": 1000, "theta_threshold": 5e-3,
                         "divergence_limit": 1e6},
    "diffusive_lv": {"steps": 100000, "lr": 1e-3, "width": 64,
                     "alphas": [1.0, 1.0], "beta_phase": 0.0,
                     "sparsify_every": 1000, "theta_threshold": 2e-3,
                     "divergence_limit": 1e6},
    "nlse": {"steps": 100000, "lr": 1e-4,
             "alphas": [1.0, 1.0], "beta_phase": 1e3,
             "sparsify_every": 10000, "theta_threshold": 1e-3,
             "divergence_limit": 1e9},
}

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
    top stay mapped. Each training step frees the arrays of its loss and
    gradient (a joint step's tape as `backward` sweeps it) and builds as
    many in the next, which would otherwise fault every page back in.
    Returns True when both settings took; where the C library has no
    `mallopt` it does nothing and returns False."""
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
    "alphas": (lambda v: type(v) is list and len(v) == train.ORDER
               and all(map(_positive, v)),
               f"a list of {train.ORDER} positive finite numbers"),
    "sparsify_every": _COUNT, "theta_threshold": _POSITIVE,
    "divergence_limit": _POSITIVE,
    "beta_phase": (lambda v: type(v) in (int, float) and 0 <= v < math.inf,
                   "a non-negative finite number"),
}
# the joint path's conv encoder needs a width; a staged 0 skips distill
_JOINT_WIDTH = (lambda v: type(v) is int and v >= 1, "a positive integer")
# the least value of each integer flag of generate and train
FLAG_LEAST = {"n_time": 1, "nx": 1, "seed": 0}


def load_config(ds, args):
    """The preset's run settings under the config file's, then under the
    flags' (--steps, --width, --lr). Raise CliError naming any that is not
    one of the preset's keys, the first value out of range, or a staged
    width whose distill normal matrix, taken twice, exceeds physical
    memory."""
    user = {}
    if args.config is not None:
        path = Path(args.config)
        if not path.exists():
            raise CliError(f"config not found: {path}", EXIT_MISSING)
        try:
            user = dict(json.loads(path.read_text()))
        except (TypeError, ValueError) as e:
            raise CliError(f"bad config {path}: {e}", EXIT_FAIL)
    for key in ("steps", "width", "lr"):
        if getattr(args, key) is not None:
            user[key] = getattr(args, key)
    preset, staged = ds.preset, ds.preset.kind == "ode"
    unknown = set(map(str, user)) - set(DEFAULT_CONFIGS[preset.name])
    if unknown:
        raise CliError(
            f"the {'staged' if staged else 'joint'} path of {preset.name} "
            f"does not read {', '.join(sorted(unknown))}")
    cfg = {**DEFAULT_CONFIGS[preset.name], **user}
    rules = CONFIG_RULES if staged else {**CONFIG_RULES,
                                         "width": _JOINT_WIDTH}
    for key, value in cfg.items():
        ok, what = rules[key]
        if not ok(value):
            raise CliError(f"config {key} must be {what}, got {value!r}")
    if staged and cfg["width"]:
        # distill's normal matrix, and the copy np.linalg.solve works on
        n = recover.distill_unknowns(ds.visible.shape[-1], cfg["width"])
        need = 2 * 8 * n * n
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        if need > have:
            raise CliError(f"config width {cfg['width']} needs "
                           f"{need / 2**30:,.1f} GiB in distill, twice its "
                           f"{n}x{n} normal matrix, over the "
                           f"{have / 2**30:,.1f} GiB of physical memory")
    return cfg


def check_out_dir(path):
    """Raise CliError unless `path` is a directory or can be made one: the
    nearest of it and the folders above it that exists is a directory."""
    p = next(p for p in (Path(path), *Path(path).parents) if p.exists())
    if not p.is_dir():
        raise CliError(f"cannot write to {path}: {p} is not a directory")


def load_dataset(path):
    path = Path(path)
    try:
        return datagen.Dataset.load(path)
    except (FileNotFoundError, NotADirectoryError) as e:
        raise CliError(f"dataset file not found: {e.filename}", EXIT_MISSING)
    except (KeyError, TypeError, IndexError, ValueError) as e:
        raise CliError(f"corrupt dataset {path}: {e}", EXIT_CORRUPT)


def load_run(run_dir):
    """(model, encoder, record) of a run. The encoder's parameters take no
    gradient (`encoders.load_checkpoint` freezes them), so its forward
    keeps no tape. The record holds what
    config.json says of the data the run was trained on, `preset` and
    `data_seed`, as far as it says it: it is empty for a run without
    config.json."""
    run_dir = Path(run_dir)
    model_path = run_dir / "model.json"
    ckpt_path = run_dir / "encoder.ckpt"
    config_path = run_dir / "config.json"
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
    try:
        doc = json.loads(config_path.read_text()) if config_path.exists() \
            else {}
        if not isinstance(doc, dict):
            raise ValueError("not a JSON object")
    except ValueError as e:
        raise CliError(f"corrupt run config {config_path}: {e}", EXIT_CORRUPT)
    record = {k: doc[k] for k in ("preset", "data_seed") if k in doc}
    return model, encoder, record


# -- subcommands --------------------------------------------------------------

def cmd_generate(args):
    preset = datagen.get_preset(args.preset, n_time=args.n_time, nx=args.nx)
    if args.nx is not None and not preset.grid:
        raise CliError(f"--nx sets a grid, and {preset.name} has none")
    check_out_dir(args.out)
    try:
        ds = datagen.simulate(preset, seed=args.seed)
    except ValueError as e:     # a visible channel with zero spread
        raise CliError(f"cannot generate {preset.name}: {e}")
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
    cfg = load_config(ds, args)
    check_out_dir(args.out)
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
    enc = train.default_encoder(ds, cfg, seed=args.seed)
    # beta_phase weighs the hidden residual in physical time units; the
    # problem scores it in model time units
    beta = cfg["beta_phase"] / (model.s_t * ds.norm.dt) ** 2
    prob = train.Problem(ds, model, enc, alphas=cfg["alphas"], beta=beta)
    train.fit(prob, {**cfg, "seed": args.seed}, out_dir=args.out, log=print)
    print(f"wrote {args.out}: {model.active_terms()} active terms")
    return EXIT_OK


def _train_staged(args, ds, cfg):
    """ODE systems: free-embedding recovery with staged support selection.

    `steps` is the total descent budget, which alone sets the schedule; a
    budget below 20000 picks the reduced schedule, which skips elimination.
    Elimination trials add history rows beyond the budget. `lr` is the
    recovery's peak rate (warmup runs at half of it). A `width` above 0
    additionally distills the embedding into a temporal-conv encoder of
    that width by least squares, in `recover.DISTILL_SOLVES` damped
    Gauss-Newton solves, which write no history rows; that encoder is then
    the one saved."""
    rcfg = recover.RecoveryConfig(cfg["steps"], cfg["lr"], seed=args.seed)
    rec = recover.EmbeddingRecovery(
        ds, train.default_model(ds.preset, seed=args.seed), rcfg)
    width = cfg["width"] or None
    loss = rec.fit()
    enc = recover.distill(rec, width) if width else rec.emb
    train.save_run(args.out, ds, rec.model, enc, rec.history,
                   {"pipeline": "staged", "steps": cfg["steps"],
                    "distill_width": width,
                    "distill_solves": recover.DISTILL_SOLVES if width else 0,
                    "recovery": {**rcfg.schedule._asdict(), "lr": rcfg.lr,
                                 "eliminate": rcfg.eliminate,
                                 "seed": rcfg.seed},
                    "loss": loss, "events": rec.events})
    print(f"wrote {args.out}: {rec.model.active_terms()} active terms "
          f"(staged, loss {loss:.3g})")
    return EXIT_OK


def _evaluate_run(args, ds, model, encoder, record):
    """`evaluate.evaluate_run` for eval and predict. A run that does not fit
    the dataset (a model of another kind or state size than the preset's,
    a conv encoder of other visible channels, a per-sample embedding of
    another series; a run whose record names another preset, or, for a
    per-sample embedding, another dataset seed), a series too short to
    score, or a run `evaluate_run` cannot score (a constant hidden
    estimate), raises CliError."""
    vis, spec = ds.visible.shape, encoder.spec
    embeds = spec.kind == "phase_embedding"
    checks = [
        ("model kind and state size", (model.kind, model.state_dim),
         ("complex" if ds.preset.kind == "nlse" else "real",
          ds.preset.state_dim)),
        ("embedded series" if embeds else "visible channels",
         spec.shape[:len(vis) - 1] if embeds else spec.n_visible,
         vis[:-1] if embeds else vis[-1]),
        ("preset", record.get("preset", ds.preset.name), ds.preset.name)]
    if embeds:
        checks.append(("data seed", record.get("data_seed", ds.seed),
                       ds.seed))
    for what, have, want in checks:
        if have != want:
            raise CliError(f"run {args.run} does not fit {args.data}: "
                           f"{what} {have}, the dataset's {want}")
    try:
        return evaluate.evaluate_run(ds, model, encoder)
    except ValueError as e:     # train.SeriesTooShort among them
        raise CliError(f"cannot evaluate on {args.data}: {e}")


def cmd_eval(args):
    ds = load_dataset(args.data)
    model, encoder, record = load_run(args.run)
    doc = evaluate.report(model, ds,
                          _evaluate_run(args, ds, model, encoder, record))
    out = Path(args.out) if args.out else Path(args.run) / "report.json"
    try:
        evaluate.write_report(doc, out)
    except OSError as e:
        raise CliError(f"cannot write {out}: {e.strerror}")
    print(f"wrote {out}")
    print(f"pattern match: {doc['pattern_match']}")
    print(f"hidden rel error: "
          f"{', '.join(f'{e:.4g}' for e in doc['hidden']['rel_error'])}")
    return EXIT_OK


def cmd_predict(args):
    ds = load_dataset(args.data)
    model, encoder, record = load_run(args.run)
    if ds.preset.kind != "ode":
        raise CliError("predict supports the ODE presets only", EXIT_FAIL)
    res = _evaluate_run(args, ds, model, encoder, record)
    start = args.start - res["lo"]
    if start < 0 or start >= res["hidden_estimate"].shape[0]:
        raise CliError(f"--start must be in [{res['lo']}, {res['hi']})",
                       EXIT_FAIL)
    horizon, to_end = evaluate.prediction_horizon(
        ds, res["comparison"]["found_physical"], res["align"],
        res["hidden_estimate"][start], args.start)
    unit = "Lyapunov times" if ds.preset.lyapunov_time else "time units"
    if to_end:
        last = ds.visible_raw.shape[0] - 1
        print(f"prediction horizon: at least {horizon:.3f} {unit} (the data "
              f"ends at sample {last}, {last - args.start} after --start)")
    else:
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
        if "constant_rel_error" in doc["hidden"]:
            ratio = evaluate.baseline_ratio(doc["hidden"])
            lines.append("hidden rel error / best of constant and visible "
                         f"affine: {', '.join(f'{r:.4g}' for r in ratio)}")
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
        for key, least in FLAG_LEAST.items():
            value = getattr(args, key, None)
            if value is not None and value < least:
                raise CliError(f"--{key.replace('_', '-')} must be a "
                               f"{'positive' if least else 'non-negative'} "
                               f"integer, got {value}")
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except BrokenPipeError:
        # the reader of standard output left (`symder train ... | head`):
        # end quietly, with what is still buffered sent nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
