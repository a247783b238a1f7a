#!/usr/bin/env python3
"""symder benchmark: `symder generate -> train -> eval` on one workload.

    python3 perfbench/run.py --workload lorenz_staged --seed 0 --seconds 20 \
        --trace 0

Run from the root of a checkout; the program is taken from `src/`. With
`--trace 0` it prints the end-to-end metrics (setup_s, generate_s, train_s,
eval_s, peak_rss_mb); with `--trace 1` the per-layer metrics from a traced
run (see README.md). The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`; the line before it
holds the machine metadata. `--smoke` shrinks every workload to a few
seconds and drops the recovery-quality bound, for the harness's own test.
"""

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# One process at a time, single-threaded BLAS: the plain baseline, and the
# steadiest on a small shared machine. Set before numpy is first imported.
THREADS = "1"
THREAD_VARS = ("SYMDER_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = THREADS

RUN_LIMIT = 170.0       # whole run, seconds
MIN_ROUNDS = 2          # rounds of repeated stages per run, at least
ROUND_REPEATS = 3       # (set-up probe, eval) pairs per round


@dataclass(frozen=True)
class Workload:
    preset: str
    n_time: int
    steps: int
    nx: int = None
    width: int = None       # `symder train --width`; None keeps the preset's
    quality: bool = False   # apply the recovery-quality bound


WORKLOADS = {
    # staged path: RK4 burn-in, interpreter-bound descent over ~2500x3
    # arrays, gauge/STLSQ, and the conv1d distillation at width 8
    "lorenz_staged": Workload("lorenz", n_time=2500, steps=1000, width=8,
                              quality=True),
    # joint path on a 128x32x32 field: conv3d encoder, np.roll stencils and
    # two time chunks per step under the preset's lr/alphas/chunk_time
    "diffusion_source_joint": Workload("diffusion_source", n_time=128, nx=32,
                                       steps=16),
}
# The staged loss's first row is taken before the embedding is standardized,
# so a budget too short to pass it fails the history check: 800 steps on 500
# samples is about the smallest that does.
SMOKE = {
    "lorenz_staged": dict(n_time=500, steps=800, quality=False),
    "diffusion_source_joint": dict(n_time=24, nx=8, steps=3),
}

# per-layer metric -> span names whose self times it sums
LAYER_TIMES = {
    "datagen.integrate_s": ["datagen.integrate"],
    "datagen.save_s": ["datagen.Dataset.save"],
    "datagen.load_s": ["datagen.Dataset.load"],
    "fd.time_derivative_s": ["fd.time_derivative"],
    "tensor.backward_s": ["tensor.backward"],
    "tensor.conv1d_s": ["tensor.conv1d"],
    "tensor.conv3d_s": ["tensor.conv3d"],
    "jets.propagate_s": ["jets.propagate"],
    "jets.visible_derivatives_s": ["jets.visible_derivatives"],
    "library.evaluate_components_s":
        ["library.SymbolicModel.evaluate_components"],
    "encoders.forward_s": ["encoders.Encoder.__call__"],
    "encoders.save_checkpoint_s": ["encoders.save_checkpoint"],
    "train.compute_loss_s": ["train.Problem.compute_loss"],
    "train.optimizer_step_s": ["train.GradientOptimizer.step"],
    "train.write_history_s": ["train.write_history"],
    "recover.run_s": ["recover.EmbeddingRecovery.run"],
    "recover.loss_fn_s": ["recover.EmbeddingRecovery.loss_fn"],
    "recover.gauge_s": ["recover.EmbeddingRecovery.gauge_standardize",
                        "recover.EmbeddingRecovery.gauge_orthogonalize"],
    "recover.stlsq_s": ["recover.EmbeddingRecovery.stlsq"],
    "recover.ls_fit_s": ["recover.EmbeddingRecovery.ls_fit"],
    "recover.distill_s": ["recover.distill"],
    "evaluate.evaluate_run_s": ["evaluate.evaluate_run"],
    "evaluate.affine_align_s": ["evaluate.affine_align"],
    "evaluate.compare_equations_s": ["evaluate.compare_equations"],
    "cli.load_dataset_s": ["cli.load_dataset"],
    "cli.load_run_s": ["cli.load_run"],
}
# per-layer metric -> span name whose calls it counts
LAYER_CALLS = {
    "tensor.backward_calls": "tensor.backward",
    "encoders.forward_calls": "encoders.Encoder.__call__",
}
# descent steps: optimizer steps taken inside these spans
LAYER_STEPS = {
    "train.fit_steps": "train.fit",
    "recover.descent_steps": "recover.EmbeddingRecovery.run",
}


class RunFailed(Exception):
    pass


class Bench:
    """One run: owns the work directory, the child environment, the
    deadline and the operation counts."""

    def __init__(self, name, wl, seed, work):
        self.name, self.wl, self.seed, self.work = name, wl, seed, work
        self.data = work / "data"
        self.run_dir = work / "run"
        self.log = work / "children.log"
        self.deadline = time.monotonic() + RUN_LIMIT
        self.attempted = 0
        self.failed = 0
        self.errors = []
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                          else []))
        self.env = env

    def child(self, argv, required=True):
        """Run one program process; returns (wall seconds, peak RSS MiB),
        or None when it fails and is not required."""
        self.attempted += 1
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise RunFailed(f"out of time before {argv[:4]}")
        with open(self.log, "ab") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=ROOT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode == 0:
            return wall, usage.ru_maxrss / 1024.0
        self.failed += 1
        msg = f"{' '.join(map(str, argv[1:5]))} ... exited {proc.returncode}"
        if required:
            raise RunFailed(msg)
        print(f"failed: {msg}", file=sys.stderr)
        return None

    # -- the program's commands ----------------------------------------------

    def symder(self, args, spans=None):
        if spans is None:
            return [sys.executable, "-m", "symder.cli"] + args
        return [sys.executable, str(HERE / "tracer.py"), "--spans",
                str(spans), "--"] + args

    def generate(self, spans=None, spare=False, required=True):
        """Into the run's dataset directory, or with `spare` into a second
        one that nothing reads, so the dataset under test stays as made."""
        out = self.work / "spare" if spare else self.data
        args = ["generate", "--preset", self.wl.preset, "--out", str(out),
                "--seed", str(self.seed), "--n-time", str(self.wl.n_time),
                "--force"]
        if self.wl.nx:
            args += ["--nx", str(self.wl.nx)]
        return self.child(self.symder(args, spans), required)

    def train_args(self, out):
        args = ["train", "--data", str(self.data), "--out", str(out),
                "--steps", str(self.wl.steps), "--seed", str(self.seed)]
        if self.wl.width:
            args += ["--width", str(self.wl.width)]
        return args

    def train(self, out, spans=None):
        return self.child(self.symder(self.train_args(out), spans))

    def eval(self, spans=None, required=True):
        args = ["eval", "--data", str(self.data), "--run", str(self.run_dir)]
        return self.child(self.symder(args, spans), required)

    def setup(self):
        """`symder train` up to its first step (probe.py); it writes
        nothing."""
        argv = [sys.executable, str(HERE / "probe.py")] + self.train_args(
            self.work / "probe-run")
        return self.child(argv, required=False)

    # -- correctness ---------------------------------------------------------

    def check_data(self):
        import checks
        if self.wl.preset == "lorenz":
            self.errors += checks.lorenz_trajectory(self.data)
        else:
            self.errors += checks.diffusion_means(self.data)
        import probe
        with contextlib.redirect_stdout(sys.stderr):
            problem = probe.problem(self.train_args(self.work / "probe-run"))
        self.errors += checks.gradient_check(problem)

    def check_run(self):
        import checks
        self.errors += checks.history(self.run_dir, self.wl.steps)
        errors, self.hidden_error = checks.alignment(
            self.data, self.run_dir, self.wl.quality)
        self.errors += errors


def measure(b, seconds):
    """End-to-end metrics, tracing off.

    Generate and train run once. Then rounds of ROUND_REPEATS (set-up
    probe, eval) pairs and a generate into a spare directory repeat until
    `seconds` have passed, at least MIN_ROUNDS times, and each repeated
    stage reports its median. On the shared 2-vCPU VM of the reference
    figures, speed drifted between about 1x and 2x over tens of seconds to
    minutes, so a stage is sampled across the whole run (README.md)."""
    gens = [b.generate()]
    b.check_data()
    train_s, rss = b.train(b.run_dir)
    evals = [b.eval()]
    b.check_run()
    setups = []
    t_end = time.monotonic() + seconds
    rounds = 0
    while rounds < MIN_ROUNDS or time.monotonic() < t_end:
        for _ in range(ROUND_REPEATS):
            setups.append(b.setup())
            evals.append(b.eval(required=False))
        gens.append(b.generate(spare=True, required=False))
        rounds += 1
    setups, evals, gen = ([r[0] for r in rs if r] for rs in (setups, evals,
                                                               gens))
    if not setups:
        raise RunFailed("every set-up probe failed")
    print("samples: " + json.dumps({"setup_s": setups, "generate_s": gen,
                                    "eval_s": evals}), file=sys.stderr)
    return {"setup_s": (statistics.median(setups), "s"),
            "generate_s": (statistics.median(gen), "s"),
            "train_s": (train_s, "s"),
            "eval_s": (statistics.median(evals), "s"),
            "peak_rss_mb": (rss, "MB")}


def self_times(doc):
    """{span name: summed self time}, {span name: calls}, and optimizer
    steps under each span name, from one traced process."""
    spans = doc["spans"]
    child = [0.0] * len(spans)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    own, calls, steps = {}, {}, {}
    for i, (name, t0, t1, parent) in enumerate(spans):
        own[name] = own.get(name, 0.0) + (t1 - t0 - child[i])
        calls[name] = calls.get(name, 0) + 1
        if name == "train.GradientOptimizer.step":
            seen = set()
            while parent >= 0:
                outer = spans[parent][0]
                if outer not in seen:
                    seen.add(outer)
                    steps[outer] = steps.get(outer, 0) + 1
                parent = spans[parent][3]
    return own, calls, steps


def measure_traced(b):
    """Per-layer metrics from traced generate, train and eval processes,
    plus the tracing overhead on train."""
    files = {k: b.work / f"spans-{k}.json" for k in ("generate", "train",
                                                     "eval")}
    b.generate(files["generate"])
    b.check_data()
    plain_s, _ = b.train(b.run_dir)
    traced_s, _ = b.train(b.work / "run-traced", files["train"])
    b.eval(files["eval"])
    b.check_run()
    own, calls, steps, counters = {}, {}, {}, {}
    for path in files.values():
        doc = json.loads(path.read_text())
        for acc, part in zip((own, calls, steps), self_times(doc)):
            for k, v in part.items():
                acc[k] = acc.get(k, 0) + v
        for k, v in doc["counters"].items():
            counters[k] = counters.get(k, 0) + v
    m = {k: (sum(own.get(n, 0.0) for n in names), "s")
         for k, names in LAYER_TIMES.items()}
    m.update({k: (calls.get(n, 0), "count") for k, n in LAYER_CALLS.items()})
    m.update({k: (steps.get(n, 0), "count") for k, n in LAYER_STEPS.items()})
    conv_s = m["tensor.conv1d_s"][0] + m["tensor.conv3d_s"][0]
    m["tensor.conv_gflops_per_s"] = (
        counters["tensor.conv_flops"] / conv_s / 1e9 if conv_s else 0.0,
        "GFLOP/s")
    m["tensor.tape_nodes"] = (counters.get("tensor.tape_nodes", 0), "count")
    m["tensor.tape_mb"] = (counters.get("tensor.tape_mb", 0.0), "MB")
    m["datagen.rk4_steps"] = (counters["datagen.rk4_steps"], "count")
    m["datagen.dataset_mb"] = (sum(
        (b.data / f).stat().st_size for f in ("visible.f64", "hidden.f64")
    ) / 2 ** 20, "MB")
    m["encoders.checkpoint_mb"] = (
        (b.run_dir / "encoder.ckpt").stat().st_size / 2 ** 20, "MB")
    m["evaluate.hidden_rel_error"] = (b.hidden_error, "ratio")
    m["trace.overhead_s"] = (traced_s - plain_s, "s")
    for k, path in files.items():
        dest = OUT / f"spans-{b.name}-seed{b.seed}-{k}.json"
        shutil.copyfile(path, dest)
    return m


def machine():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "blas": blas,
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "numpy": np.__version__,
            "python": sys.version.split()[0]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    a = ap.parse_args(argv)
    if not (SRC / "symder" / "cli.py").is_file():
        print(f"error: no symder sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[a.workload]
    if a.smoke:
        wl = replace(wl, **SMOKE[a.workload])
    OUT.mkdir(exist_ok=True)
    work = OUT / f"{a.workload}-seed{a.seed}-{os.getpid()}"
    work.mkdir()
    b = Bench(a.workload, wl, a.seed, work)
    try:
        metrics = measure_traced(b) if a.trace else measure(b, a.seconds)
    except RunFailed as e:
        print(f"error: {e}; see the log below", file=sys.stderr)
        sys.stderr.write(b.log.read_text()[-4000:] if b.log.exists() else "")
        return 1
    finally:
        if b.log.exists():
            shutil.copyfile(b.log, OUT / f"{a.workload}-seed{a.seed}.log")
        shutil.rmtree(work, ignore_errors=True)
    for err in b.errors:
        print(f"check failed: {err}", file=sys.stderr)
    print(f"hidden-state error after affine alignment: {b.hidden_error:.4g}",
          file=sys.stderr)
    print(json.dumps({"machine": machine()}))
    print(json.dumps({
        "correct": not b.errors, "attempted": b.attempted,
        "failed": b.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
