"""The figures tier-1 CI writes to its job summary, one line each:

- the loss tape node counts of a staged Lorenz and a diffusion_source
  problem, both from the tape reference `Problem.tape_loss`, so that a
  re-expansion of the tape shows in every run (83 and 89;
  `test_loss_tape_sizes` holds them);
- the tracemalloc peak of one diffusion_source chunk's `compute_loss` and
  `backward`, on the benchmark's 128x32x32 field and the first of its
  windows of `train.CHUNK_POINTS` grid points, whose frames it names;
- the tracemalloc peak of an eval-style reconstruct of that field, with
  its encoder saved and loaded back, so that its parameters take no
  gradient, as `cli.load_run` hands it over;
- on the staged fixture, the largest difference of the closed-form gradient
  (`EmbeddingRecovery.loss_and_grad`, which calls `train.FieldLoss`) to
  the tape reference's, over the largest tape entry of each parameter, and
  the median time of one call of each;
- the same two figures for the joint diffusion_source loss on the first
  window of the benchmark's field: the closed form `compute_loss` takes
  against the tape reference `tape_loss`, the gradients of theta and every
  encoder parameter with a third of the terms masked, and each call timed
  with its `backward` and every term active (the encoder's conv stack is
  in both);
- the encoder's conv stack alone on that window, forward and backward, in
  float32, the joint PDE encoder's dtype, and in float64: the median time
  of one call in each, and the largest difference of the float32 value and
  weight gradients to the float64 ones, over the largest float64 entry;
- the median wall time of three in-process simulations of a Lorenz
  dataset, burn-in included, and of a 128x32x32 diffusion_source one, and
  the RK4 substeps per second each implies;
- a short staged fit and its distilled width-8 encoder: the fit's wall
  time without the distill, so that a slowdown of the closed-form loss on
  the staged path shows in every run, the distill event, with its final
  mean squared error, and the encoder's hidden error over the embedding's
  on the encoder's window.

The times are for information: they gate nothing.

    PYTHONPATH=src python tests/ci_summary.py >> "$GITHUB_STEP_SUMMARY"
"""

import dataclasses
import statistics
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from symder import cli, datagen, encoders, evaluate, recover, train
from symder import tensor as T


def tape_nodes(loss):
    seen, stack = set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(p for p, _ in node._parents)
    return len(seen)


def median_ms(f, calls):
    times = []
    for _ in range(calls):
        t0 = time.perf_counter()
        f()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def staged(ds, steps):
    return recover.EmbeddingRecovery(
        ds, train.default_model(ds.preset),
        recover.RecoveryConfig(steps, cli.DEFAULT_CONFIGS["lorenz"]["lr"]))


def pde_problem(n_time, nx):
    """The joint problem of an n_time x nx x nx diffusion_source field under
    the preset's settings."""
    ds = datagen.simulate(datagen.get_preset("diffusion_source",
                                             n_time=n_time, nx=nx), seed=0)
    settings = cli.DEFAULT_CONFIGS["diffusion_source"]
    return train.Problem(ds, train.default_model(ds.preset),
                         train.default_encoder(ds, settings),
                         alphas=settings["alphas"])


def chunk_peak_mb(prob):
    """The frames of the first chunk of a training step of `prob`, and the
    tracemalloc peak, in MB, of its loss and gradient."""
    lo, hi = prob.chunks()[0]
    tracemalloc.start()
    try:
        T.backward(prob.compute_loss(lo, hi)[0])
        return hi - lo, tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def reconstruct_peak_mb(prob):
    """The tracemalloc peak, in MB, of `prob`'s whole-interior reconstruct
    with its encoder saved and loaded back, as `eval` runs it: the loaded
    parameters take no gradient."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "encoder.ckpt"
        encoders.save_checkpoint(prob.encoder, path)
        prob.encoder = encoders.load_checkpoint(path)
    tracemalloc.start()
    try:
        prob.reconstruct()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def conv_stack_line(prob, calls, label):
    """The conv stack of `prob`'s encoder on the first window of a training
    step, forward and backward, in float32 and in float64: the median time
    of `calls` calls each, and the largest difference of the float32 value
    and weight gradients to the float64 ones, over the largest float64
    entry of each."""
    lo, hi = prob.chunks()[0]
    r = prob.encoder.radius
    x = prob.vis_t[lo - r:hi + r]
    shape = (hi - lo,) + x.shape[1:-1] + (1,)
    g = np.cos(np.arange(np.prod(shape))).reshape(shape)  # upstream grad
    results, times = [], []
    for dtype in ("float32", "float64"):
        enc = encoders.Encoder(dataclasses.replace(prob.encoder.spec,
                                                   dtype=dtype))

        def run():
            for _, p in enc.parameters():
                p.zero_grad()
            out = enc(x)
            T.backward(T.tsum(T.mul(out, g)))
            return [out.data] + [p.grad for _, p in enc.parameters()]

        results.append(run())
        times.append(median_ms(run, calls))
    diff = max(np.abs(a - b).max() / np.abs(b).max()
               for a, b in zip(*results))
    return (f"diffusion_source conv stack forward + backward, {label}, first "
            f"window of {hi - lo} frames, median ms per call of {calls}: "
            f"float32 {times[0]:.3f}, float64 {times[1]:.3f}; largest "
            f"relative difference of float32 to float64: {diff:.3g}")


def simulate_line(preset, label):
    """The median wall time of three simulations of `preset`, burn-in
    included, and the RK4 substeps per second it implies."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        datagen.simulate(preset, seed=0)
        times.append(time.perf_counter() - t0)
    t = statistics.median(times)
    n_burn = int(round(preset.burn_in / preset.dt))
    substeps = (max(n_burn - 1, 0) + preset.n_time - 1) * preset.substeps
    return (f"{label}: median of 3 {t:.3f} s, {substeps / t:.4g} RK4 "
            f"substeps/s ({substeps} substeps)")


def summary(sim_time=2500, calls=200, fit_time=300, fit_steps=1000,
            pde_time=128, pde_nx=32):
    """Yield the summary lines: `calls` calls per loss-and-gradient timing,
    a diffusion_source chunk and simulation on a `pde_time` x `pde_nx` x
    `pde_nx` field, a Lorenz simulation of `sim_time` samples, and a staged
    fit of `fit_steps` steps on `fit_time` samples before the distill."""
    ds = datagen.simulate(datagen.get_preset("lorenz", n_time=120), seed=0)
    rec = staged(ds, 10)
    yield ("staged Lorenz loss tape nodes: "
           f"{tape_nodes(rec.prob.tape_loss()[0])}")

    def grads(loss_and_grad):
        params = (rec.model.theta_t, rec.phi)
        for p in params:
            p.zero_grad()
        loss_and_grad()
        return [p.grad.copy() for p in params]

    tape = grads(lambda: T.backward(rec.prob.tape_loss()[0]))
    closed = grads(rec.loss_and_grad)
    diff = max(np.abs(c - t).max() / np.abs(t).max()
               for c, t in zip(closed, tape))
    yield ("staged Lorenz closed-form gradient, largest relative difference "
           f"to the tape: {diff:.3g}")
    closed_ms = median_ms(rec.loss_and_grad, calls)
    tape_ms = median_ms(lambda: T.backward(rec.prob.tape_loss()[0]), calls)
    yield (f"staged Lorenz loss and gradient, median ms per call of {calls}: "
           f"loss_and_grad {closed_ms:.3f}, tape (tape_loss + backward) "
           f"{tape_ms:.3f}")

    yield ("diffusion_source loss tape nodes: "
           f"{tape_nodes(pde_problem(24, 8).tape_loss()[0])}")
    prob = pde_problem(pde_time, pde_nx)
    lo, hi = prob.chunks()[0]
    closed_ms = median_ms(lambda: T.backward(prob.compute_loss(lo, hi)[0]),
                          calls)
    tape_ms = median_ms(lambda: T.backward(prob.tape_loss(lo, hi)[0]), calls)
    prob.model.mask[:, ::3] = False    # a partial mask, as sparsify leaves
    prob.model.theta[~prob.model.mask] = 0.0

    def field_grads(loss):
        params = [prob.model.theta_t] + [p for _, p in
                                         prob.encoder.parameters()]
        for p in params:
            p.zero_grad()
        T.backward(loss(lo, hi)[0])
        return [p.grad.copy() for p in params]

    closed = field_grads(prob.compute_loss)
    tape = field_grads(prob.tape_loss)
    diff = max(np.abs(c - t).max() / np.abs(t).max()
               for c, t in zip(closed, tape))
    yield ("diffusion_source closed-form gradient, first window, largest "
           f"relative difference to the tape: {diff:.3g}")
    yield (f"diffusion_source loss and gradient, {pde_time}x{pde_nx}x"
           f"{pde_nx}, first window, median ms per call of {calls}: "
           f"compute_loss {closed_ms:.3f}, tape (tape_loss) {tape_ms:.3f}")
    yield conv_stack_line(prob, calls, f"{pde_time}x{pde_nx}x{pde_nx}")
    prob = pde_problem(pde_time, pde_nx)
    frames, peak = chunk_peak_mb(prob)
    yield (f"diffusion_source chunk compute_loss + backward, {pde_time}x"
           f"{pde_nx}x{pde_nx}, first window of {frames} frames, "
           f"tracemalloc peak MB: {peak:.1f}")
    yield (f"diffusion_source eval reconstruct, encoder without gradients, "
           f"{pde_time}x{pde_nx}x{pde_nx}, tracemalloc peak MB: "
           f"{reconstruct_peak_mb(prob):.1f}")

    yield simulate_line(datagen.get_preset("lorenz", n_time=sim_time),
                        f"Lorenz simulate, {sim_time} samples")
    yield simulate_line(datagen.get_preset("diffusion_source",
                                           n_time=pde_time, nx=pde_nx),
                        f"diffusion_source simulate, {pde_time}x{pde_nx}x"
                        f"{pde_nx}")

    ds = datagen.simulate(datagen.get_preset("lorenz", n_time=fit_time),
                          seed=0)
    rec = staged(ds, fit_steps)
    t0 = time.perf_counter()
    rec.fit()
    yield (f"staged Lorenz fit, {fit_time} samples, {fit_steps} steps, "
           f"wall time without distill: {time.perf_counter() - t0:.3f} s")
    enc = recover.distill(rec, 8)
    r = enc.radius
    truth = ds.hidden_truth[r:-r, 0]
    err = [evaluate.affine_align(est, truth).rel_error[0]
           for est in (enc(T.Tensor(ds.visible)).data[:, 0],
                       rec.phi.data[r:-r, 0])]
    yield rec.events[-1]
    yield (f"distilled / embedding hidden error: {err[0]:.4g} / "
           f"{err[1]:.4g} = {err[0] / err[1]:.4f}")


if __name__ == "__main__":
    for line in summary():
        print(line, flush=True)
