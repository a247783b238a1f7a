"""Correctness checks that the benchmark computes apart from the program.

Each check returns a list of failure messages (empty when it passes). The
dataset checks read the on-disk format directly and compare with the
governing equations; the run checks read the artifacts `symder train` and
`symder eval` write. Only `gradient_check` and `hidden_estimate` call into
the program: the first to obtain the tape's gradient that it verifies, the
second to obtain the saved encoder's output that the alignment is fitted to.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

# Lorenz constants, stated here rather than read from the program
SIGMA, RHO, BETA = 10.0, 28.0, 8.0 / 3.0
# diffusion_source decay rate of the hidden source
DECAY_K = 0.5

# Bound on a lorenz_staged run at its budget, fixed before any measured run
SIGMA_TOLERANCE = 0.5        # |recovered coefficient -+ sigma| on u and v

# report.json against the benchmark's own least-squares fit
ALIGN_RTOL = 1e-6
# tape gradient against a central difference
GRAD_RTOL = 1e-5
GRAD_STEP = 1e-6


def read_dataset(path):
    """(visible, hidden, meta) from a dataset directory: meta.json plus raw
    little-endian f64 arrays in (t, x, y, component) order."""
    path = Path(path)
    meta = json.loads((path / "meta.json").read_text())
    vis = np.fromfile(path / "visible.f64", dtype="<f8").reshape(
        meta["visible_shape"])
    hid = np.fromfile(path / "hidden.f64", dtype="<f8").reshape(
        meta["hidden_shape"])
    return vis, hid, meta


def lorenz_trajectory(data_dir):
    """The stored trajectory (x, y visible, z hidden) satisfies the Lorenz
    right-hand side within the truncation error of a fourth-order central
    difference, -h^4/30 x^(5), with x^(5) estimated from the data."""
    vis, hid, meta = read_dataset(data_dir)
    h = meta["grid"]["dt"]
    x = np.concatenate([vis, hid], axis=-1)
    n = x.shape[0]
    if n < 7:
        return [f"lorenz: series of {n} samples is too short to check"]
    c = slice(3, n - 3)
    d1 = (x[1:n - 5] - 8 * x[2:n - 4] + 8 * x[4:n - 2] - x[5:n - 1]) / (12 * h)
    d5 = (-x[0:n - 6] + 4 * x[1:n - 5] - 5 * x[2:n - 4] + 5 * x[4:n - 2]
          - 4 * x[5:n - 1] + x[6:n]) / (2 * h ** 5)
    u, v, w = x[c, 0], x[c, 1], x[c, 2]
    f = np.stack([SIGMA * (v - u), u * (RHO - w) - v, u * v - BETA * w],
                 axis=-1)
    err = np.abs(d1 - f).max(axis=0)
    bound = 2.0 * h ** 4 / 30.0 * np.abs(d5).max(axis=0) + 1e-9
    return [f"lorenz: component {j} deviates from the right-hand side by "
            f"{err[j]:.3g}, truncation bound {bound[j]:.3g}"
            for j in range(3) if not err[j] <= bound[j]]


def diffusion_means(data_dir):
    """Periodic diffusion with a source: the spatial mean of v decays as
    exp(-k t), and d/dt mean(u) = mean(v), so mean(u) grows by
    mean(v)(0) (1 - exp(-k t)) / k. Both hold exactly for the discrete
    periodic Laplacian; RK4 adds ~1e-15 per step."""
    vis, hid, meta = read_dataset(data_dir)
    t = np.arange(vis.shape[0]) * meta["grid"]["dt"]
    mu = vis[..., 0].mean(axis=(1, 2))
    mv = hid[..., 0].mean(axis=(1, 2))
    decay = np.exp(-DECAY_K * t)
    out = []
    ev = np.abs(mv - mv[0] * decay).max() / abs(mv[0])
    if not ev <= 1e-9:
        out.append(f"diffusion: mean(v) departs from exp(-k t) by {ev:.3g}")
    eu = np.abs(mu - mu[0] - mv[0] * (1 - decay) / DECAY_K).max() / abs(mu[0])
    if not eu <= 1e-9:
        out.append(f"diffusion: mean(u) departs from its integral by {eu:.3g}")
    return out


def history(run_dir, steps):
    """history.csv has exactly `steps` rows, every value is finite, and the
    last loss is below the first."""
    with open(Path(run_dir) / "history.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    if len(rows) != steps:
        return [f"history: {len(rows)} rows, budget {steps}"]
    bad = [(i, k) for i, r in enumerate(rows) for k, v in r.items()
           if not math.isfinite(float(v))]
    if bad:
        return [f"history: non-finite value at row {bad[0][0]} {bad[0][1]}"]
    first, last = float(rows[0]["total_loss"]), float(rows[-1]["total_loss"])
    if not last < first:
        return [f"history: last loss {last:.6g} not below first {first:.6g}"]
    return []


def gradient_check(problem, n_coeffs=3):
    """The tape's gradient of the first training loss agrees with a central
    difference for a few active coefficients. `problem` is what `symder
    train` hands its descent: an `EmbeddingRecovery` on the staged path, or
    a `train.Problem`, whose loss is taken on the first eight samples of
    the interior, one window of a chunked step."""
    from symder import recover
    from symder import tensor as T
    if isinstance(problem, recover.EmbeddingRecovery):
        def loss_fn():
            return problem.loss_fn()[0]
    else:
        hi = min(problem.hi, problem.lo + 8)

        def loss_fn():
            return problem.compute_loss(problem.lo, hi)[0]
    model = problem.model
    th = model.theta_t
    th.grad = None
    T.backward(loss_fn())
    grad = th.grad.copy()
    active = np.flatnonzero(model.mask)
    picks = active[np.linspace(0, active.size - 1, n_coeffs).astype(int)]
    out = []
    for flat in picks:
        idx = np.unravel_index(flat, th.data.shape)
        base = th.data[idx]
        h = GRAD_STEP * max(1.0, abs(base))
        th.data[idx] = base + h
        up = float(loss_fn().data)
        th.data[idx] = base - h
        down = float(loss_fn().data)
        th.data[idx] = base
        fd = (up - down) / (2 * h)
        if not abs(fd - grad[idx]) <= GRAD_RTOL * max(abs(fd), 1e-3):
            out.append(f"gradient: theta{list(idx)} tape {grad[idx]:.9g} "
                       f"central difference {fd:.9g}")
    return out


def hidden_estimate(data_dir, run_dir):
    """(estimate, truth) on the interior `symder eval` scores: the saved
    encoder applied to the normalized visible data, and the stored truth."""
    from symder import encoders
    from symder import tensor as T
    vis, hid, meta = read_dataset(data_dir)
    nrm = meta["normalization"]
    vis = (vis - np.asarray(nrm["mean"])) / np.asarray(nrm["std"])
    enc = encoders.load_checkpoint(Path(run_dir) / "encoder.ckpt")
    r = enc.radius
    lo = max(r, 1)          # first-derivative stencil margin is one sample
    hi = vis.shape[0] - lo
    if enc.receptive_field == 1:
        est = enc(T.Tensor(vis)).data[lo:hi]
    else:
        est = enc(T.Tensor(vis[lo - r:hi + r])).data
    return est.reshape(-1), hid[lo:hi].reshape(-1)


def alignment(data_dir, run_dir, quality):
    """(failures, hidden error): a plain least-squares fit of a*estimate + b
    to the truth agrees with report.json, and with `quality` the visible
    equation reads du/dt = -sigma u + sigma v within SIGMA_TOLERANCE.

    The aligned error itself is returned, not bounded: on about one seed in
    eight the staged recovery at the workload's budget ends above 0.15, up
    to no better than a constant guess (std(z)/range(z), about 0.21), so a
    bound on it would fail some seeds and pass others (README.md)."""
    est, truth = hidden_estimate(data_dir, run_dir)
    A = np.stack([est, np.ones_like(est)], axis=1)
    (a, b), *_ = np.linalg.lstsq(A, truth, rcond=None)
    err = math.sqrt(np.mean((a * est + b - truth) ** 2)) / np.ptp(truth)
    doc = json.loads((Path(run_dir) / "report.json").read_text())
    out = []
    for name, mine, theirs in (("a", a, doc["hidden"]["a"][0]),
                               ("b", b, doc["hidden"]["b"][0]),
                               ("rel_error", err,
                                doc["hidden"]["rel_error"][0])):
        if not abs(mine - theirs) <= ALIGN_RTOL * max(abs(mine), 1e-9):
            out.append(f"alignment: {name} {mine:.9g} here, {theirs:.9g} "
                       f"in report.json")
    if quality:
        eq = doc["equations"].get("0", {})
        for term, want in (("u", -SIGMA), ("v", SIGMA)):
            got = eq.get(term, 0.0)
            if not abs(got - want) <= SIGMA_TOLERANCE:
                out.append(f"equation: du/dt coefficient on {term} is "
                           f"{got:.4g}, expected {want:g}")
    return out, err
