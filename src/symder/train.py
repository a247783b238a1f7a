"""Joint full-batch training of the symbolic coefficients and the hidden-state
encoder.

The loss compares d^p/dt^p of the visible projection computed two ways:
symbolically (jet propagation through the candidate model, in model time
units) and numerically (central finite differences of the normalized visible
data). Each order is rescaled by the precomputed std of its finite-difference
derivative so the per-order residuals start at O(1).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from . import tensor as T
from . import fd, jets, encoders

DIVERGENCE_LIMIT = 1e6
ORDER = 2   # the loss matches time derivatives of orders 1..ORDER


class TrainingDiverged(RuntimeError):
    pass


class SeriesTooShort(ValueError):
    pass


@dataclass
class TrainConfig:
    steps: int = 1000
    lr: float = 1e-3
    sparsify_every: int = 0         # 0 disables thresholding
    theta_threshold: float = 1e-3
    divergence_limit: float = DIVERGENCE_LIMIT
    chunk_time: int = 0             # 0 = single full-batch pass per step
    seed: int = 0


class GradientOptimizer:
    """AdaBelief: Adam with the variance of (g - m) in place of that of g
    (beliefs about the gradient rather than its magnitude).

    One update runs over all parameters as one flat vector: the values
    and gradients are gathered each step, so in-place writes to a
    parameter's data between steps count, and a missing gradient is zero.
    The updated values are written back into each parameter's own array,
    so arrays that share its memory (such as `SymbolicModel.theta`) see
    them."""

    beta1, beta2, eps = 0.9, 0.999, 1e-16

    def __init__(self, params, lr):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self.bounds = np.cumsum([0] + [p.size for p in self.params])
        self.m = np.zeros(self.bounds[-1])
        self.s = np.zeros(self.bounds[-1])

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self):
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        x = np.empty_like(self.m)
        g = np.zeros_like(self.m)
        for p, lo, hi in zip(self.params, self.bounds, self.bounds[1:]):
            x[lo:hi] = p.data.reshape(-1)
            if p.grad is not None:
                g[lo:hi] = p.grad.reshape(-1)
        self.m = self.beta1 * self.m + (1 - self.beta1) * g
        d = g - self.m
        self.s = self.beta2 * self.s + (1 - self.beta2) * d * d + self.eps
        mhat = self.m / bc1
        shat = self.s / bc2
        x = x - self.lr * mhat / (np.sqrt(shat) + self.eps)
        for p, lo, hi in zip(self.params, self.bounds, self.bounds[1:]):
            p.data[...] = x[lo:hi].reshape(p.shape)


class Problem:
    """Binds one dataset to a candidate model and encoder; precomputes the
    finite-difference targets and the shared valid time interior. An ODE
    preset takes the accuracy-4 central stencils, so that the truncation
    floor sits well below the coefficient-level loss gaps of the staged
    recovery; the others take accuracy 2.

    The loss is the weighted derivative matching of the visible projection
    plus, when `beta` > 0, the hidden residual `reg`: beta times the sum over
    hidden channels of the mean squared difference between the model's F on
    the reconstructed state and the first-derivative stencil of that state,
    both in model time units. The hidden channels are those after the
    visible ones for a concatenated state, and both (re, im) for the wave."""

    def __init__(self, dataset, model, encoder, alphas=(1.0, 1.0),
                 beta=0.0):
        if len(alphas) < ORDER:
            raise ValueError(f"need {ORDER} loss weights, got {len(alphas)}")
        self.dataset = dataset
        self.model = model
        self.encoder = encoder
        self.alphas = tuple(alphas)[:ORDER]
        self.beta = beta

        vis = dataset.visible
        dt = dataset.norm.dt
        n_time = vis.shape[0]
        r = encoder.radius
        accuracy = 4 if dataset.preset.kind == "ode" else 2
        margin = max(len(fd.stencil_weights(p, dt, accuracy)) // 2
                     for p in range(1, ORDER + 1))
        lo = max(r, margin)
        hi = n_time - max(r, margin)
        # d/dt of the state in model time units, for the hidden residual
        self.d_t = fd.stencil_weights(1, 1.0, accuracy) * model.s_t
        if hi - lo < (len(self.d_t) if beta else 1):
            raise SeriesTooShort(f"series of {n_time} samples too short "
                                 "for the stencils and the encoder window")
        self.lo, self.hi = lo, hi

        # constant targets: FD_p(normalized visible) / sigma_p on [lo, hi)
        self.targets = {}
        self.deriv_scale = {}
        for p in range(1, ORDER + 1):
            d, valid = fd.time_derivative(vis, p, dt, accuracy)
            sigma = np.asarray(dataset.norm.deriv_std[p])
            self.targets[p] = d[lo - valid.start:hi - valid.start] / sigma
            # symbolic derivatives come out in model time units
            self.deriv_scale[p] = 1.0 / ((model.s_t * dt) ** p * sigma)

        self.vis_t = T.Tensor(vis)
        if model.kind == "complex":
            self.agg_kind = "modulus_phase"
            self.projection = jets.Projection("modulus")
            self.first_hidden = 0     # the phase moves both re and im
        else:
            self.agg_kind = "concat"
            self.projection = jets.Projection(
                "subset", list(range(vis.shape[-1])))
            self.first_hidden = vis.shape[-1]

    def reconstruct(self, lo=None, hi=None):
        """Full state estimate on the valid interior window [lo, hi)
        (defaults to all of it). The encoder only sees the samples its
        receptive field needs, so windows tile the series exactly."""
        lo = self.lo if lo is None else lo
        hi = self.hi if hi is None else hi
        r = self.encoder.radius
        if self.encoder.receptive_field == 1:
            hidden = self.encoder(self.vis_t)[lo:hi]
        else:
            hidden = self.encoder(self.vis_t[lo - r:hi + r])
        vis = self.vis_t[lo:hi]
        return encoders.aggregate(self.agg_kind, vis, hidden)

    def expand(self, lo=None, hi=None):
        """The state estimate on [lo, hi) and its jet through the model."""
        state = self.reconstruct(lo, hi)
        return state, jets.propagate(state, self.model, ORDER)

    def score(self, state, jet, lo=None, hi=None):
        """Loss and its parts for a state and jet from `expand(lo, hi)`."""
        lo = self.lo if lo is None else lo
        hi = self.hi if hi is None else hi
        sym = jets.visible_derivatives(jet, self.projection)
        total = None
        parts = {}
        for p in range(1, ORDER + 1):
            target = self.targets[p][lo - self.lo:hi - self.lo]
            resid = T.sub(T.mul(sym[p - 1], self.deriv_scale[p]), target)
            lp = T.tmean(T.square(resid))
            parts[f"loss_p{p}"] = lp.item()
            term = T.mul(lp, self.alphas[p - 1])
            total = term if total is None else T.add(total, term)
        parts["reg"] = 0.0
        if self.beta:
            r = len(self.d_t) // 2
            h = self.first_hidden
            hidden = state[..., h:] if h else state
            F = jet.coeffs[1][r:-r, ..., h:]
            reg = T.tmean(T.square(T.sub(
                F, fd.apply_stencil(hidden, self.d_t))))
            weight = self.beta * (self.model.state_dim - h)
            reg = reg if weight == 1.0 else T.mul(reg, weight)
            parts["reg"] = reg.item()
            total = T.add(total, reg)
        return total, parts

    def compute_loss(self, lo=None, hi=None):
        return self.score(*self.expand(lo, hi), lo, hi)

    def chunks(self, chunk_time):
        """Tile [lo, hi) into windows of chunk_time samples, each with its
        weight in the equally-weighted full-batch average. A tail shorter
        than the residual stencil joins the window before it; with `beta`
        > 0 a chunk_time below the stencil raises SeriesTooShort.

        The weighted window losses sum to the full-batch loss_p1 and
        loss_p2. They sum to its reg only at `beta` 0: each window scores
        the hidden residual on its own interior, so the samples within a
        stencil radius of a seam drop out, and each window's mean is taken
        over fewer samples than its weight assumes."""
        span = self.hi - self.lo
        if not chunk_time or chunk_time >= span:
            return [(self.lo, self.hi, 1.0)]
        n = len(self.d_t)
        if self.beta and chunk_time < n:
            raise SeriesTooShort(f"chunk_time {chunk_time} is below the "
                                 f"{n} samples of the hidden residual's "
                                 "stencil")
        cuts = list(range(self.lo, self.hi, chunk_time))
        if self.hi - cuts[-1] < n:
            cuts.pop()
        bounds = cuts + [self.hi]
        return [(a, b, (b - a) / span) for a, b in zip(bounds, bounds[1:])]


def default_model(preset, seed=0):
    """Library preset for a system kind with small seeded random starting
    coefficients (symmetry breaking; zeros also train, just slower)."""
    from . import library
    if preset.kind == "ode":
        model = library.ode_library()
    elif preset.kind == "pde":
        model = library.pde_library(dx=preset.spacing[0],
                                    dy=preset.spacing[1])
    elif preset.kind == "nlse":
        model = library.nlse_library(dx=preset.spacing[0])
    else:
        raise ValueError(f"unknown system kind {preset.kind!r}")
    # high-order stencils amplify by 1/dx^order, so the wave library needs
    # a much smaller starting point to keep the first loss finite
    init_scale = 1e-4 if preset.kind == "nlse" else 0.1
    rng = np.random.default_rng(seed)
    model.theta[...] = rng.uniform(-init_scale, init_scale, model.theta.shape)
    model.theta[~model.mask] = 0.0
    return model


def default_encoder(dataset, width=None, seed=0):
    """The joint path's encoder: conv3d for a PDE, free phases for a wave."""
    preset = dataset.preset
    n_vis = dataset.visible.shape[-1]
    if preset.kind == "pde":
        spec = encoders.pde_encoder_spec(n_visible=n_vis, width=width or 64)
    elif preset.kind == "nlse":
        spec = encoders.phase_embedding_spec(dataset.visible.shape[:-1])
    else:
        raise ValueError(f"no joint-path encoder for system kind "
                         f"{preset.kind!r}")
    return encoders.Encoder(spec, seed=seed)


def check_loss(value, step, limit=DIVERGENCE_LIMIT):
    """Raise TrainingDiverged unless the loss is finite and within limit."""
    if not np.isfinite(value) or value > limit:
        raise TrainingDiverged(
            f"loss {value:.3g} at step {step} (limit {limit:g})")


def backpropagated(forward):
    """Losses for `descend` from `forward()`, which returns a scalar loss
    Tensor and its parts: each item runs forward and backward and yields
    `(value, parts)`.

    `T.backward` frees each tape as it sweeps it, so between steps only the
    scalar loss is held. `symder train` has malloc keep the freed pages
    (`cli.keep_freed_heap`), so the next forward reuses them."""
    while True:
        total, parts = forward()
        T.backward(total)
        yield float(total.data), parts


def descend(opt, losses, steps, lr, model=None, before=None, after=None,
            limit=DIVERGENCE_LIMIT, history=None):
    """The descent loop every training phase runs.

    Each step sets `opt.lr = lr(step)`, calls `before(step)`, clears the
    gradients and takes `next(losses)`, which runs forward and backward and
    yields `(value, parts)` (see `backpropagated`). A loss that is not
    finite or exceeds `limit` raises TrainingDiverged before the optimizer
    step. After the step the coefficients of `model` (if given) are
    re-masked, `after(step, value)` runs,
    and one HISTORY_FIELDS row is appended to `history`, numbered on from
    its length. Returns `history`.
    """
    history = [] if history is None else history
    for step in range(steps):
        opt.lr = lr(step)
        if before is not None:
            before(step)
        opt.zero_grad()
        value, parts = next(losses)
        check_loss(value, step, limit)
        opt.step()
        if model is not None:
            model.theta[~model.mask] = 0.0
        if after is not None:
            after(step, value)
        history.append({
            "step": len(history), "total_loss": value,
            "loss_p1": parts.get("loss_p1", 0.0),
            "loss_p2": parts.get("loss_p2", 0.0),
            "reg": parts.get("reg", 0.0),
            "n_active_terms": model.active_terms() if model is not None else 0})
    return history


def cosine_lr(lr0, steps):
    """Learning rate for `descend` that decays from lr0 at step 0 to
    0.1 * lr0 at the last of `steps` steps along half a cosine."""
    lr1 = 0.1 * lr0

    def lr(step):
        if steps <= 1:
            return lr0
        cos = np.cos(np.pi * step / (steps - 1))
        return lr1 + (lr0 - lr1) * 0.5 * (1 + cos)
    return lr


def fit(problem, config, out_dir=None, log=None):
    """Run the training loop; returns the per-step history (list of dicts).
    Writes history.csv, model.json and encoder.ckpt under out_dir if given."""
    model, encoder = problem.model, problem.encoder
    params = [model.theta_t] + [p for _, p in encoder.parameters()]
    opt = GradientOptimizer(params, lr=config.lr)
    chunks = problem.chunks(config.chunk_time)

    def losses():
        # gradient accumulation over time windows, each tape freed by its
        # sweep. The totals of loss_p1 and loss_p2 equal one full-batch
        # pass's; reg does only at beta 0, as each window's residual drops
        # the samples at its seams (see `Problem.chunks`)
        while True:
            val, parts = 0.0, {}
            for lo, hi, w in chunks:
                total, cparts = problem.compute_loss(lo, hi)
                val += w * float(total.data)
                for k, v in cparts.items():
                    parts[k] = parts.get(k, 0.0) + w * v
                T.backward(total if w == 1.0 else T.mul(total, w))
            yield val, parts

    def after(step, val):
        if (config.sparsify_every
                and (step + 1) % config.sparsify_every == 0):
            model.sparsify(config.theta_threshold)
        if log is not None and (step % max(1, config.steps // 20) == 0
                                or step == config.steps - 1):
            log(f"step {step:6d}  loss {val:.6g}  "
                f"active {model.active_terms()}")

    history = descend(opt, losses(), config.steps, lambda step: config.lr,
                      model=model, after=after,
                      limit=config.divergence_limit)
    if out_dir is not None:
        save_run(out_dir, model, encoder, history, asdict(config))
    return history


HISTORY_FIELDS = ["step", "total_loss", "loss_p1", "loss_p2", "reg",
                  "n_active_terms"]


def write_history(path, history):
    with open(path, "w", newline="") as f:
        wtr = csv.DictWriter(f, fieldnames=HISTORY_FIELDS)
        wtr.writeheader()
        wtr.writerows(history)


def save_run(out_dir, model, encoder, history, config):
    """Write a run's artifacts: history.csv, model.json, encoder.ckpt and
    config.json, which holds the JSON document `config`."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_history(out_dir / "history.csv", history)
    (out_dir / "model.json").write_text(model.to_json())
    (out_dir / "config.json").write_text(json.dumps(config, indent=1))
    encoders.save_checkpoint(encoder, out_dir / "encoder.ckpt")


def load_history(path):
    with open(path, newline="") as f:
        rows = []
        for row in csv.DictReader(f):
            rows.append({k: (int(v) if k in ("step", "n_active_terms")
                             else float(v)) for k, v in row.items()})
    return rows
