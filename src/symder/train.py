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
from pathlib import Path

import numpy as np

from . import tensor as T
from . import fd, jets, encoders

DIVERGENCE_LIMIT = 1e6
ORDER = 2   # the loss matches time derivatives of orders 1..ORDER
# grid points per window of a joint step; its peak memory follows them
CHUNK_POINTS = 8192


class TrainingDiverged(RuntimeError):
    pass


class SeriesTooShort(ValueError):
    pass


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
    both in model time units. The hidden channels follow the observed ones
    (the preset's `visible`) for a list of them, and are both (re, im) for
    the wave's "modulus"."""

    def __init__(self, dataset, model, encoder, alphas=(1.0, 1.0),
                 beta=0.0):
        if len(alphas) != ORDER:
            raise ValueError(f"need {ORDER} loss weights, got {len(alphas)}")
        self.dataset = dataset
        self.model = model
        self.encoder = encoder
        self.observed = dataset.preset.visible
        self.alphas = tuple(alphas)
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
        # a derivative of one value per channel has no spread to scale by
        scaled = all(p in dataset.norm.deriv_std for p in range(1, ORDER + 1))
        if hi - lo < (len(self.d_t) if beta else 1) or not scaled:
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
        return encoders.aggregate(self.observed, vis, hidden)

    def compute_loss(self, lo=None, hi=None):
        """Loss and its parts on the window [lo, hi) of the interior
        (defaults to all of it). Each part is the window's sum divided by
        the full batch's count, so the parts of windows that tile the
        interior add up to the full batch's. With `beta` > 0 the state is
        rebuilt up to a stencil radius beyond the window, inside the
        interior, so the window scores `reg` at exactly its samples among
        those the full batch scores, if any."""
        lo = self.lo if lo is None else lo
        hi = self.hi if hi is None else hi
        r = len(self.d_t) // 2 if self.beta else 0
        a, b = max(lo - r, self.lo), min(hi + r, self.hi)
        state = self.reconstruct(a, b)
        jet = jets.propagate(state, self.model, ORDER)
        sym = jets.visible_derivatives(jet, self.observed)
        if (a, b) != (lo, hi):
            sym = [d[lo - a:hi - a] for d in sym]
        total = None
        parts = {}
        for p in range(1, ORDER + 1):
            target = self.targets[p][lo - self.lo:hi - self.lo]
            resid = T.sub(T.mul(sym[p - 1], self.deriv_scale[p]), target)
            lp = T.tmean(T.square(resid), self.targets[p].size)
            parts[f"loss_p{p}"] = lp.item()
            term = T.mul(lp, self.alphas[p - 1])
            total = term if total is None else T.add(total, term)
        parts["reg"] = 0.0
        if self.beta and b - a > 2 * r:
            h = 0 if self.observed == "modulus" else len(self.observed)
            hidden = state[..., h:] if h else state
            F = jet.coeffs[1][r:-r, ..., h:]
            count = (self.hi - self.lo - 2 * r) * (F.size // F.shape[0])
            reg = T.tmean(T.square(T.sub(
                F, fd.apply_stencil(hidden, self.d_t))), count)
            weight = self.beta * (self.model.state_dim - h)
            reg = reg if weight == 1.0 else T.mul(reg, weight)
            parts["reg"] = reg.item()
            total = T.add(total, reg)
        return total, parts

    def chunks(self):
        """Tile the interior [lo, hi) into windows [a, b) of CHUNK_POINTS
        grid points, in whole frames, one frame at least; the last window
        takes what is left."""
        frame = int(np.prod(self.dataset.visible.shape[1:-1]))
        cuts = list(range(self.lo, self.hi, max(1, CHUNK_POINTS // frame)))
        cuts.append(self.hi)
        return list(zip(cuts, cuts[1:]))


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


def default_encoder(dataset, settings, seed=0):
    """The joint path's encoder: conv3d of the run settings' `width` for a
    PDE, free phases for a wave."""
    preset = dataset.preset
    if preset.kind == "pde":
        spec = encoders.pde_encoder_spec(dataset.visible.shape[-1],
                                         settings["width"])
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


def descend(opt, losses, steps, lr, model=None, before=None, after=None,
            limit=DIVERGENCE_LIMIT, history=None):
    """The descent loop every training phase runs.

    Each step sets `opt.lr = lr(step)`, calls `before(step)`, clears the
    gradients and takes `next(losses)`, which writes the gradients of the
    optimizer's parameters and yields `(value, parts)`. A loss that is not
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


def fit(problem, settings, out_dir=None, log=None):
    """Run the training loop under a joint-path preset's run `settings`
    (`cli.DEFAULT_CONFIGS`); returns the per-step history (list of dicts).
    Writes history.csv, model.json, encoder.ckpt and config.json, which
    records `settings` whole, under out_dir if given."""
    model, encoder = problem.model, problem.encoder
    params = [model.theta_t] + [p for _, p in encoder.parameters()]
    opt = GradientOptimizer(params, lr=settings["lr"])
    steps, every = settings["steps"], settings["sparsify_every"]

    def losses():
        # gradient accumulation over time windows, each tape freed by its
        # sweep; the windows' losses and parts sum to one full-batch pass's
        # (see `Problem.compute_loss`)
        while True:
            val, parts = 0.0, {}
            for lo, hi in problem.chunks():
                total, cparts = problem.compute_loss(lo, hi)
                val += float(total.data)
                for k, v in cparts.items():
                    parts[k] = parts.get(k, 0.0) + v
                T.backward(total)
            yield val, parts

    def after(step, val):
        if every and (step + 1) % every == 0:
            model.sparsify(settings["theta_threshold"])
        if log is not None and (step % max(1, steps // 20) == 0
                                or step == steps - 1):
            log(f"step {step:6d}  loss {val:.6g}  "
                f"active {model.active_terms()}")

    history = descend(opt, losses(), steps, lambda step: settings["lr"],
                      model=model, after=after,
                      limit=settings["divergence_limit"])
    if out_dir is not None:
        save_run(out_dir, problem.dataset, model, encoder, history, settings)
    return history


HISTORY_FIELDS = ["step", "total_loss", "loss_p1", "loss_p2", "reg",
                  "n_active_terms"]


def write_history(path, history):
    with open(path, "w", newline="") as f:
        wtr = csv.DictWriter(f, fieldnames=HISTORY_FIELDS)
        wtr.writeheader()
        wtr.writerows(history)


def save_run(out_dir, dataset, model, encoder, history, config):
    """Write a run's artifacts: history.csv, model.json, encoder.ckpt and
    config.json, which holds the JSON document `config` after the name of
    the dataset's preset (`preset`) and its seed (`data_seed`)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_history(out_dir / "history.csv", history)
    (out_dir / "model.json").write_text(model.to_json())
    record = {"preset": dataset.preset.name, "data_seed": dataset.seed}
    (out_dir / "config.json").write_text(
        json.dumps({**record, **config}, indent=1))
    encoders.save_checkpoint(encoder, out_dir / "encoder.ckpt")


def load_history(path):
    with open(path, newline="") as f:
        rows = []
        for row in csv.DictReader(f):
            rows.append({k: (int(v) if k in ("step", "n_active_terms")
                             else float(v)) for k, v in row.items()})
    return rows
