"""Joint full-batch training of the symbolic coefficients and the hidden-state
encoder.

The loss compares d^p/dt^p of the visible projection computed two ways:
symbolically, through the candidate model in model time units, and
numerically, by central finite differences of the normalized visible data.
Each order is rescaled by the precomputed std of its finite-difference
derivative so the per-order residuals start at O(1).

Every real-kind model whose terms are monomials of degree 2 or less and
spatial derivatives, the ODE presets' and the fields', takes the loss and
its gradients in closed form, in plain numpy, from `FieldLoss` alone: the
joint path as one tape node beside the encoder's, the staged recovery from
its numpy core. The wave's model (nlse) takes them on the tape through the
jets (`Problem.tape_loss`), which stays the reference the closed form is
tested against.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from . import tensor as T
from . import fd, jets, encoders, library

DIVERGENCE_LIMIT = 1e6
ORDER = 2   # the loss matches time derivatives of orders 1..ORDER
# grid points per window a `Problem` tiles the interior into, for a joint
# step's loss and for the encoder alike; their peak memory follows them
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
        self.field_loss = (FieldLoss(self) if FieldLoss.takes(
            model, self.observed, vis.shape[1:-1]) else None)

    def _window(self, lo=None, hi=None):
        """The window [lo, hi) of the interior, all of it by default; one
        that is empty or leaves the interior raises ValueError."""
        lo = self.lo if lo is None else lo
        hi = self.hi if hi is None else hi
        if not self.lo <= lo < hi <= self.hi:
            raise ValueError(f"window [{lo}, {hi}) is not a window of the "
                             f"interior [{self.lo}, {self.hi})")
        return lo, hi

    def _encode(self, lo, hi):
        """The encoder's hidden estimate on the interior window [lo, hi),
        a conv encoder's taken one window of `chunks(lo, hi)` at a time. It
        only sees the samples its receptive field needs, so the windows'
        pieces are those of one call on all of [lo, hi)."""
        r = self.encoder.radius
        if self.encoder.receptive_field == 1:
            return self.encoder(self.vis_t)[lo:hi]
        pieces = [self.encoder(self.vis_t[a - r:b + r])
                  for a, b in self.chunks(lo, hi)]
        return T.concat(pieces) if len(pieces) > 1 else pieces[0]

    def reconstruct(self, lo=None, hi=None):
        """Full state estimate on the valid interior window [lo, hi)
        (defaults to all of it)."""
        lo, hi = self._window(lo, hi)
        return encoders.aggregate(self.observed, self.vis_t[lo:hi],
                                  self._encode(lo, hi))

    def _state_window(self, lo, hi):
        """The window [a, b) the state of the window [lo, hi) is rebuilt
        on: with `beta` > 0, up to a stencil radius beyond it, inside the
        interior."""
        r = len(self.d_t) // 2 if self.beta else 0
        return max(lo - r, self.lo), min(hi + r, self.hi)

    def compute_loss(self, lo=None, hi=None):
        """Loss and its parts on the window [lo, hi) of the interior
        (defaults to all of it). Each part is the window's sum divided by
        the full batch's count, so the parts of windows that tile the
        interior add up to the full batch's. With `beta` > 0 the state is
        rebuilt up to a stencil radius beyond the window, inside the
        interior, so the window scores `reg` at exactly its samples among
        those the full batch scores, if any.

        A model `FieldLoss` takes has the loss in closed form, as one tape
        node whose parents are the encoder's output and theta; the wave's,
        of the complex kind, takes it on the tape, from `tape_loss`."""
        lo, hi = self._window(lo, hi)
        if self.field_loss is not None:
            return self.field_loss(lo, hi)
        return self.tape_loss(lo, hi)

    def tape_loss(self, lo=None, hi=None):
        """`compute_loss` on the tape, through the jets of the model: the
        loss of the models `FieldLoss` does not take, and the reference the
        tests hold the closed form to."""
        lo, hi = self._window(lo, hi)
        a, b = self._state_window(lo, hi)
        r = len(self.d_t) // 2 if self.beta else 0
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

    def chunks(self, lo=None, hi=None):
        """Tile the window [lo, hi) of the interior, all of it by default
        (a joint step's windows), into windows [a, b) of CHUNK_POINTS grid
        points, in whole frames, one frame at least; the last window takes
        what is left."""
        lo, hi = self._window(lo, hi)
        frame = int(np.prod(self.dataset.visible.shape[1:-1]))
        cuts = list(range(lo, hi, max(1, CHUNK_POINTS // frame)))
        cuts.append(hi)
        return list(zip(cuts, cuts[1:]))


def _patch_rows(fields, fshape, radius, out):
    """Write out[c, i] = field c shifted by the i-th offset of the box
    -radius..radius along each spatial axis, in C order, periodically:
    one wrap-padded copy of each field of `fields` (rows of N points, each
    a field of shape `fshape`, time first) and one window of it per
    offset. out is (fields, offsets, N). The copy is padded axis by axis
    from its own slices: about four times faster than `np.pad`'s wrap mode
    on an 8x32x32 window."""
    space = fshape[1:]
    for field, rows in zip(fields, out):
        padded = np.empty(fshape[:1] + tuple(n + 2 * radius for n in space))
        padded[(slice(None),) + tuple(slice(radius, radius + n)
                                      for n in space)] = field.reshape(fshape)
        for ax, n in enumerate(space, 1):
            pre = (slice(None),) * ax
            padded[pre + (slice(0, radius),)] = \
                padded[pre + (slice(n, n + radius),)]
            padded[pre + (slice(n + radius, n + 2 * radius),)] = \
                padded[pre + (slice(radius, 2 * radius),)]
        for row, off in zip(rows, np.ndindex(*[2 * radius + 1] * len(space))):
            row.reshape(fshape)[...] = padded[(slice(None),) + tuple(
                slice(o, o + n) for o, n in zip(off, space))]


class FieldLoss:
    """`Problem.compute_loss` in closed form, off the tape, for every model
    of the real kind whose observed channels are the first h of its n and
    whose terms are monomials of degree 2 or less or `SpatialDerivative`s.

    Over the window's N scored points x = [1, state] is (D, N), channels
    first, and equation j is

        F_j = x^T P_j x / 2 + sum_i theta[j, i] D_i x[c_i],

    the quadratic form of its monomials (`library.QuadraticForms`) plus its
    derivative terms. Each D_i is a fixed periodic stencil of component c_i
    (`SpatialDerivative.kernel`), so an equation's derivative terms on one
    field are one combined stencil, the theta-weighted sum of their
    kernels, applied as one product with the field's patch rows: its shifts
    by the stencils' offsets, taken from one wrap-padded copy of it. Along
    F the second time derivative of a visible equation is the form's
    derivative along F plus its combined stencils on the fields of F. The
    backward pass runs the same steps back, each stencil's adjoint as the
    combined stencil mirrored, on the patch rows of the gradient; a model
    without derivative terms (an ODE's) takes no stencil step.

    `evaluate` is the numpy core, which the staged recovery calls on its
    embedding. A call returns its loss as one tape node whose parents are
    the encoder's output and `theta_t`; it keeps their two gradients only,
    so every array of the call is free again before the encoder's backward
    sweep, the peak of a training step."""

    @staticmethod
    def takes(model, observed, space):
        """Whether the closed form covers `model` with the `observed`
        channels on a grid of extent `space` (none for an ODE)."""
        return (model.kind == "real" and observed != "modulus"
                and list(observed) == list(range(len(observed)))
                and all(isinstance(t, library.SpatialDerivative)
                        or (isinstance(t, library.Monomial)
                            and sum(t.exponents) <= 2)
                        for t in model.terms)
                and min(space, default=0) >= _radius(model.terms))

    def __init__(self, problem):
        self.prob = problem
        model = problem.model
        self.space = problem.dataset.visible.shape[1:-1]
        self.frame = int(np.prod(self.space))
        self.h = len(problem.observed)
        self.forms = library.QuadraticForms(model.terms, model.state_dim)
        self.derivs = np.array([i for i, t in enumerate(model.terms)
                                if isinstance(t, library.SpatialDerivative)],
                               dtype=int)
        self.comp = np.array([model.terms[i].component for i in self.derivs],
                             dtype=int)
        self.radius = _radius(model.terms)
        # each term's weights over the offsets of `_patch_rows`; the
        # offsets mirror each other in reverse order
        geom = model.geometry()
        offsets = (2 * self.radius + 1) ** len(self.space)
        self.weights = np.array([
            model.terms[i].kernel(geom, len(self.space), self.radius).ravel()
            for i in self.derivs]).reshape(len(self.derivs), offsets)

    def __call__(self, lo, hi):
        prob = self.prob
        a, b = prob._state_window(lo, hi)
        # the gradient in the encoder's output outlives the call. Taken
        # before the encoder's arrays and the call's, it leaves the heap
        # they free in one piece for the encoder's backward sweep
        gH = np.zeros((b - a,) + self.space
                      + (prob.model.state_dim - self.h,))
        hidden = prob._encode(a, b)
        H = hidden.data.reshape((b - a,) + self.space + (-1,))
        if H.shape != gH.shape:
            raise ValueError(f"state has {self.h + H.shape[-1]} components, "
                             f"model expects {prob.model.state_dim}")
        value, parts, gth = self.evaluate(H, lo, hi, gH)

        def vjp_hidden(g):
            gH[...] *= g
            return gH.reshape(hidden.shape)

        total = T.Tensor(value, _parents=(
            (hidden, vjp_hidden), (prob.model.theta_t, lambda g: g * gth)),
            _op="field_loss")
        return total, parts

    def evaluate(self, H, lo, hi, gH):
        """The loss on the window [lo, hi) of the interior from the hidden
        fields H on the window [a, b) `Problem._state_window` rebuilds the
        state on, shaped (b - a,) + space + (hidden channels,). Returns the
        value, the parts and the gradient in theta, and adds the gradient
        in H to gH, an array of H's shape."""
        prob, model = self.prob, self.prob.model
        h, n = self.h, model.state_dim
        a, b = prob._state_window(lo, hi)
        th = model.theta * model.mask
        m, N = self.weights.shape[1], (hi - lo) * self.frame
        fshape = (hi - lo,) + self.space
        x = np.empty((n + 1, N))
        x[0] = 1.0
        x[1:h + 1] = prob.dataset.visible[lo:hi].reshape(N, h).T
        x[h + 1:] = H[lo - a:hi - a].reshape(N, n - h).T

        # F, and the second derivative along F of the visible equations
        P, Y, F = self.forms.forward(th, x)
        if self.derivs.size:
            # W[j, c] is equation j's combined stencil on field c, over the
            # offsets; W.reshape(n, n * m) @ patch rows applies them all
            W = np.zeros((n, n, m))
            for c in range(n):
                sel = self.comp == c
                W[:, c] = th[:, self.derivs[sel]] @ self.weights[sel]
            xp, fp = np.empty((n, m, N)), np.empty((n, m, N))
            _patch_rows(x[1:], fshape, self.radius, xp)
            F += W.reshape(n, n * m) @ xp.reshape(n * m, N)
            _patch_rows(F, fshape, self.radius, fp)
        sym2 = self.forms.along(Y, F, h)
        if self.derivs.size:
            sym2 += W[:h].reshape(h, n * m) @ fp.reshape(n * m, N)
        s1, s2 = (prob.deriv_scale[p][:, None] for p in (1, 2))
        t1, t2 = (prob.targets[p][lo - prob.lo:hi - prob.lo].reshape(N, h).T
                  for p in (1, 2))
        r1 = F[:h] * s1 - t1
        r2 = sym2 * s2 - t2
        c1, c2 = prob.targets[1].size, prob.targets[2].size
        parts = {"loss_p1": float(r1.ravel() @ r1.ravel()) / c1,
                 "loss_p2": float(r2.ravel() @ r2.ravel()) / c2,
                 "reg": 0.0}
        # the hidden residual on [a + r, b - r), inside [lo, hi). A series
        # of one value a sample takes its stencil as one convolution, three
        # times faster than the loop over the taps at 2500 samples
        r = len(prob.d_t) // 2 if prob.beta else 0
        scored = prob.beta and b - a > 2 * r
        single = H[0].size == 1
        if scored:
            nout = b - a - 2 * r
            dH = (np.convolve(H.ravel(), prob.d_t[::-1], "valid") if single
                  else sum(wk * H[i:i + nout] for i, wk in
                           enumerate(prob.d_t) if wk != 0.0))
            c0 = (a + r - lo) * self.frame
            e = F[h:, c0:c0 + nout * self.frame] - dH.reshape(-1, n - h).T
            count = (prob.hi - prob.lo - 2 * r) * self.frame * (n - h)
            weight = prob.beta * (n - h)
            parts["reg"] = weight * float(e.ravel() @ e.ravel()) / count
        value = (prob.alphas[0] * parts["loss_p1"]
                 + prob.alphas[1] * parts["loss_p2"] + parts["reg"])

        # gradients in F, and in W, as in the stencils' weights
        g2 = (2.0 * prob.alphas[1] / c2) * r2 * s2
        gF = self.forms.along_vjp(Y, g2)
        gF[:h] += (2.0 * prob.alphas[0] / c1) * r1 * s1
        if scored:
            ge = (2.0 * weight / count) * e
            gF[h:, c0:c0 + ge.shape[1]] += ge
        if self.derivs.size:
            Wt = W[:, :, ::-1].transpose(1, 0, 2)    # the adjoints
            gW = np.zeros((n, n, m))
            gW[:h] = (g2 @ fp.reshape(n * m, N).T).reshape(h, n, m)
            gp = fp[:h]
            _patch_rows(g2, fshape, self.radius, gp)
            gF += Wt[:, :h].reshape(n, h * m) @ gp.reshape(h * m, N)
            gW += (gF @ xp.reshape(n * m, N).T).reshape(n, n, m)
        # and in theta and the hidden fields
        gY, gth = self.forms.backward(x, gF, g2, F)
        gx = np.array([self.forms.row_grad(P, Y, gY, gF, 1 + c)
                       for c in range(h, n)])
        if self.derivs.size:
            for c in range(n):
                sel = self.comp == c
                gth[:, self.derivs[sel]] += gW[:, c] @ self.weights[sel].T
            _patch_rows(gF, fshape, self.radius, xp)
            gx += Wt[h:].reshape(n - h, n * m) @ xp.reshape(n * m, N)
        gth *= model.mask
        gH[lo - a:hi - a] += gx.T.reshape(fshape + (n - h,))
        if scored and single:
            gH -= np.convolve(ge.ravel(), prob.d_t, "full").reshape(gH.shape)
        elif scored:
            ge = ge.T.reshape((nout,) + self.space + (n - h,))
            for i, wk in enumerate(prob.d_t):
                if wk != 0.0:
                    gH[i:i + nout] -= wk * ge
        return value, parts, gth


def _radius(terms):
    """The largest half-width of the spatial stencils of `terms`."""
    return max((len(fd.stencil_weights(o, 1.0)) // 2
                for t in terms if isinstance(t, library.SpatialDerivative)
                for o in t.orders if o), default=0)


def default_model(preset, seed=0):
    """Library preset for a system kind with small seeded random starting
    coefficients (symmetry breaking; zeros also train, just slower)."""
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
