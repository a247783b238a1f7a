"""Staged equation discovery for ODE systems with one hidden channel.

Joint training of a windowed convolutional encoder has a strong spurious
attractor: the reconstructed hidden channel collapses onto a smooth function
of the visible window and the coefficient table absorbs the error, so the
loss plateaus far above the attainable floor.  This module sidesteps that
basin with a staged procedure built around a *free per-sample embedding*
(one trainable value per time step) instead of a parametric encoder:

1. warmup      joint gradient descent of (embedding, dense coefficients)
               under a derivative-matching loss that also penalises
               disagreement between the hidden equation and the finite-
               difference derivative of the embedding itself: the loss is
               `train.Problem`'s, with its hidden residual at weight 1.
2. gauge       an unobserved channel is only identified up to an affine
               (and, before the support is fixed, linear-mixing) change of
               variables.  The gauge is removed in closed form: the
               embedding is orthogonalised / re-standardised and
               `library.change_variables` applies the same substitution to
               the coefficient table, so the derivative-matching losses
               (`loss_p1`, `loss_p2`) do not move.  That needs the mask to
               hold every term the substitution creates: re-standardising
               shifts w only when the mask holds the lower-degree terms
               under each active one, and otherwise rescales it alone;
               orthogonalising mixes the visible channels into w, so it runs
               on the full mask only.  The hidden residual `reg` is measured
               in units of w and divides by sd^2 when w is rescaled by 1/sd.
               Re-standardising periodically during descent ("gauge
               pinning") blocks the scale-collapse degeneracy.
3. regression  STLSQ on finite differences of the reconstructed state
               proposes a support.  Constant and linear terms are exempt
               from thresholding: with one channel unobserved, alternative
               realizations that trade a linear term for an extra nonlinear
               one can fit the visible data at the same loss, so linear
               terms must stay available until elimination decides.
4. elimination greedy loss-gated backward elimination, nonlinear terms
               first, then linear terms.  Spurious nonlinear carriers of a
               warped hidden state are prunable at the loss floor, while
               removing a true nonlinear term costs orders of magnitude;
               once the carriers are gone the remaining linear terms are
               loss-protected too.  Phase order is what makes ties between
               equal-loss realizations resolve toward the lower-complexity
               (fewer nonlinear terms) model.
5. polish      cosine-decayed descent on the final support.

Every descent step takes the loss and its gradients from
`EmbeddingRecovery.loss_and_grad`, which calls the numpy core of the
problem's closed-form loss (`train.FieldLoss`) on the embedding and builds
no tape; a library that loss does not take (any term but a monomial of
degree 2 or less) is refused when the recovery is built. `loss_fn` returns
the same loss as one tape node; the tests hold both to the problem's tape
reference, `train.Problem.tape_loss`.

`fit` leaves the trained model and the embedding encoder on the recovery;
`distill` fits a conv encoder to the embedding for deployment-style
reconstruction, by Levenberg-Marquardt on normal equations built in closed
form.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import encoders, fd, library
from . import train as training


class Schedule(NamedTuple):
    """Descent steps per phase of the staged recovery."""
    warmup_steps: int
    gauge_rounds: int
    round_steps: int
    baseline_steps: int
    polish_steps: int


# a budget below FULL_BUDGET is split in the proportions of REDUCED and runs
# no elimination; from FULL_BUDGET on, in those of FULL, with elimination
FULL_BUDGET = 20000
REDUCED = Schedule(4000, 2, 1000, 1000, 3000)
FULL = Schedule(6000, 3, 1500, 2000, 8000)
TRIAL_STEPS = 3000       # descent steps of one elimination trial
PIN_EVERY = 200          # descent re-standardizes w every PIN_EVERY steps
STLSQ_THRESHOLD = 0.05   # STLSQ drops nonlinear terms below this
GATE = 1.5               # accept a pruning if its loss <= GATE * baseline
# damped Gauss-Newton solves of `distill`, on top of the descent budget, and
# the time samples per block of the Jacobian it builds its normal equations from
DISTILL_SOLVES = 60
DISTILL_BLOCK = 128


@dataclass(frozen=True)
class RecoveryConfig:
    """A staged recovery with a total descent budget of `steps`, split over
    warmup, gauge rounds, baseline and polish in the proportions of the
    schedule the budget picks; polish takes the integer remainder.
    Elimination trials take data-dependent steps on top of the budget."""
    steps: int
    lr: float                  # warmup runs at lr / 2
    seed: int = 0

    @property
    def eliminate(self):
        return self.steps >= FULL_BUDGET

    @property
    def schedule(self):
        w, rounds, r, b, p = FULL if self.eliminate else REDUCED
        total = w + rounds * r + b + p
        w, r, b = (self.steps * n // total for n in (w, r, b))
        return Schedule(w, rounds, r, b, self.steps - w - rounds * r - b)


class EmbeddingRecovery:
    """One hidden channel, quadratic (or lower) monomial library, uniform dt."""

    def __init__(self, ds, model, config: RecoveryConfig):
        self.ds = ds
        self.model = model
        self.cfg = config
        self.n_vis = ds.visible.shape[-1]
        if model.state_dim != self.n_vis + 1:
            raise ValueError("recovery pipeline expects exactly one hidden channel")
        self.n_time = ds.visible.shape[0]
        self.dt = ds.norm.dt
        self.vis = ds.visible
        self.names = [t.name for t in model.terms]

        spec = encoders.EncoderSpec(kind="phase_embedding", shape=(self.n_time, 1))
        self.emb = encoders.Encoder(spec, seed=self.cfg.seed)
        self.phi = self.emb.params["phi"]
        rng = np.random.default_rng(self.cfg.seed)
        self.phi.data[...] = rng.normal(0.0, 0.1, (self.n_time, 1))
        # the problem matches derivatives with the accuracy-4 stencils of an
        # ODE preset; its window [lo, hi) drops their margins
        self.prob = training.Problem(ds, model, self.emb, beta=1.0)
        self.history: list = []    # rows of train.HISTORY_FIELDS
        self.events: list = []

        if self.prob.field_loss is None:
            raise ValueError("the staged loss takes monomials of degree 2 or "
                             f"less only, not all of {', '.join(self.names)}")

    # ------------------------------------------------------------------ loss

    def loss_fn(self):
        """Staged loss and its parts: the problem's derivative matching plus,
        as `reg` at unit weight, the residual of the hidden equation against
        the finite-difference derivative of the embedding, as one tape node
        (`train.FieldLoss`)."""
        return self.prob.compute_loss()

    def loss_and_grad(self):
        """`loss_fn` off the tape: returns the loss value and its parts from
        the closed form's numpy core on the embedding, and writes its
        gradients to `theta_t.grad` and `phi.grad`."""
        lo, hi = self.prob.lo, self.prob.hi
        self.phi.grad = np.zeros_like(self.phi.data)
        value, parts, self.model.theta_t.grad = \
            self.prob.field_loss.evaluate(self.phi.data[lo:hi], lo, hi,
                                          self.phi.grad[lo:hi])
        return value, parts

    # ----------------------------------------------------------------- gauge

    def _apply_shift(self, shift, sd):
        """Rewrite theta for w_old = sd * w_new + c_0 + sum_j c_j u_j, where
        `shift` is [c_0, c_1, ..., c_n] over the visible channels u_j.

        A zero or non-finite sd raises TrainingDiverged before any change.
        If the substitution moves a coefficient onto a masked term, theta
        is left as it is and False is returned; otherwise True.
        """
        if not np.isfinite(sd) or sd == 0.0:
            raise training.TrainingDiverged(
                f"hidden series has std {sd:.3g}; the gauge cannot rescale it")
        h = self.n_vis
        A = np.eye(h + 1)
        A[h, :h] = shift[1:]
        A[h, h] = sd
        g = np.zeros(h + 1)
        g[h] = shift[0]
        table = library.change_variables(library.model_table(self.model), A, g)
        index = {t.key: i for i, t in enumerate(self.model.terms)}
        if any(c and not self.model.mask[eq, index[k]]
               for eq, row in table.items() for k, c in row.items()):
            return False
        self.model.theta[...] = library.model_theta(self.model, table)
        return True

    def gauge_standardize(self):
        """Shift/scale the hidden series to zero mean, unit std, and rewrite
        theta to match. The shift moves each coefficient of a term in w onto
        the terms of lower degree in w; where the mask lacks one of them the
        series is rescaled alone, which creates no term and keeps the fit."""
        lo, hi = self.prob.lo, self.prob.hi
        w = self.phi.data[lo:hi, 0]
        m, s = float(w.mean()), float(w.std())
        if not self._apply_shift([m] + [0.0] * self.n_vis, s):
            m = 0.0
            self._apply_shift([0.0] * (self.n_vis + 1), s)
        self.phi.data[:, 0] = (self.phi.data[:, 0] - m) / s

    def gauge_orthogonalize(self):
        """Remove the component of w lying in span{1, visible channels}."""
        lo, hi = self.prob.lo, self.prob.hi
        w = self.phi.data[lo:hi, 0]
        X = np.concatenate([np.ones((hi - lo, 1)), self.vis[lo:hi]], axis=1)
        coef, *_ = np.linalg.lstsq(X, w, rcond=None)
        fit = coef[0] + self.vis @ coef[1:]
        w = self.phi.data - fit[:, None]
        sd = float(w[lo:hi].std())
        self._apply_shift(coef, sd)
        self.phi.data[...] = w / sd
        return coef, sd

    # --------------------------------------------------------------- descent

    def run(self, nsteps, lr0=None, pin=True):
        """Cosine-decayed descent of (theta, embedding); appends one history
        row per step and returns the final loss. Raises TrainingDiverged on
        a loss that is not finite or exceeds train.DIVERGENCE_LIMIT."""
        lr0 = self.cfg.lr if lr0 is None else lr0
        opt = training.GradientOptimizer([self.model.theta_t, self.phi],
                                         lr=lr0)

        def pin_gauge(step):
            if pin and step and step % PIN_EVERY == 0:
                self.gauge_standardize()

        # iter(f, None) calls f for each item, and f never returns None
        training.descend(opt, iter(self.loss_and_grad, None), nsteps,
                         training.cosine_lr(lr0, nsteps), model=self.model,
                         before=pin_gauge, history=self.history)
        loss = self.history[-1]["total_loss"] if nsteps else float("nan")
        if pin:
            self.gauge_standardize()
            loss = self.loss_and_grad()[0]
            training.check_loss(loss, nsteps)
        return loss

    # ------------------------------------------------------------ regression

    def _features_targets(self):
        state = np.concatenate([self.vis, self.phi.data], axis=-1)
        X = np.stack([np.prod(state ** np.asarray(t.exponents), axis=-1)
                      for t in self.model.terms], axis=1)
        y = fd.apply_stencil(state, fd.CENTRAL_STENCILS_4[1]) / self.dt
        lo, hi = self.prob.lo, self.prob.hi
        return X[lo:hi], y

    def ls_fit(self, mask):
        """Least squares on the given support; returns theta in model units."""
        X, y = self._features_targets()
        th = np.zeros_like(self.model.theta)
        for eq in range(self.model.state_dim):
            sup = np.where(mask[eq])[0]
            if sup.size:
                sol, *_ = np.linalg.lstsq(X[:, sup], y[:, eq], rcond=None)
                th[eq, sup] = sol
        return th * (self.model.s_t * self.dt)

    def stlsq(self):
        """Sequentially thresholded LSQ; degree<=1 terms are never dropped."""
        X, y = self._features_targets()
        keep = np.array([sum(t.exponents) <= 1 for t in self.model.terms])
        mask = np.zeros_like(self.model.mask)
        for eq in range(self.model.state_dim):
            sup = np.ones(X.shape[1], dtype=bool)
            for _ in range(12):
                c = np.zeros(X.shape[1])
                c[sup], *_ = np.linalg.lstsq(X[:, sup], y[:, eq], rcond=None)[0:1]
                new = ((np.abs(c) >= STLSQ_THRESHOLD) | keep) & sup
                if (new == sup).all():
                    break
                sup = new
                if not sup.any():
                    break
            mask[eq] = sup
        return mask

    # ----------------------------------------------------------- elimination

    def _snapshot(self):
        return (self.model.theta.copy(), self.model.mask.copy(),
                self.phi.data.copy())

    def _drop(self, terms):
        """Mask out and zero the given (equation, term) coefficients."""
        for e, j in terms:
            self.model.mask[e, j] = False
            self.model.theta[e, j] = 0.0

    def _restore(self, snap):
        self.model.theta[...] = snap[0]
        self.model.mask[...] = snap[1]
        self.phi.data[...] = snap[2]

    def eliminate(self, baseline, log):
        """Greedy backward elimination: nonlinear terms first, then linear.
        Each pruning is written through `log`, which stamps it."""
        baseline_steps = self.cfg.schedule.baseline_steps
        degrees = np.array([sum(t.exponents) for t in self.model.terms])
        for phase, sel in (("nonlinear", degrees >= 2), ("linear", degrees <= 1)):
            while True:
                snap = self._snapshot()
                cand = [(e, j) for e in range(self.model.state_dim)
                        for j in np.where(self.model.mask[e] & sel)[0]]
                trials = {}
                for e, j in cand:
                    self._restore(snap)
                    self._drop([(e, j)])
                    try:
                        trials[(e, j)] = self.run(TRIAL_STEPS)
                    except training.TrainingDiverged:
                        trials[(e, j)] = float("inf")   # rejected by the gate
                self._restore(snap)
                gated = {k: L for k, L in trials.items() if L <= GATE * baseline}
                if not gated:
                    break
                self._drop(gated)
                new_loss = self.run(baseline_steps)
                if len(gated) > 1 and new_loss > GATE * baseline:
                    # jointly too aggressive; fall back to the single best prune
                    self._restore(snap)
                    e, j = min(gated, key=gated.get)
                    self._drop([(e, j)])
                    new_loss = self.run(baseline_steps)
                    gated = {(e, j): new_loss}
                baseline = min(new_loss, baseline)
                dropped = ", ".join(f"eq{e} {self.names[j]}" for e, j in gated)
                log(f"eliminate[{phase}]: dropped {dropped} "
                    f"loss {new_loss:.4g}")
        return baseline

    # --------------------------------------------------------------- routine

    def fit(self):
        """Run the staged schedule and return the final loss. The trained
        model, the embedding encoder `emb`, the per-step `history` and the
        phase `events` are read off the recovery."""
        cfg, sched = self.cfg, self.cfg.schedule
        t0 = time.perf_counter()

        def log(event):     # stamped with the seconds since the start
            self.events.append(f"{event} t {time.perf_counter() - t0:.2f}s")

        self.model.mask[...] = True
        loss = self.run(sched.warmup_steps, lr0=cfg.lr / 2, pin=False)
        log(f"warmup: loss {loss:.4g}")
        for rd in range(sched.gauge_rounds):
            self.gauge_orthogonalize()
            self.model.theta[...] = self.ls_fit(self.model.mask)
            loss = self.run(sched.round_steps, pin=False)
            log(f"round {rd}: loss {loss:.4g}")
        self.gauge_orthogonalize()
        mask = self.stlsq()
        self.model.mask[...] = mask
        self.model.theta[...] = self.ls_fit(mask)
        baseline = self.run(sched.baseline_steps)
        log(f"support: {int(mask.sum())} active, loss {baseline:.4g}")
        if cfg.eliminate:
            baseline = self.eliminate(baseline, log)
        # refit + polish on the final support, kept only when they help
        baseline = self.loss_and_grad()[0]
        snap = self._snapshot()
        self.model.theta[...] = self.ls_fit(self.model.mask)
        loss = self.run(sched.polish_steps)
        if loss > baseline:
            self._restore(snap)
            loss = baseline
        log(f"polish: loss {loss:.4g} active {int(self.model.mask.sum())}")
        return loss


def conv_patches(visible, kernel):
    """The patch matrix of a series (n, channels) for a temporal conv of the
    given kernel: row t holds visible[t:t + kernel], in the row order of
    the first conv weight reshaped to (kernel * channels, width)."""
    win = np.lib.stride_tricks.sliding_window_view(visible, kernel, axis=0)
    return win.transpose(0, 2, 1).reshape(win.shape[0], -1)


def conv_forward(params, patches):
    """A temporal-conv encoder of kernels (K, 1, 1) on the patch matrix of
    its input, from its parameters as arrays in `Encoder.parameters()`
    order: the two tanh layers' activations h1 and h2, and the output y."""
    w0, b0, w1, b1, w2, b2 = params
    h1 = np.tanh(patches @ w0.reshape(patches.shape[1], -1) + b0)
    h2 = np.tanh(h1 @ w1 + b1)
    return h1, h2, h2 @ w2[:, 0] + b2[0]


def conv_normal_equations(params, patches, target, jtj, jtr,
                          block=DISTILL_BLOCK):
    """Fill jtj with J^T J and jtr with J^T r, in place, for the residual
    r = y - target of `conv_forward`, where J = dr/d(params flattened in
    order); return r^T r.

    J is built in closed form: its row at time t is the patch times dy/dz1,
    dy/dz1, h1 times dy/dz2, dy/dz2, h2 and 1, where z1 and z2 are the tanh
    layers' inputs. It is filled `block` time samples at a time into one
    buffer, so the full Jacobian is never held."""
    _, _, w1, _, w2, _ = params
    h1, h2, y = conv_forward(params, patches)
    res = y - target
    dz2 = (1.0 - h2 * h2) * w2[:, 0]
    dz1 = (1.0 - h1 * h1) * (dz2 @ w1.T)
    k, width = patches.shape[1], h1.shape[1]
    # the columns of w0 | b0 | w1 | b1 | w2 | b2 end at a, b, c, d, -1, end
    a, b = k * width, (k + 1) * width
    c, d = b + width * width, b + width * (width + 1)
    jtj[...] = 0.0
    jtr[...] = 0.0
    buf = np.empty((block, len(jtr)))
    buf[:, -1] = 1.0
    for lo in range(0, len(res), block):
        t = slice(lo, lo + block)
        m = len(res[t])
        jac = buf[:m]
        np.multiply(patches[t, :, None], dz1[t, None, :],
                    out=jac[:, :a].reshape(m, k, width))
        jac[:, a:b] = dz1[t]
        np.multiply(h1[t, :, None], dz2[t, None, :],
                    out=jac[:, b:c].reshape(m, width, width))
        jac[:, c:d] = dz2[t]
        jac[:, d:-1] = h2[t]
        jtj += jac.T @ jac
        jtr += jac.T @ res[t]
    return float(res @ res)


def distill_unknowns(n_visible, width):
    """The parameter count of `distill`'s encoder: its normal matrix's side."""
    spec = encoders.ode_encoder_spec(n_visible, width)
    fan_in = (spec.kernels[0] * n_visible,) + spec.widths[:-1]
    return sum((f + 1) * w for f, w in zip(fan_in, spec.widths))


def distill(recovery: EmbeddingRecovery, width):
    """Fit a temporal-conv encoder of the given width to the recovered
    hidden series by least squares, from the encoder's seeded start, in
    DISTILL_SOLVES damped Gauss-Newton solves (Levenberg-Marquardt).

    Each solve takes (J^T J + lam D) h = -J^T r and keeps the step if it
    lowers the loss. D is Marquardt's diagonal scaling, diag(J^T J), held
    at its largest value so far in each entry (as MINPACK holds it), so a
    tanh unit that saturates keeps its damping. lam starts at 1 and follows
    Nielsen's rule on the ratio rho of the actual to the predicted
    reduction: it is multiplied by max(1/3, 1 - (2 rho - 1)^3) on a kept
    step, and by nu, which then doubles, on a refused one.

    Returns the conv encoder and appends a `distill:` event with the final
    mean squared error and the wall time to `recovery.events`; the fit
    writes no history rows.
    """
    t0 = time.perf_counter()
    spec = encoders.ode_encoder_spec(recovery.n_vis, width)
    enc = encoders.Encoder(spec, seed=recovery.cfg.seed)
    r = enc.radius
    patches = conv_patches(recovery.ds.visible, enc.receptive_field)
    target = recovery.phi.data[r:recovery.n_time - r, 0]
    arrays = [p.data for _, p in enc.parameters()]
    cuts = np.cumsum([a.size for a in arrays])[:-1]

    def unflatten(theta):
        return [v.reshape(a.shape) for v, a in zip(np.split(theta, cuts),
                                                    arrays)]

    theta = np.concatenate([a.ravel() for a in arrays])
    jtj, jtr = np.empty((len(theta), len(theta))), np.empty(len(theta))
    lam, nu, kept, scale = 1.0, 2.0, True, 0.0
    for _ in range(DISTILL_SOLVES):
        if kept:
            sse = conv_normal_equations(unflatten(theta), patches, target,
                                        jtj, jtr)
            diag = jtj.diagonal().copy()
            scale = np.maximum(scale, diag)
        np.fill_diagonal(jtj, diag + lam * scale)
        step = np.linalg.solve(jtj, -jtr)
        res = conv_forward(unflatten(theta + step), patches)[2] - target
        rho = (sse - res @ res) / (step @ (lam * scale * step - jtr))
        kept = rho > 0.0
        if kept:
            theta, sse = theta + step, float(res @ res)
            lam *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
            nu = 2.0
        else:
            lam, nu = lam * nu, 2.0 * nu
    for a, v in zip(arrays, unflatten(theta)):
        a[...] = v
    recovery.events.append(f"distill: loss {sse / len(target):.4g} "
                           f"t {time.perf_counter() - t0:.2f}s")
    return enc
