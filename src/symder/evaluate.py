"""Post-training assessment: hidden-state accuracy up to the affine gauge
freedom of the reconstruction, recovered-equation pattern and coefficient
comparison, wave-phase errors, and forecast horizon.

The hidden channel is only identified up to an affine map (any a*h + b with
the coefficients rewritten accordingly gives the same visible dynamics), so
every comparison first solves for the best a, b by least squares and then
transforms the learned coefficient table into the truth's variables.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import datagen, library

PATTERN_THRESHOLD = 1e-3   # smallest |coefficient| in a sparsity pattern
HORIZON_THRESHOLD = 0.1    # forecast error that ends a prediction horizon


def relative_error(pred, truth):
    """RMS deviation over the full range of the truth."""
    pred, truth = np.asarray(pred), np.asarray(truth)
    rng = float(truth.max() - truth.min())
    if rng == 0.0:
        raise ValueError("truth signal has zero range")
    return float(np.sqrt(np.mean((pred - truth) ** 2)) / rng)


@dataclass
class Alignment:
    a: np.ndarray          # per hidden channel
    b: np.ndarray
    rel_error: np.ndarray  # of a*estimate + b against the truth


def affine_align(estimate, truth):
    """Least-squares a, b per trailing channel so a*estimate + b ~ truth."""
    est = np.asarray(estimate, dtype=float)
    tru = np.asarray(truth, dtype=float)
    if est.shape != tru.shape:
        raise ValueError(f"shape mismatch {est.shape} vs {tru.shape}")
    if est.ndim == 1:
        est, tru = est[:, None], tru[:, None]
    nch = est.shape[-1]
    a = np.empty(nch)
    b = np.empty(nch)
    err = np.empty(nch)
    for c in range(nch):
        e = est[..., c].reshape(-1)
        t = tru[..., c].reshape(-1)
        A = np.stack([e, np.ones_like(e)], axis=1)
        (a[c], b[c]), *_ = np.linalg.lstsq(A, t, rcond=None)
        err[c] = relative_error(a[c] * e + b[c], t)
    return Alignment(a=a, b=b, rel_error=err)


# ---------------------------------------------------------------------------
# coefficient tables in a common gauge
# ---------------------------------------------------------------------------

def _with_hidden(dataset, mean, std):
    """The dataset's normalization record, extended to hidden channels of
    the given mean and std (none for the wave presets, whose psi is
    normalized by the visible modulus alone)."""
    if dataset.preset.kind == "nlse":
        return dataset.norm
    return replace(dataset.norm,
                   mean=np.concatenate([dataset.norm.mean, mean]),
                   std=np.concatenate([dataset.norm.std, std]))


def _to_truth_units(model, dataset):
    """Arguments of `library.change_variables` from physical units to the
    model's variables with the hidden channels normalized like the truth."""
    # one column per hidden channel, over time and the whole field
    hid = dataset.hidden_truth.reshape(-1, dataset.hidden_truth.shape[-1])
    norm = _with_hidden(dataset, hid.mean(axis=0), hid.std(axis=0))
    return library.inverse_change(*library.unit_change(model, norm))


def truth_normalized_table(dataset, model):
    """Generating equations in the variables and time units of `model`, its
    hidden channels normalized like the truth."""
    return library.change_variables(
        datagen.true_coefficient_table(dataset.preset),
        *_to_truth_units(model, dataset))


def pattern_of(table):
    return {(eq, k) for eq, row in table.items()
            for k, c in row.items() if abs(c) >= PATTERN_THRESHOLD}


def learned_physical_table(model, dataset, align):
    """Learned equations in the original data units and the truth's hidden
    variable."""
    return library.physical_coefficients(
        model, _with_hidden(dataset, align.b, align.a))


def compare_equations(model, dataset, align):
    """Sparsity-pattern verdict plus per-coefficient relative errors.

    The learned table is moved into the variables of
    `truth_normalized_table`, entries below PATTERN_THRESHOLD are
    discarded, and the surviving pattern is compared against the generating
    equations;
    coefficients are then compared in physical units over the union of the
    two patterns.
    """
    found_phys = learned_physical_table(model, dataset, align)
    truth_phys = datagen.true_coefficient_table(dataset.preset)
    found_n = library.change_variables(found_phys,
                                       *_to_truth_units(model, dataset))
    found_pat = pattern_of(found_n)
    truth_pat = pattern_of(truth_normalized_table(dataset, model))
    errors = {}
    for eq, key in sorted(found_pat | truth_pat):
        t = truth_phys.get(eq, {}).get(key, 0.0)
        f = found_phys.get(eq, {}).get(key, 0.0)
        errors[(eq, key)] = (abs(f - t) / abs(t)) if t != 0.0 else abs(f)
    return {
        "pattern_match": found_pat == truth_pat,
        "missing": sorted(truth_pat - found_pat),
        "spurious": sorted(found_pat - truth_pat),
        "coefficient_errors": errors,
        "found_physical": found_phys,
        "truth_physical": truth_phys,
    }


# ---------------------------------------------------------------------------
# wave phase diagnostics
# ---------------------------------------------------------------------------

def wrap_angle(x):
    return np.angle(np.exp(1j * np.asarray(x)))


def phase_errors(phase_est, phase_truth, dx):
    """Errors of a reconstructed wave phase up to the global-phase gauge.

    Returns (phase_rel_error, gradient_rel_error): the gauge-fixed wrapped
    phase residual and the periodic spatial phase gradient residual, both
    RMS over range-of-truth.
    """
    est = np.asarray(phase_est, float)
    tru = np.asarray(phase_truth, float)
    if est.shape != tru.shape:
        raise ValueError(f"shape mismatch {est.shape} vs {tru.shape}")
    # global phase offset: circular mean of the pointwise mismatch
    offset = np.angle(np.mean(np.exp(1j * (est - tru))))
    resid = wrap_angle(est - tru - offset)
    tru_unwrapped = np.unwrap(tru, axis=-1)
    rng = float(tru_unwrapped.max() - tru_unwrapped.min())
    phase_err = float(np.sqrt(np.mean(resid ** 2)) / rng)

    def grad(phi):
        d = wrap_angle(np.roll(phi, -1, axis=-1) - np.roll(phi, 1, axis=-1))
        return d / (2 * dx)

    ge, gt = grad(est), grad(tru)
    grad_err = float(np.sqrt(np.mean((ge - gt) ** 2))
                     / (gt.max() - gt.min()))
    return phase_err, grad_err


# ---------------------------------------------------------------------------
# forecasting
# ---------------------------------------------------------------------------

def prediction_horizon(model, dataset, align, hidden_estimate):
    """Forecast with the learned equations from a reconstructed first state
    and report how long the visible trajectory stays within
    HORIZON_THRESHOLD of the truth (RMS amplitude units). Returns the
    horizon in Lyapunov times when the preset defines one, otherwise in
    plain time units."""
    if dataset.preset.kind != "ode":
        raise ValueError("prediction horizon is defined for the ODE systems")
    table = learned_physical_table(model, dataset, align)
    rhs = datagen.table_rhs(table, model.state_dim)
    vis_idx = dataset.preset.visible
    truth_vis = dataset.visible_raw
    n_steps = truth_vis.shape[0] - 1
    x = np.empty(model.state_dim)
    x[vis_idx] = truth_vis[0]
    hidden_idx = [j for j in range(model.state_dim) if j not in vis_idx]
    x[hidden_idx] = align.a * np.atleast_1d(hidden_estimate) + align.b
    x = tuple(x.tolist())
    scale = np.sqrt(np.mean((truth_vis - truth_vis.mean(axis=0)) ** 2))
    horizon_steps = 0
    substeps = dataset.preset.substeps
    sub_dt = dataset.norm.dt / substeps
    for k in range(1, n_steps + 1):
        for _ in range(substeps):
            x = datagen.rk4_step(rhs, x, sub_dt)
        if not np.all(np.isfinite(x)):
            break
        dev = np.sqrt(np.mean((np.take(x, vis_idx) - truth_vis[k]) ** 2))
        if dev > HORIZON_THRESHOLD * scale:
            break
        horizon_steps = k
    horizon = horizon_steps * dataset.norm.dt
    tau = dataset.preset.lyapunov_time
    return horizon / tau if tau else horizon


def evaluate_run(dataset, model, encoder):
    """Reconstruct the hidden state on the window the loss trained, align it
    with the truth, and compare the learned equations; returns a result
    dict with the alignment, the comparison, and the reconstructed state."""
    from .train import Problem
    prob = Problem(dataset, model, encoder)
    state = prob.reconstruct().data
    lo, hi = prob.lo, prob.hi
    out = {"lo": lo, "hi": hi, "state": state}
    if model.kind == "complex":
        phase_est = np.arctan2(state[..., 1], state[..., 0])
        phase_truth = dataset.hidden_truth[lo:hi, ..., 0]
        pe, ge = phase_errors(phase_est, phase_truth,
                              dx=dataset.preset.spacing[0])
        align = Alignment(a=np.ones(1), b=np.zeros(1),
                          rel_error=np.array([pe]))
        out["phase_error"] = pe
        out["phase_gradient_error"] = ge
        out["hidden_estimate"] = phase_est
    else:
        nvis = dataset.visible.shape[-1]
        est = state[..., nvis:]
        truth = dataset.hidden_truth[lo:hi]
        align = affine_align(est.reshape(-1), truth.reshape(-1))
        out["hidden_estimate"] = est
    out["align"] = align
    out["comparison"] = compare_equations(model, dataset, align)
    return out


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

def _key_name(key):
    return library.term_from_key(key).name


def report(model, dataset, align, comparison, extra=None):
    """JSON-serializable summary of one recovery run."""
    doc = {
        "preset": dataset.preset.name,
        "seed": dataset.seed,
        "active_terms": model.active_terms(),
        "hidden": {
            "a": align.a.tolist(), "b": align.b.tolist(),
            "rel_error": align.rel_error.tolist(),
        },
        "pattern_match": comparison["pattern_match"],
        "missing": [[eq, _key_name(k)]
                    for eq, k in comparison["missing"]],
        "spurious": [[eq, _key_name(k)]
                     for eq, k in comparison["spurious"]],
        "equations": {},
        "coefficient_errors": {},
    }
    for eq, row in comparison["found_physical"].items():
        doc["equations"][str(eq)] = {
            _key_name(k): c for k, c in row.items()
            if abs(c) > 0.0}
    for (eq, k), e in comparison["coefficient_errors"].items():
        doc["coefficient_errors"][f"{eq}:{_key_name(k)}"] = e
    if extra:
        doc.update(extra)
    return doc


def write_report(doc, path):
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=False))
