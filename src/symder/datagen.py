"""Ground-truth simulators, dataset format, and the right-hand sides of
coefficient tables.

Five benchmark systems:

  rossler           du/dt = -v - w, dv/dt = u + a v, dw/dt = b + w (u - c)
  lorenz            du/dt = sigma (v - u), dv/dt = u (rho - w) - v,
                    dw/dt = u v - beta w
  diffusion_source  du/dt = D lap(u) + v, dv/dt = -k v          (2D periodic)
  diffusive_lv      du/dt = Du lap(u) + alpha u - beta u v,
                    dv/dt = Dv lap(v) + delta u v - gamma v     (2D periodic)
  nlse              i dpsi/dt = -1/2 psi_xx - |psi|^2 psi       (1D periodic)

ODE/PDE trajectories use RK4 (method of lines for the PDEs) at an internal
step of dt/substeps; the NLSE uses Strang split-step Fourier. Chaotic ODEs
discard a 100-time-unit transient so the data lies near the attractor.

On-disk format: a directory holding meta.json plus visible.f64/hidden.f64 raw
little-endian arrays, row-major, axis order (t, x, y, component).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MAX_STATE_NORM = 1e8
LORENZ_LYAPUNOV_TIME = 1.0 / 0.906


class SimulationError(RuntimeError):
    pass


@dataclass(frozen=True)
class SystemPreset:
    name: str
    kind: str                 # ode | pde | nlse
    params: dict
    n_time: int
    dt: float
    grid: tuple = ()          # spatial extents
    spacing: tuple = ()
    substeps: int = 10
    burn_in: float = 0.0
    visible: object = None    # list of component indices, or "modulus"
    state_dim: int = 0
    lyapunov_time: float = None


def get_preset(name, n_time=None, nx=None):
    """Benchmark presets; n_time/nx override the default extents (used by the
    reduced-scale experiments)."""
    if name == "rossler":
        return SystemPreset(
            name=name, kind="ode",
            params={"a": 0.2, "b": 0.2, "c": 5.7},
            n_time=n_time or 10000, dt=1e-2, burn_in=100.0,
            visible=[0, 1], state_dim=3,
            lyapunov_time=1.0 / 0.071)
    if name == "lorenz":
        return SystemPreset(
            name=name, kind="ode",
            params={"sigma": 10.0, "rho": 28.0, "beta": 8.0 / 3.0},
            n_time=n_time or 10000, dt=1e-2, burn_in=100.0,
            visible=[0, 1], state_dim=3,
            lyapunov_time=LORENZ_LYAPUNOV_TIME)
    if name == "diffusion_source":
        n = nx or 64
        return SystemPreset(
            name=name, kind="pde",
            params={"D": 0.1, "k": 0.5},
            n_time=n_time or 1000, dt=5e-2, grid=(n, n), spacing=(1.0, 1.0),
            visible=[0], state_dim=2)
    if name == "diffusive_lv":
        n = nx or 64
        return SystemPreset(
            name=name, kind="pde",
            params={"Du": 0.05, "Dv": 0.05, "alpha": 1.0, "beta": 1.0,
                    "delta": 1.0, "gamma": 1.0},
            n_time=n_time or 1000, dt=5e-2, grid=(n, n), spacing=(1.0, 1.0),
            visible=[0], state_dim=2)
    if name == "nlse":
        n = nx or 64
        return SystemPreset(
            name=name, kind="nlse",
            params={"dispersion": -0.5, "nonlinearity": -1.0},
            n_time=n_time or 500, dt=1e-3, grid=(n,),
            spacing=(2 * np.pi / 64,),
            visible="modulus", state_dim=2)
    raise ValueError(f"unknown preset {name!r}")


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------

def _lap(f, spacing):
    out = np.zeros_like(f)
    for ax, h in enumerate(spacing):
        out += (np.roll(f, 1, axis=ax) - 2 * f + np.roll(f, -1, axis=ax)) / h**2
    return out


def make_rhs(preset):
    """rhs(*components) -> tuple; floats for the ODEs, fields for the PDEs."""
    p = preset.params
    if preset.name == "rossler":
        def rhs(u, v, w):
            return (-v - w, u + p["a"] * v, p["b"] + w * (u - p["c"]))
        return rhs
    if preset.name == "lorenz":
        def rhs(u, v, w):
            return (p["sigma"] * (v - u), u * (p["rho"] - w) - v,
                    u * v - p["beta"] * w)
        return rhs
    if preset.name == "diffusion_source":
        def rhs(u, v):
            return (p["D"] * _lap(u, preset.spacing) + v, -p["k"] * v)
        return rhs
    if preset.name == "diffusive_lv":
        def rhs(u, v):
            du = p["Du"] * _lap(u, preset.spacing) + \
                p["alpha"] * u - p["beta"] * u * v
            dv = p["Dv"] * _lap(v, preset.spacing) + \
                p["delta"] * u * v - p["gamma"] * v
            return (du, dv)
        return rhs
    raise ValueError(f"no ODE/PDE right-hand side for preset {preset.name!r}")


def true_coefficient_table(preset):
    """Generating equations as {component: {basis_key: value}} in the same
    basis the libraries use; the recovery tests compare against this."""
    p = preset.params
    if preset.name == "rossler":
        return {0: {("mono", (0, 1, 0)): -1.0, ("mono", (0, 0, 1)): -1.0},
                1: {("mono", (1, 0, 0)): 1.0, ("mono", (0, 1, 0)): p["a"]},
                2: {("mono", (0, 0, 0)): p["b"], ("mono", (1, 0, 1)): 1.0,
                    ("mono", (0, 0, 1)): -p["c"]}}
    if preset.name == "lorenz":
        return {0: {("mono", (1, 0, 0)): -p["sigma"],
                    ("mono", (0, 1, 0)): p["sigma"]},
                1: {("mono", (1, 0, 0)): p["rho"], ("mono", (0, 1, 0)): -1.0,
                    ("mono", (1, 0, 1)): -1.0},
                2: {("mono", (1, 1, 0)): 1.0, ("mono", (0, 0, 1)): -p["beta"]}}
    if preset.name == "diffusion_source":
        return {0: {("deriv", 0, (2, 0)): p["D"], ("deriv", 0, (0, 2)): p["D"],
                    ("mono", (0, 1)): 1.0},
                1: {("mono", (0, 1)): -p["k"]}}
    if preset.name == "diffusive_lv":
        return {0: {("deriv", 0, (2, 0)): p["Du"],
                    ("deriv", 0, (0, 2)): p["Du"],
                    ("mono", (1, 0)): p["alpha"],
                    ("mono", (1, 1)): -p["beta"]},
                1: {("deriv", 1, (2, 0)): p["Dv"],
                    ("deriv", 1, (0, 2)): p["Dv"],
                    ("mono", (1, 1)): p["delta"],
                    ("mono", (0, 1)): -p["gamma"]}}
    if preset.name == "nlse":
        # i dpsi/dt = disp*dxx + nonlin*|psi|^2 psi <=> dpsi/dt = i*(-disp*dxx - …)
        return {0: {("wave_deriv", 2): -p["dispersion"],
                    ("wave_nonlin", 2): -p["nonlinearity"]}}
    raise ValueError(preset.name)


# ---------------------------------------------------------------------------
# integrators
# ---------------------------------------------------------------------------

def rk4_step(rhs, x, dt):
    """RK4 on a tuple of components (floats for one ODE state, fields for a
    PDE), in the operation order of RK4 on stacked arrays."""
    k1 = rhs(*x)
    k2 = rhs(*[a + 0.5 * dt * k for a, k in zip(x, k1)])
    k3 = rhs(*[a + 0.5 * dt * k for a, k in zip(x, k2)])
    k4 = rhs(*[a + dt * k for a, k in zip(x, k3)])
    return tuple(a + dt / 6.0 * (b1 + 2 * b2 + 2 * b3 + b4)
                 for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4))


def _check_state(x, step):
    norm = float(np.max(np.abs(x)))
    if not np.isfinite(norm) or norm > MAX_STATE_NORM:
        raise SimulationError(
            f"integration diverged at step {step}: max|state| = {norm:.3e}")


def integrate(rhs, x0, n_steps, dt, substeps=10):
    """RK4 trajectory sampled every dt; internal step dt/substeps."""
    x0 = np.asarray(x0, dtype=np.float64)
    x = tuple(x0.tolist() if x0.ndim == 1 else np.moveaxis(x0, -1, 0))
    out = np.empty((n_steps,) + x0.shape)
    out[0] = x0
    sub = dt / substeps
    for i in range(1, n_steps):
        for _ in range(substeps):
            x = rk4_step(rhs, x, sub)
        out[i] = np.stack(x, axis=-1)
        _check_state(out[i], i)
    return out


def split_step_nlse(psi0, n_steps, dt, spacing, dispersion=-0.5,
                    nonlinearity=-1.0, substeps=10):
    """Strang split-step Fourier for i dpsi/dt = dispersion * psi_xx
    + nonlinearity * |psi|^2 psi on a periodic grid."""
    psi = np.array(psi0, dtype=np.complex128)
    n = psi.shape[0]
    k = 2 * np.pi * np.fft.fftfreq(n, d=spacing)
    sub = dt / substeps
    # i psi_t = dispersion psi_xx  =>  psi_hat_t = i dispersion k^2 psi_hat
    lin = np.exp(1j * dispersion * k ** 2 * sub)
    out = np.empty((n_steps, n), dtype=np.complex128)
    out[0] = psi
    for i in range(1, n_steps):
        for _ in range(substeps):
            psi = psi * np.exp(-1j * nonlinearity * np.abs(psi) ** 2 * sub / 2)
            psi = np.fft.ifft(np.fft.fft(psi) * lin)
            psi = psi * np.exp(-1j * nonlinearity * np.abs(psi) ** 2 * sub / 2)
        _check_state(psi, i)
        out[i] = psi
    return out


# ---------------------------------------------------------------------------
# initial conditions
# ---------------------------------------------------------------------------

def _smooth_field(rng, shape, n_modes=4):
    """Periodic random field with only low-wavenumber content."""
    noise = rng.standard_normal(shape)
    f = np.fft.fftn(noise)
    for ax, n in enumerate(shape):
        k = np.fft.fftfreq(n) * n
        mask_shape = [1] * len(shape)
        mask_shape[ax] = n
        f = f * (np.abs(k) <= n_modes).reshape(mask_shape)
    out = np.fft.ifftn(f).real
    return out / max(np.abs(out).max(), 1e-12)


def initial_condition(preset, rng):
    if preset.kind == "ode":
        base = {"rossler": np.array([0.0, -6.0, 0.0]),
                "lorenz": np.array([1.0, 1.0, 20.0])}[preset.name]
        return base + rng.uniform(-0.5, 0.5, 3)
    if preset.name == "diffusion_source":
        X, Y = preset.grid
        u0 = 1.0 + 0.5 * _smooth_field(rng, (X, Y))
        v0 = 0.5 + 0.4 * _smooth_field(rng, (X, Y))
        return np.stack([u0, v0], axis=-1)
    if preset.name == "diffusive_lv":
        X, Y = preset.grid
        u0 = 1.0 + 0.4 * _smooth_field(rng, (X, Y))
        v0 = 1.0 + 0.4 * _smooth_field(rng, (X, Y))
        return np.stack([np.clip(u0, 0.05, None),
                         np.clip(v0, 0.05, None)], axis=-1)
    if preset.name == "nlse":
        n = preset.grid[0]
        x = np.arange(n) * preset.spacing[0]
        # two overlapping solitary humps with opposite integer velocities,
        # plus a small seeded perturbation; modulus stays well above zero
        psi = 3.0 / np.cosh(3.0 * _wrapped(x, np.pi - 0.8)) * \
            np.exp(2j * x)
        psi = psi + 3.0 / np.cosh(3.0 * _wrapped(x, np.pi + 0.8)) * \
            np.exp(-2j * x)
        psi = psi + 0.3 * np.exp(1j * rng.uniform(0, 2 * np.pi))
        psi = psi * (1.0 + 0.05 * _smooth_field(rng, (n,)))
        return psi
    raise ValueError(preset.name)


def _wrapped(x, center, period=2 * np.pi):
    d = (x - center + period / 2) % period - period / 2
    return d


# ---------------------------------------------------------------------------
# dataset container and on-disk format
# ---------------------------------------------------------------------------

@dataclass
class NormalizationRecord:
    mean: np.ndarray            # per visible component
    std: np.ndarray
    deriv_std: dict             # order -> per-component std of FD derivative
    dt: float
    spacing: tuple = ()


@dataclass
class Dataset:
    preset: SystemPreset
    seed: int
    visible_raw: np.ndarray     # physical units, shape (t[, x[, y]], n_vis)
    hidden_truth: np.ndarray    # evaluation only, never fed to training
    norm: NormalizationRecord = None
    visible: np.ndarray = field(default=None, repr=False)  # normalized

    def __post_init__(self):
        if self.norm is None:
            self.norm = _make_norm(self.preset, self.visible_raw)
        if self.visible is None:
            self.visible = (self.visible_raw - self.norm.mean) / self.norm.std

    def save(self, path, force=False):
        path = Path(path)
        if path.exists() and any(path.iterdir()) and not force:
            raise FileExistsError(f"{path} exists; pass force=True to overwrite")
        path.mkdir(parents=True, exist_ok=True)
        meta = {
            "preset": self.preset.name,
            "seed": self.seed,
            "grid": {"n_time": self.preset.n_time, "dt": self.preset.dt,
                     "extents": list(self.preset.grid),
                     "spacing": list(self.preset.spacing)},
            "params": self.preset.params,
            "visible_shape": list(self.visible_raw.shape),
            "hidden_shape": list(self.hidden_truth.shape),
            "normalization": {
                "mean": self.norm.mean.tolist(),
                "std": self.norm.std.tolist(),
                "deriv_std": {str(p): s.tolist()
                              for p, s in self.norm.deriv_std.items()},
            },
        }
        (path / "meta.json").write_text(json.dumps(meta, indent=1))
        self.visible_raw.astype("<f8").tofile(path / "visible.f64")
        self.hidden_truth.astype("<f8").tofile(path / "hidden.f64")

    @classmethod
    def load(cls, path):
        path = Path(path)
        meta = json.loads((path / "meta.json").read_text())
        preset = get_preset(meta["preset"],
                            n_time=meta["grid"]["n_time"],
                            nx=(meta["grid"]["extents"][0]
                                if meta["grid"]["extents"] else None))
        arrays = []
        for name in ("visible", "hidden"):
            f, shape = path / f"{name}.f64", meta[f"{name}_shape"]
            if f.stat().st_size != 8 * int(np.prod(shape)):
                raise ValueError(f"{f.name} does not hold the shape {shape}")
            arrays.append(np.fromfile(f, dtype="<f8").reshape(shape))
        nrm = meta["normalization"]
        norm = NormalizationRecord(
            mean=np.array(nrm["mean"]), std=np.array(nrm["std"]),
            deriv_std={int(p): np.array(s)
                       for p, s in nrm["deriv_std"].items()},
            dt=meta["grid"]["dt"], spacing=tuple(meta["grid"]["spacing"]))
        scales = np.hstack([norm.mean, norm.std, norm.dt,
                            *norm.deriv_std.values()])
        for name, arr in zip(("visible.f64", "hidden.f64", "normalization"),
                             arrays + [scales]):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} holds non-finite values")
        return cls(preset=preset, seed=meta["seed"], visible_raw=arrays[0],
                   hidden_truth=arrays[1], norm=norm)


def _make_norm(preset, visible_raw):
    from . import fd
    n_vis = visible_raw.shape[-1]
    flat = visible_raw.reshape(-1, n_vis)
    if preset.kind == "nlse":
        # modulus data keeps mean 0 so a(|psi|, phi) stays exactly |psi| e^{i phi}
        mean = np.zeros(n_vis)
    else:
        mean = flat.mean(axis=0)
    std = flat.std(axis=0)
    normed = (visible_raw - mean) / std
    deriv_std = {}
    for p in (1, 2, 3, 4):
        if visible_raw.shape[0] >= len(fd.CENTRAL_STENCILS[p]):
            d, _ = fd.time_derivative(normed, p, preset.dt)
            deriv_std[p] = d.reshape(-1, n_vis).std(axis=0)
    return NormalizationRecord(mean=mean, std=std, deriv_std=deriv_std,
                               dt=preset.dt, spacing=preset.spacing)


def simulate(preset, seed=0):
    """Generate a ground-truth dataset for one preset, bit-reproducible from
    (preset, seed)."""
    rng = np.random.default_rng(seed)
    x0 = initial_condition(preset, rng)
    if preset.kind == "nlse":
        traj = split_step_nlse(x0, preset.n_time, preset.dt,
                               preset.spacing[0],
                               dispersion=preset.params["dispersion"],
                               nonlinearity=preset.params["nonlinearity"],
                               substeps=preset.substeps)
        visible = np.abs(traj)[..., None]
        hidden = np.angle(traj)[..., None]
        return Dataset(preset=preset, seed=seed, visible_raw=visible,
                       hidden_truth=hidden)
    rhs = make_rhs(preset)
    if preset.burn_in > 0:
        n_burn = int(round(preset.burn_in / preset.dt))
        x0 = integrate(rhs, x0, n_burn, preset.dt,
                       substeps=preset.substeps)[-1]
    traj = integrate(rhs, x0, preset.n_time, preset.dt,
                     substeps=preset.substeps)
    vis_idx = list(preset.visible)
    hid_idx = [j for j in range(preset.state_dim) if j not in vis_idx]
    return Dataset(preset=preset, seed=seed,
                   visible_raw=traj[..., vis_idx],
                   hidden_truth=traj[..., hid_idx])


# ---------------------------------------------------------------------------
# right-hand sides of coefficient tables
# ---------------------------------------------------------------------------

def table_rhs(table, state_dim, spacing=(), axes=()):
    """rhs(*components) -> tuple from a table {component: {basis_key: value}}
    in physical units; powers are repeated products, so overflow gives inf."""
    from . import fd

    def rhs(*comps):
        zero = np.zeros_like(comps[0]) if np.ndim(comps[0]) else 0.0
        out = [zero] * state_dim
        for j, row in table.items():
            acc = zero
            for key, c in row.items():
                if key[0] == "mono":
                    v = 1.0
                    for k, e in enumerate(key[1]):
                        for _ in range(e):
                            v = v * comps[k]
                elif key[0] == "deriv":
                    v = comps[key[1]]
                    for a, o in enumerate(key[2]):
                        if o:
                            v = fd.spatial_stencil(v, o, axes[a],
                                                   spacing[a])
                else:
                    raise ValueError(f"table_rhs cannot evaluate {key!r}")
                acc = acc + float(c) * v
            out[j] = acc
        return tuple(out)

    return rhs
