import dataclasses

import numpy as np
import pytest

from symder import datagen as dg


def small(name, **kw):
    return dg.get_preset(name, **kw)


def test_lorenz_bounded_on_attractor():
    preset = small("lorenz", n_time=2000)
    ds = dg.simulate(preset, seed=0)
    full = np.concatenate([ds.visible_raw, ds.hidden_truth], axis=-1)
    assert np.max(np.abs(full)) < 60.0


def test_rossler_bounded():
    ds = dg.simulate(small("rossler", n_time=2000), seed=1)
    assert np.max(np.abs(ds.visible_raw)) < 30.0


def test_normalized_visible_unit_variance():
    for name in ("lorenz", "diffusion_source"):
        preset = small(name, n_time=300, nx=16)
        ds = dg.simulate(preset, seed=2)
        var = ds.visible.reshape(-1, ds.visible.shape[-1]).var(axis=0)
        np.testing.assert_allclose(var, 1.0, atol=1e-10)


def test_pure_diffusion_conserves_mean():
    preset = small("diffusion_source", n_time=50, nx=16)
    rng = np.random.default_rng(3)
    x0 = dg.initial_condition(preset, rng)
    x0[..., 1] = 0.0  # no source: pure diffusion
    rhs = dg.make_rhs(preset)
    traj = dg.integrate(rhs, x0, 50, preset.dt, substeps=10)
    means = traj[..., 0].mean(axis=(1, 2))
    assert np.max(np.abs(np.diff(means))) < 1e-8


def test_nlse_free_particle_norm_conserved():
    n = 64
    x = np.arange(n) * (2 * np.pi / 64)
    psi0 = np.exp(1j * x) + 0.3 * np.exp(-2j * x)
    traj = dg.split_step_nlse(psi0, 100, 1e-3, 2 * np.pi / 64,
                              dispersion=-0.5, nonlinearity=0.0)
    norms = np.linalg.norm(traj, axis=1)
    assert np.max(np.abs(norms - norms[0])) < 1e-10 * norms[0]


def test_nlse_dataset_shapes_and_modulus_floor():
    ds = dg.simulate(small("nlse"), seed=4)
    assert ds.visible_raw.shape == (500, 64, 1)
    assert ds.hidden_truth.shape == (500, 64, 1)
    assert ds.visible_raw.min() > 1e-3  # modulus stays off the singular point


def test_nlse_grid_spans_one_period():
    # the humps are placed and wrapped with period 2 pi, so the grid must
    # span 2 pi at every size
    assert small("nlse").spacing == (2 * np.pi / 64,)
    for nx in (32, 64, 96):
        preset = small("nlse", nx=nx)
        assert preset.spacing == (2 * np.pi / nx,)
        mod = np.abs(dg.initial_condition(preset, np.random.default_rng(0)))
        # |psi| meets itself across the periodic boundary (with the spacing
        # 2 pi / 64 on 32 points it jumped there by 0.65)
        assert abs(mod[0] - mod[-1]) < 0.01


def test_rk4_self_convergence():
    for name, kw in [("lorenz", {"n_time": 200}),
                     ("diffusive_lv", {"n_time": 50, "nx": 16})]:
        preset = small(name, **kw)
        rng = np.random.default_rng(5)
        x0 = dg.initial_condition(preset, rng)
        rhs = dg.make_rhs(preset)
        a = dg.integrate(rhs, x0, preset.n_time, preset.dt, substeps=10)
        b = dg.integrate(rhs, x0, preset.n_time, preset.dt, substeps=20)
        rel = np.max(np.abs(a - b)) / np.max(np.abs(b))
        assert rel <= 1e-8, name


def test_lv_without_diffusion_conserves_first_integral():
    preset = dg.SystemPreset(
        name="diffusive_lv", kind="pde",
        params={"Du": 0.0, "Dv": 0.0, "alpha": 1.0, "beta": 1.0,
                "delta": 1.0, "gamma": 1.0},
        n_time=1000, dt=1e-2, grid=(4, 4), spacing=(1.0, 1.0),
        visible=[0], state_dim=2)
    rng = np.random.default_rng(6)
    x0 = dg.initial_condition(preset, rng)
    rhs = dg.make_rhs(preset)
    traj = dg.integrate(rhs, x0, preset.n_time, preset.dt, substeps=10)
    u, v = traj[..., 0], traj[..., 1]
    V = u - np.log(u) + v - np.log(v)  # conserved when diffusion = 0
    drift = np.abs(V - V[0]).max()
    assert drift < 1e-6


def test_periodic_shift_equivariance():
    preset = small("diffusion_source", n_time=20, nx=16)
    rng = np.random.default_rng(7)
    x0 = dg.initial_condition(preset, rng)
    rhs = dg.make_rhs(preset)
    a = dg.integrate(rhs, np.roll(x0, 3, axis=0), 20, preset.dt)
    b = np.roll(dg.integrate(rhs, x0, 20, preset.dt), 3, axis=1)
    np.testing.assert_allclose(a, b, atol=1e-12)


def _divergence_message(rhs, x0, n_steps=200, dt=1e-2):
    # numpy warns where the field path overflows; Python floats do not
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(dg.SimulationError, match="step") as err:
        dg.integrate(rhs, x0, n_steps, dt)
    return str(err.value)


def test_divergence_reporting():
    bad_rhs = lambda *x: tuple(1e6 * c for c in x)  # noqa: E731
    with pytest.raises(dg.SimulationError, match="step"):
        dg.integrate(bad_rhs, np.ones(3), 100, 1e-2)
    # a three-float state (float path, `rk4_step3`) ends as the same state
    # stacked as a (1, 3) field (`rk4_step`) does: the same message at the
    # same step
    nan = float("nan")
    cases = {
        # e^(20 t) passes MAX_STATE_NORM near t = 0.92
        "norm": (lambda u, v, w: (20.0 * u, v, -w), [1.0, 2.0, 3.0],
                 "step 93:"),
        "nan": (lambda u, v, w: (u, v * nan, w), [1.0, 2.0, 3.0],
                "step 1: max|state| = nan"),
        # u^3 from 1e3 overflows inside the first sample: Python's `*`
        # gives inf there, and no OverflowError may escape
        "u^3": (dg.table_rhs({0: {("mono", (3, 0, 0)): 1.0}}, 3),
                [1e3, 1.0, 1.0], "step 1: max|state| = inf"),
    }
    for name, (rhs, x0, expect) in cases.items():
        x0 = np.array(x0)
        floats = _divergence_message(rhs, x0)
        assert expect in floats, (name, floats)
        assert _divergence_message(rhs, x0[None]) == floats, name


def test_dataset_roundtrip(tmp_path):
    ds = dg.simulate(small("lorenz", n_time=200), seed=9)
    ds.save(tmp_path / "d")
    ds2 = dg.Dataset.load(tmp_path / "d")
    np.testing.assert_array_equal(ds.visible_raw, ds2.visible_raw)
    np.testing.assert_array_equal(ds.hidden_truth, ds2.hidden_truth)
    np.testing.assert_array_equal(ds.visible, ds2.visible)
    assert ds2.seed == 9 and ds2.preset.name == "lorenz"
    for p in ds.norm.deriv_std:
        np.testing.assert_array_equal(ds.norm.deriv_std[p],
                                      ds2.norm.deriv_std[p])
    with pytest.raises(FileExistsError):
        ds.save(tmp_path / "d")
    ds.save(tmp_path / "d", force=True)


@pytest.mark.parametrize("name,kw", [
    ("lorenz", {"n_time": 200}),
    ("diffusion_source", {"n_time": 12, "nx": 8}),
    ("nlse", {"n_time": 20, "nx": 16})])
def test_training_load_holds_the_visible_series_alone(tmp_path, name, kw):
    # normalized in place, the series has the bits of a full load's, and
    # the load reads neither the truth nor keeps the raw series
    dg.simulate(small(name, **kw), seed=3).save(tmp_path / "d")
    full = dg.Dataset.load(tmp_path / "d")
    (tmp_path / "d" / "hidden.f64").unlink()
    ds = dg.Dataset.load(tmp_path / "d", truth=False)
    assert ds.visible.tobytes() == full.visible.tobytes()
    assert ds.visible_raw is None and ds.hidden_truth is None
    assert ds.seed == 3
    with pytest.raises(FileNotFoundError):
        dg.Dataset.load(tmp_path / "d")


def test_derivative_std_kept_only_where_it_spreads(tmp_path):
    # a 3-point stencil on 3 samples leaves one value per channel, and a
    # 5-point one on 5 samples too: no spread to scale by, so no record,
    # and the saved dataset loads
    for n_time, orders in ((3, []), (5, [1, 2]), (7, [1, 2, 3, 4])):
        ds = dg.simulate(small("lorenz", n_time=n_time), seed=0)
        assert sorted(ds.norm.deriv_std) == orders, n_time
        ds.save(tmp_path / str(n_time))
        assert sorted(dg.Dataset.load(tmp_path / str(n_time)).norm
                      .deriv_std) == orders


def test_bit_reproducible():
    a = dg.simulate(small("diffusive_lv", n_time=30, nx=16), seed=11)
    b = dg.simulate(small("diffusive_lv", n_time=30, nx=16), seed=11)
    assert np.array_equal(a.visible_raw, b.visible_raw)
    assert np.array_equal(a.hidden_truth, b.hidden_truth)


def test_rollout_self_consistency_lorenz():
    preset = small("lorenz", n_time=300)
    ds = dg.simulate(preset, seed=12)
    full = np.concatenate([ds.visible_raw, ds.hidden_truth], axis=-1)
    table = dg.true_coefficient_table(preset)
    rhs = dg.table_rhs(table, preset.state_dim)
    # 1 time unit = 100 samples
    traj = dg.integrate(rhs, full[0], 101, preset.dt)
    rel = np.abs(traj - full[:101]).max() / np.abs(full[:101]).max()
    assert rel <= 1e-6


def test_rollout_zero_model_constant():
    rhs = dg.table_rhs({0: {}, 1: {}, 2: {}}, 3)
    traj = dg.integrate(rhs, np.array([1.0, 2.0, 3.0]), 10, 0.1)
    np.testing.assert_array_equal(traj, np.broadcast_to([1.0, 2.0, 3.0],
                                                        (10, 3)))


def test_table_rhs_matches_simulator_rhs():
    for name in ("rossler", "lorenz", "diffusion_source", "diffusive_lv"):
        preset = small(name, n_time=10, nx=8)
        rng = np.random.default_rng(13)
        if preset.kind == "ode":
            x = rng.standard_normal((5, 3))
        else:
            x = rng.standard_normal((8, 8, 2))
        rhs_true = dg.make_rhs(preset)
        rhs_tab = dg.table_rhs(dg.true_coefficient_table(preset),
                               preset.state_dim,
                               spacing=preset.spacing, axes=(0, 1))
        comps = np.moveaxis(x, -1, 0)
        np.testing.assert_allclose(rhs_tab(*comps), rhs_true(*comps),
                                   rtol=1e-12, atol=1e-12, err_msg=name)


# Reference: RK4 and right-hand sides on stacked arrays, with the Laplacian
# as a sum of np.roll shifts. The simulator's component form must reproduce
# them bit for bit.

def _roll_lap(f, spacing):
    out = np.zeros_like(f)
    for ax, h in enumerate(spacing):
        out += (np.roll(f, 1, axis=ax) - 2 * f + np.roll(f, -1, axis=ax)) / h**2
    return out


@pytest.mark.parametrize("shape", [(1, 1), (2, 2), (3, 3), (3, 5), (32, 32)])
@pytest.mark.parametrize("spacing", [(1.0, 1.0), (0.7, 1.3)])
def test_lap_matches_roll_form(shape, spacing):
    f = np.random.default_rng(14).standard_normal(shape)
    # a 0.0 whose neighbours are -0.0 has -0.0 for each axis's term, which
    # the roll form's sum onto zeros ends as 0.0
    signed = np.full(shape, -0.0)
    signed[1 % shape[0], 1 % shape[1]] = 0.0
    for field in (f, signed):
        assert (dg._lap(field, spacing).tobytes()
                == _roll_lap(field, spacing).tobytes())


def _array_rhs(preset):
    p = preset.params
    if preset.name == "rossler":
        def rhs(x):
            u, v, w = x[..., 0], x[..., 1], x[..., 2]
            return np.stack([-v - w, u + p["a"] * v,
                             p["b"] + w * (u - p["c"])], axis=-1)
    elif preset.name == "lorenz":
        def rhs(x):
            u, v, w = x[..., 0], x[..., 1], x[..., 2]
            return np.stack([p["sigma"] * (v - u),
                             u * (p["rho"] - w) - v,
                             u * v - p["beta"] * w], axis=-1)
    elif preset.name == "diffusion_source":
        def rhs(x):
            u, v = x[..., 0], x[..., 1]
            return np.stack([p["D"] * _roll_lap(u, preset.spacing) + v,
                             -p["k"] * v], axis=-1)
    else:
        def rhs(x):
            u, v = x[..., 0], x[..., 1]
            du = p["Du"] * _roll_lap(u, preset.spacing) + \
                p["alpha"] * u - p["beta"] * u * v
            dv = p["Dv"] * _roll_lap(v, preset.spacing) + \
                p["delta"] * u * v - p["gamma"] * v
            return np.stack([du, dv], axis=-1)
    return rhs


def _array_rk4_step(rhs, x, dt):
    k1 = rhs(x)
    k2 = rhs(x + 0.5 * dt * k1)
    k3 = rhs(x + 0.5 * dt * k2)
    k4 = rhs(x + dt * k3)
    return x + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)


def _array_integrate(rhs, x0, n_steps, dt, substeps=10):
    x = np.array(x0, dtype=np.float64)
    out = np.empty((n_steps,) + x.shape)
    out[0] = x
    sub = dt / substeps
    for i in range(1, n_steps):
        for _ in range(substeps):
            x = _array_rk4_step(rhs, x, sub)
        out[i] = x
    return out


@pytest.mark.parametrize("name,kw", [
    ("rossler", {"n_time": 60}), ("lorenz", {"n_time": 60}),
    ("diffusion_source", {"n_time": 12, "nx": 8}),
    ("diffusive_lv", {"n_time": 12, "nx": 8}),
    *[(name, {"n_time": 12, "nx": nx})
      for name in ("diffusion_source", "diffusive_lv") for nx in (1, 2, 3)]])
def test_simulate_matches_array_rk4(name, kw):
    preset = small(name, **kw)
    if preset.burn_in:
        # a short transient keeps the burn-in in the check at little cost
        preset = dataclasses.replace(preset, burn_in=2.0)
    ds = dg.simulate(preset, seed=3)
    rhs = _array_rhs(preset)
    x0 = dg.initial_condition(preset, np.random.default_rng(3))
    if preset.burn_in:
        x0 = _array_integrate(rhs, x0, 200, preset.dt)[-1]
    ref = _array_integrate(rhs, x0, preset.n_time, preset.dt)
    hid = [j for j in range(preset.state_dim) if j not in preset.visible]
    assert np.array_equal(ds.visible_raw, ref[..., preset.visible])
    assert np.array_equal(ds.hidden_truth, ref[..., hid])
