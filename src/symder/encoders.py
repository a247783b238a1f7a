"""Hidden-state reconstruction from windows of visible states.

Three encoder kinds:

  temporal_conv        1D time-wise conv stack (kernels 9-1-1) for the ODE
                       systems; each hidden sample sees a 9-sample window
                       centered on its own time index.
  spatiotemporal_conv  3D conv stack (kernels 5-1-1, valid in time, periodic
                       in space) for the PDE systems.
  phase_embedding      one learnable phase per spacetime sample for the wave
                       system; no mapping is learned, only the values.

Hidden layers use tanh; the final layer is linear. Each layer is one tape
node: `tensor.conv1d`, `tensor.conv3d` or `tensor.linear` with the bias and
the activation fused in. Aggregation rebuilds the full state: concatenation
for subset projections, |psi| e^{i phi} (as paired real channels) for the
wave system.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from . import tensor as T

CHECKPOINT_MAGIC = b"SYMDERCK"


@dataclass(frozen=True)
class EncoderSpec:
    kind: str                   # temporal_conv | spatiotemporal_conv | phase_embedding
    n_visible: int = 1
    n_hidden: int = 1
    kernels: tuple = ()
    widths: tuple = ()
    shape: tuple = ()           # phase_embedding: full (t, x) grid shape


def ode_encoder_spec(n_visible=2, width=128):
    return EncoderSpec(kind="temporal_conv", n_visible=n_visible,
                       kernels=(9, 1, 1), widths=(width, width, 1))


def pde_encoder_spec(n_visible=1, width=64):
    return EncoderSpec(kind="spatiotemporal_conv", n_visible=n_visible,
                       kernels=(5, 1, 1), widths=(width, width, 1))


def phase_embedding_spec(shape):
    return EncoderSpec(kind="phase_embedding", shape=tuple(shape))


class Encoder:
    """Parameter container + forward pass for one EncoderSpec."""

    def __init__(self, spec: EncoderSpec, seed=0):
        self.spec = spec
        self.seed = seed
        self.params = {}
        rng = np.random.default_rng(seed)
        if spec.kind == "temporal_conv":
            k = spec.kernels[0]
            cin = spec.n_visible
            for i, w in enumerate(spec.widths):
                if i == 0:
                    fan_in = k * cin
                    wshape = (k, cin, w)
                else:
                    fan_in = cin
                    wshape = (cin, w)
                s = 1.0 / np.sqrt(fan_in)
                self._add(f"w{i}", rng.uniform(-s, s, wshape))
                self._add(f"b{i}", np.zeros(w))
                cin = w
        elif spec.kind == "spatiotemporal_conv":
            k = spec.kernels[0]
            cin = spec.n_visible
            for i, w in enumerate(spec.widths):
                if i == 0:
                    fan_in = k ** 3 * cin
                    wshape = (k, k, k, cin, w)
                else:
                    fan_in = cin
                    wshape = (cin, w)
                s = 1.0 / np.sqrt(fan_in)
                self._add(f"w{i}", rng.uniform(-s, s, wshape))
                self._add(f"b{i}", np.zeros(w))
                cin = w
        elif spec.kind == "phase_embedding":
            self._add("phi", np.zeros(spec.shape))
        else:
            raise ValueError(f"unknown encoder kind {spec.kind!r}")

    def _add(self, name, value):
        self.params[name] = T.Tensor(np.asarray(value, dtype=np.float64),
                                     requires_grad=True)

    def parameters(self):
        return list(self.params.items())

    @property
    def receptive_field(self):
        if self.spec.kind == "temporal_conv":
            return self.spec.kernels[0]
        if self.spec.kind == "spatiotemporal_conv":
            return self.spec.kernels[0]
        return 1

    @property
    def radius(self):
        return (self.receptive_field - 1) // 2

    def __call__(self, visible):
        """visible: Tensor (t[, x, y], n_visible) -> hidden estimate at the
        window centers, time length t - (receptive_field - 1)."""
        visible = T.as_tensor(visible)
        spec = self.spec
        if spec.kind == "phase_embedding":
            return self.params["phi"]
        if visible.shape[0] < self.receptive_field:
            raise ValueError(
                f"window length {visible.shape[0]} shorter than receptive "
                f"field {self.receptive_field}")
        h = visible
        n_layers = len(spec.widths)
        for i in range(n_layers):
            w, b = self.params[f"w{i}"], self.params[f"b{i}"]
            hidden = i < n_layers - 1
            if i > 0:
                h = T.linear(h, w, b=b, tanh=hidden)
            elif spec.kind == "temporal_conv":
                h = T.conv1d(h, w, b=b, tanh=hidden)
            else:
                h = T.conv3d(h, w, b=b, tanh=hidden)
        return h


def aggregate(kind, visible, hidden):
    """Rebuild the full state from time-aligned visible and hidden parts.

    kind "concat": plain concatenation along the component axis.
    kind "modulus_phase": visible = |psi| (trailing axis 1), hidden = phase;
    returns (re, im) channels of |psi| e^{i phi}.
    """
    visible = T.as_tensor(visible)
    hidden = T.as_tensor(hidden)
    if hidden.ndim == visible.ndim - 1:
        hidden = T.reshape(hidden, hidden.shape + (1,))
    if visible.shape[:-1] != hidden.shape[:-1]:
        raise ValueError(
            f"aggregate: misaligned shapes {visible.shape} vs {hidden.shape}")
    if kind == "concat":
        return T.concat([visible, hidden], axis=-1)
    if kind == "modulus_phase":
        mod = visible[..., 0]
        phi = hidden[..., 0]
        re = T.mul(mod, T.cos(phi))
        im = T.mul(mod, T.sin(phi))
        return T.concat([T.reshape(re, re.shape + (1,)),
                         T.reshape(im, im.shape + (1,))], axis=-1)
    raise ValueError(f"unknown aggregation kind {kind!r}")


def phase_regularizer(psi_hat, model, beta, dt):
    """Penalty tying the symbolic d psi/dt of the reconstructed wave to its
    central finite difference in time. psi_hat: Tensor (t, x, 2)."""
    if beta == 0.0:
        return T.Tensor(0.0)
    if psi_hat.shape[0] < 3:
        raise ValueError("phase regularizer needs >= 3 consecutive samples")
    sym = model.evaluate(psi_hat)                      # model-time units
    sym = T.mul(sym, 1.0 / (model.s_t * dt))           # -> physical time
    diff = T.mul(T.sub(psi_hat[2:], psi_hat[:-2]), 1.0 / (2 * dt))
    resid = T.sub(sym[1:-1], diff)
    return T.mul(T.tmean(T.square(resid)), 2.0 * beta)  # sum re^2+im^2 halves


# ---------------------------------------------------------------------------
# checkpoints: JSON header + little-endian f64 parameter blob
# ---------------------------------------------------------------------------

def save_checkpoint(encoder, path):
    """File layout: 8-byte magic, u64-LE header length, JSON header (spec,
    seed, per-parameter shapes and f64 offsets), then the parameter blob."""
    names = sorted(encoder.params)
    header = {"spec": asdict(encoder.spec), "seed": encoder.seed,
              "params": []}
    offset = 0
    for name in names:
        arr = encoder.params[name].data
        header["params"].append({"name": name, "shape": list(arr.shape),
                                 "offset": offset})
        offset += arr.size
    blob = np.concatenate([encoder.params[n].data.reshape(-1)
                           for n in names]) if names else np.zeros(0)
    head = json.dumps(header).encode()
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<Q", len(head)))
        f.write(head)
        f.write(blob.astype("<f8").tobytes())


class CheckpointError(ValueError):
    pass


def load_checkpoint(path):
    raw = Path(path).read_bytes()
    if len(raw) < 16 or raw[:8] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not an encoder checkpoint")
    (hlen,) = struct.unpack("<Q", raw[8:16])
    try:
        header = json.loads(raw[16:16 + hlen])
        spec_doc = dict(header["spec"])
        for key in ("kernels", "widths", "shape"):
            spec_doc[key] = tuple(spec_doc[key])
        spec = EncoderSpec(**spec_doc)
        enc = Encoder(spec, seed=header["seed"])
        if len(raw) != 16 + hlen + 8 * sum(
                int(np.prod(r["shape"])) for r in header["params"]):
            raise CheckpointError(f"{path}: blob size disagrees with header")
        blob = np.frombuffer(raw[16 + hlen:], dtype="<f8")
        for rec in header["params"]:
            shape = tuple(rec["shape"])
            n = int(np.prod(shape)) if shape else 1
            enc.params[rec["name"]].data = \
                blob[rec["offset"]:rec["offset"] + n].reshape(shape).copy()
    except (KeyError, TypeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{path}: malformed checkpoint ({e})") from e
    return enc
