"""Hidden-state reconstruction from windows of visible states.

Three encoder kinds:

  temporal_conv        1D time-wise conv stack (kernels 9-1-1) for the ODE
                       systems; each hidden sample sees a 9-sample window
                       centered on its own time index.
  spatiotemporal_conv  3D conv stack (kernels 5-1-1, valid in time, periodic
                       in space) for the PDE systems.
  phase_embedding      one learnable phase per spacetime sample for the wave
                       system; no mapping is learned, only the values.

Hidden layers use tanh; the final layer is linear. The whole stack is one
tape node, `tensor.conv1d` or `tensor.conv3d` with the per-point layers
passed as `then`, which runs on the window of frames it is handed
(`train.Problem` tiles a field into windows) and rebuilds their patch
matrix in its VJP. It computes in its spec's `dtype`: float32 for the
PDE encoder, whose stack is most of a joint step, and float64 for the
others (the ODE encoder's distill solves normal equations with condition
numbers up to 1e12). The parameters are float64 whatever the dtype: they
are the master copy the optimizer updates and a checkpoint stores, and the
node casts them on the way in and hands back a float64 value and
gradients. With parameters that take no gradient, as `load_checkpoint`
hands them to `eval` and `predict`, it keeps no layer's outputs past the
next and makes no node. Aggregation rebuilds the full state from the
preset's observed channels: concatenation for a list of components,
|psi| e^{i phi} (as paired real channels) for the wave's modulus. The
penalty that ties the reconstructed hidden state to the model lives in
`train.Problem`, for every system alike.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from . import tensor as T

CHECKPOINT_MAGIC = b"SYMDERCK"
DTYPES = ("float32", "float64")     # a conv stack's arithmetic


@dataclass(frozen=True)
class EncoderSpec:
    kind: str                   # temporal_conv | spatiotemporal_conv | phase_embedding
    n_visible: int = 1
    n_hidden: int = 1
    kernels: tuple = ()
    widths: tuple = ()
    shape: tuple = ()           # phase_embedding: full (t, x) grid shape
    dtype: str = "float64"      # the conv stack's arithmetic, one of DTYPES


def ode_encoder_spec(n_visible, width):
    return EncoderSpec(kind="temporal_conv", n_visible=n_visible,
                       kernels=(9, 1, 1), widths=(width, width, 1))


def pde_encoder_spec(n_visible, width):
    return EncoderSpec(kind="spatiotemporal_conv", n_visible=n_visible,
                       kernels=(5, 1, 1), widths=(width, width, 1),
                       dtype="float32")


def phase_embedding_spec(shape):
    return EncoderSpec(kind="phase_embedding", shape=tuple(shape))


def param_shapes(spec):
    """{name: shape} of the parameters an Encoder of `spec` holds, in the
    order it makes them. ValueError for a spec no Encoder builds: an
    unknown kind or dtype, or a size that is not a positive integer."""
    if spec.dtype not in DTYPES:
        raise ValueError(f"unknown encoder dtype {spec.dtype!r}")
    if spec.kind in ("temporal_conv", "spatiotemporal_conv"):
        nd = 1 if spec.kind == "temporal_conv" else 3
        shapes, cin = {}, spec.n_visible
        for i, w in enumerate(spec.widths):
            shapes[f"w{i}"] = (spec.kernels[0],) * nd + (cin, w) if i == 0 \
                else (cin, w)
            shapes[f"b{i}"] = (w,)
            cin = w
    elif spec.kind == "phase_embedding":
        shapes = {"phi": tuple(spec.shape)}
    else:
        raise ValueError(f"unknown encoder kind {spec.kind!r}")
    if not all(isinstance(n, (int, np.integer)) and n > 0
               for s in shapes.values() for n in s):
        raise ValueError(f"parameter shapes {list(shapes.values())} are not "
                         "of positive integers")
    return shapes


class Encoder:
    """Parameter container + forward pass for one EncoderSpec. A conv
    encoder's weights start uniform in +-1/sqrt(fan-in), drawn from `seed`,
    its biases at zero; a phase embedding's phases at zero. Given `values`,
    {name: array} of every parameter, the parameters take those instead,
    and nothing is drawn."""

    def __init__(self, spec: EncoderSpec, seed=0, values=None):
        self.spec = spec
        self.seed = seed
        self.params = {}
        shapes = param_shapes(spec)
        if values is None:
            values, rng = {}, np.random.default_rng(seed)
            for name, shape in shapes.items():
                if name.startswith("w"):
                    s = 1.0 / np.sqrt(np.prod(shape[:-1]))
                    values[name] = rng.uniform(-s, s, shape)
                else:
                    values[name] = np.zeros(shape)
        for name, shape in shapes.items():
            self._add(name, np.reshape(values[name], shape))

    def _add(self, name, value):
        self.params[name] = T.Tensor(np.asarray(value, dtype=np.float64),
                                     requires_grad=True)

    def parameters(self):
        return list(self.params.items())

    @property
    def receptive_field(self):
        return 1 if self.spec.kind == "phase_embedding" else self.spec.kernels[0]

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
        n_layers = len(spec.widths)
        (w, b, tanh), *then = [
            (self.params[f"w{i}"], self.params[f"b{i}"], i < n_layers - 1)
            for i in range(n_layers)]
        conv = T.conv1d if spec.kind == "temporal_conv" else T.conv3d
        return conv(visible, w, b=b, tanh=tanh, then=then, dtype=spec.dtype)


def aggregate(observed, visible, hidden):
    """Rebuild the full state from time-aligned visible and hidden parts.

    observed (the preset's `visible`) a list of components: plain
    concatenation along the component axis.
    observed "modulus": visible = |psi| (trailing axis 1), hidden = phase;
    returns (re, im) channels of |psi| e^{i phi}.
    """
    visible = T.as_tensor(visible)
    hidden = T.as_tensor(hidden)
    if hidden.ndim == visible.ndim - 1:
        hidden = T.reshape(hidden, hidden.shape + (1,))
    if visible.shape[:-1] != hidden.shape[:-1]:
        raise ValueError(
            f"aggregate: misaligned shapes {visible.shape} vs {hidden.shape}")
    if observed != "modulus":
        return T.concat([visible, hidden], axis=-1)
    mod = visible[..., 0]
    phi = hidden[..., 0]
    re = T.mul(mod, T.cos(phi))
    im = T.mul(mod, T.sin(phi))
    return T.concat([T.reshape(re, re.shape + (1,)),
                     T.reshape(im, im.shape + (1,))], axis=-1)


# ---------------------------------------------------------------------------
# checkpoints: JSON header + little-endian f64 parameter blob
# ---------------------------------------------------------------------------

def save_checkpoint(encoder, path):
    """File layout: 8-byte magic, u64-LE header length, JSON header (spec,
    seed, per-parameter shapes and f64 offsets), then the parameter blob.
    The header's spec leaves out the default dtype, float64, so a float64
    encoder's file is what it was before specs had one."""
    names = sorted(encoder.params)
    spec = asdict(encoder.spec)
    if spec["dtype"] == "float64":
        del spec["dtype"]
    header = {"spec": spec, "seed": encoder.seed, "params": []}
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
    """The encoder a checkpoint holds, with frozen parameters: they take no
    gradient, so its forward keeps no tape. The parameters are the blob's,
    and no seeded start is drawn; the header's seed is kept. A header
    without a dtype is a float64 encoder's. CheckpointError unless the
    header's spec builds an Encoder whose parameters the records name once
    each, with their shapes, at offsets that tile the blob, every value is
    finite and the seed is a non-negative integer."""
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
        shapes = param_shapes(spec)
        seed = header["seed"]
        if type(seed) is not int or seed < 0:
            raise ValueError(f"seed {seed!r}")
        records = sorted((r["offset"], r["name"], r["shape"])
                         for r in header["params"])
    except (IndexError, KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: malformed checkpoint ({e})") from e
    names = [name for _, name, _ in records]
    if sorted(names, key=str) != sorted(shapes):
        raise CheckpointError(f"{path}: parameters {names}, its spec's "
                              f"{sorted(shapes)}")
    end = 0
    for offset, name, shape in records:
        if shape != list(shapes[name]):
            raise CheckpointError(f"{path}: parameter {name} of shape "
                                  f"{shape}, its spec's {list(shapes[name])}")
        if type(offset) is not int or offset != end:
            raise CheckpointError(f"{path}: parameter {name} at offset "
                                  f"{offset}, where the blob's next value "
                                  f"is {end}")
        end += int(np.prod(shape))
    if len(raw) - 16 - hlen != 8 * end:
        raise CheckpointError(f"{path}: blob of {len(raw) - 16 - hlen} "
                              f"bytes, its header's parameters take "
                              f"{8 * end}")
    blob = np.frombuffer(raw[16 + hlen:], dtype="<f8")
    if not np.isfinite(blob).all():
        raise CheckpointError(f"{path}: parameter values that are not "
                              "finite")
    enc = Encoder(spec, seed=seed, values={
        name: blob[offset:offset + int(np.prod(shape))].astype(np.float64)
        for offset, name, shape in records})
    for p in enc.params.values():
        p.requires_grad = False
    return enc
