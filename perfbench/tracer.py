"""Traced symder command: wraps the public functions of each layer in spans,
runs one `symder` subcommand in this process, and writes the spans out.

    python3 perfbench/tracer.py --spans FILE -- train --data D --out R ...

The spans are kept in memory as [name, start, end, parent] (parent is the
index of the enclosing span, -1 at top level) and written to FILE as JSON
when the command ends, together with the counters taken at the same
boundaries. Nothing in the program is changed on disk; the wrappers are
installed from outside after import.
"""

import argparse
import functools
import json
import sys
import time

from symder import cli, datagen, encoders, evaluate, fd, jets, library, \
    recover, tensor, train

# span name -> (owner, attribute); owners are modules or classes
TRACED = {
    "datagen.integrate": (datagen, "integrate"),
    "datagen.Dataset.save": (datagen.Dataset, "save"),
    "datagen.Dataset.load": (datagen.Dataset, "load"),
    "fd.time_derivative": (fd, "time_derivative"),
    "tensor.backward": (tensor, "backward"),
    "tensor.conv1d": (tensor, "conv1d"),
    "tensor.conv3d": (tensor, "conv3d"),
    "jets.propagate": (jets, "propagate"),
    "jets.visible_derivatives": (jets, "visible_derivatives"),
    "library.SymbolicModel.evaluate_components":
        (library.SymbolicModel, "evaluate_components"),
    "encoders.Encoder.__call__": (encoders.Encoder, "__call__"),
    "encoders.save_checkpoint": (encoders, "save_checkpoint"),
    "train.Problem.compute_loss": (train.Problem, "compute_loss"),
    "train.GradientOptimizer.step": (train.GradientOptimizer, "step"),
    "train.fit": (train, "fit"),
    "train.write_history": (train, "write_history"),
    "recover.EmbeddingRecovery.run": (recover.EmbeddingRecovery, "run"),
    "recover.EmbeddingRecovery.loss_fn":
        (recover.EmbeddingRecovery, "loss_fn"),
    "recover.EmbeddingRecovery.gauge_standardize":
        (recover.EmbeddingRecovery, "gauge_standardize"),
    "recover.EmbeddingRecovery.gauge_orthogonalize":
        (recover.EmbeddingRecovery, "gauge_orthogonalize"),
    "recover.EmbeddingRecovery.stlsq": (recover.EmbeddingRecovery, "stlsq"),
    "recover.EmbeddingRecovery.ls_fit": (recover.EmbeddingRecovery, "ls_fit"),
    "recover.distill": (recover, "distill"),
    "evaluate.evaluate_run": (evaluate, "evaluate_run"),
    "evaluate.affine_align": (evaluate, "affine_align"),
    "evaluate.compare_equations": (evaluate, "compare_equations"),
    "cli.load_dataset": (cli, "load_dataset"),
    "cli.load_run": (cli, "load_run"),
}
MODULES = (cli, datagen, encoders, evaluate, fd, jets, library, recover,
           tensor, train)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counters = {"datagen.rk4_steps": 0, "tensor.conv_flops": 0}

    def wrap(self, name, fn, before=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx][1], spans[idx][2] = t0, t1
        return traced

    # counters, taken before the span starts so they add to the overhead
    # only, not to the layer's time

    def count_rk4(self, args, kwargs):
        n_steps = args[2] if len(args) > 2 else kwargs["n_steps"]
        substeps = args[4] if len(args) > 4 else kwargs.get("substeps", 10)
        self.counters["datagen.rk4_steps"] += (n_steps - 1) * substeps

    def count_conv1d(self, args, kwargs):
        x, w = args[0], args[1]
        k, cin, cout = w.shape
        padding = args[2] if len(args) > 2 else kwargs.get("padding", "valid")
        tout = x.shape[0] - k + 1 if padding == "valid" else x.shape[0]
        self.counters["tensor.conv_flops"] += 2 * tout * k * cin * cout

    def count_conv3d(self, args, kwargs):
        x, w = args[0], args[1]
        kt, kx, ky, cin, cout = w.shape
        t, nx, ny = x.shape[0], x.shape[1], x.shape[2]
        self.counters["tensor.conv_flops"] += \
            2 * (t - kt + 1) * nx * ny * kt * kx * ky * cin * cout

    def tape_size(self, args, kwargs):
        """Nodes and array megabytes of the first loss's graph, walked from
        the loss through every node's parents."""
        if "tensor.tape_nodes" in self.counters:
            return
        seen, stack, nbytes = set(), [args[0]], 0
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            nbytes += node.data.nbytes
            stack.extend(p for p, _ in node._parents)
        self.counters["tensor.tape_nodes"] = len(seen)
        self.counters["tensor.tape_mb"] = nbytes / 2 ** 20

    def install(self):
        hooks = {"datagen.integrate": self.count_rk4,
                 "tensor.conv1d": self.count_conv1d,
                 "tensor.conv3d": self.count_conv3d,
                 "tensor.backward": self.tape_size}
        replaced = {}
        for name, (owner, attr) in TRACED.items():
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(
                    self.wrap(name, raw.__func__, hooks.get(name))))
                continue
            traced = self.wrap(name, raw, hooks.get(name))
            setattr(owner, attr, traced)
            replaced[id(raw)] = traced
        # names bound by `from .x import f` in other modules
        for mod in MODULES:
            for key, val in list(vars(mod).items()):
                if id(val) in replaced and callable(val):
                    setattr(mod, key, replaced[id(val)])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--spans", required=True)
    ap.add_argument("command", nargs=argparse.REMAINDER)
    a = ap.parse_args()
    argv = a.command[1:] if a.command[:1] == ["--"] else a.command
    tracer = Tracer()
    tracer.install()
    code = cli.main(argv)
    with open(a.spans, "w") as f:
        json.dump({"spans": tracer.spans, "counters": tracer.counters}, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
