"""Per-layer tracing from outside the package.

A traced run replaces public functions of the package modules with timing
wrappers (module attributes, so every caller that looks the name up through
its module sees the wrapper) and restores them afterwards.  When a wrapped
function returns tensors, the backward rules of the graph nodes it created
are wrapped too, so the backward sweep charges each rule to the layer that
built the node.  Nothing inside the package changes.

Numbers accumulate per window: one optimisation step of ``training.train``
or one ``infer`` call.  A layer called again inside itself (``down2`` calls
``resize``, ``wpt`` calls ``dwt2``) is timed once, by its outer call.
"""

from __future__ import annotations

import dataclasses
import statistics
import time
from collections import defaultdict

_NO_KEYS: frozenset = frozenset()

ELEMENTWISE = ("add", "sub", "mul", "elementwise", "scale", "abs_", "sqrt_", "sin_", "cos_",
               "atan2_", "sum_all", "mean_all", "silu", "channel_scale")
STRUCTURAL = ("concat_channels", "slice_channels", "resize", "down2", "up2")
WAVELET = ("dwt2", "idwt2", "wpt", "iwpt", "arrange_bands", "split_bands")

# (module, attribute names, layer key, time the backward rules of its nodes)
LAYERS = [
    ("tensor", ("conv2d",), "tensor.conv2d", True),
    ("tensor", ("pointwise_conv",), "tensor.pointwise_conv", True),
    ("tensor", ("layer_norm",), "tensor.layer_norm", True),
    ("tensor", ELEMENTWISE, "tensor.elementwise", True),
    ("tensor", STRUCTURAL, "tensor.structural", True),
    ("scan", ("scan2d",), "scan.scan2d", True),
    ("scan", ("spatial_mamba",), "scan.spatial_mamba", False),
    ("scan", ("freq_mamba",), "scan.freq_mamba", False),
    ("wavelet", WAVELET, "wavelet", True),
    ("fourier", ("dft2",), "fourier.dft2", True),
    ("fourier", ("idft2",), "fourier.idft2", True),
    ("fourier", ("fourier_branch",), "fourier.fourier_branch", False),
    ("blocks", ("spatial_branch",), "blocks.spatial_branch", True),
    ("blocks", ("band_branch",), "blocks.band_branch", True),
    ("blocks", ("attention_map",), "blocks.attention_map", True),
    ("model", ("forward",), "model.forward", False),
    ("model", ("load",), "model.load", False),
    ("training", ("loss_total",), "training.loss_total", False),
    ("training", ("adam_step",), "training.adam_step", False),
    ("training", ("synth_rain",), "training.synth_rain", False),
    ("training", ("psnr_y",), "training.psnr_y", False),
    ("training", ("ssim_y",), "training.ssim_y", False),
    ("ppm", ("read_ppm",), "ppm.read_ppm", False),
    ("ppm", ("write_ppm",), "ppm.write_ppm", False),
]

# Names that other modules bound with ``from .x import y``: (module, name, wrapper of).
ALIASES = [
    ("cli", "read_ppm", ("ppm", "read_ppm")),
    ("cli", "write_ppm", ("ppm", "write_ppm")),
    ("training", "read_ppm", ("ppm", "read_ppm")),
]


def _tensors(obj, tensor_type, depth=0):
    """Every Tensor reachable through containers and dataclass fields of obj."""
    if isinstance(obj, tensor_type):
        yield obj
    elif depth > 6:
        return
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _tensors(item, tensor_type, depth + 1)
    elif isinstance(obj, dict):
        for item in obj.values():
            yield from _tensors(item, tensor_type, depth + 1)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            yield from _tensors(getattr(obj, f.name), tensor_type, depth + 1)


class Tracer:
    """Installs the wrappers, owns the windows and turns them into metrics."""

    def __init__(self, pkg):
        self.pkg = pkg
        self.tensor_type = pkg.tensor.Tensor
        self.active: set[str] = set()
        self.window: dict | None = None
        self.window_start = 0.0
        self.window_is_step = False
        self.windows: list[dict] = []
        self.calls: dict[str, list[float]] = defaultdict(list)
        self._undo: list[tuple[object, str, object]] = []

    # -- windows ------------------------------------------------------------

    def open_window(self, step: bool = False) -> None:
        """Start a window: a training step (step=True) or one infer call."""
        self.window = defaultdict(float)
        self.window_start = time.perf_counter()
        self.window_is_step = step

    def close_window(self, keep: bool = True) -> None:
        if self.window is not None and keep:
            w = self.window
            w["tensor.backward_self_s"] = w["tensor.backward_s"] - w["tensor.rules_s"]
            self.windows.append(dict(w))
        self.window = None

    def _add(self, name: str, value: float) -> None:
        if self.window is not None:
            self.window[name] += value

    def window_median(self, name: str) -> float:
        vals = [w.get(name, 0.0) for w in self.windows]
        return statistics.median(vals) if vals else 0.0

    def call_median(self, key: str) -> float:
        vals = self.calls.get(key)
        return statistics.median(vals) if vals else 0.0

    # -- wrappers -----------------------------------------------------------

    def install(self) -> None:
        wrapped = {}
        for mod_name, names, key, rules in LAYERS:
            mod = getattr(self.pkg, mod_name)
            for name in names:
                fn = self._wrap(key, getattr(mod, name), rules)
                wrapped[(mod_name, name)] = fn
                self._patch(mod, name, fn)
        for mod_name, name, target in ALIASES:
            self._patch(getattr(self.pkg, mod_name), name, wrapped[target])
        # blocks calls the Fourier branch through its own name: time it as
        # the block's branch, around the fourier module's own wrapper
        self._patch(self.pkg.blocks, "fourier_branch",
                    self._wrap("blocks.fourier_branch", wrapped[("fourier", "fourier_branch")],
                               True))
        self._patch(self.pkg.training, "backward", self._wrap_backward(self.pkg.tensor.backward))

    def uninstall(self) -> None:
        for mod, name, orig in reversed(self._undo):
            setattr(mod, name, orig)
        self._undo.clear()

    def _patch(self, mod, name, fn) -> None:
        self._undo.append((mod, name, getattr(mod, name)))
        setattr(mod, name, fn)

    def _wrap(self, key, fn, rules):
        tracer = self

        def traced(*args, **kwargs):
            if key in tracer.active:
                return fn(*args, **kwargs)
            if key == "model.forward" and tracer.window_is_step and tracer.window is not None \
                    and "training.batch_s" not in tracer.window:
                tracer.window["training.batch_s"] = time.perf_counter() - tracer.window_start
            tracer.active.add(key)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer.active.discard(key)
            tracer.calls[key].append(dt)
            tracer._add(f"{key}.fwd_s", dt)
            tracer._add(f"{key}.calls", 1)
            if rules:
                tracer._claim(key, out, args, kwargs)
            return out

        return traced

    def _claim(self, key, out, args, kwargs) -> None:
        """Wrap the backward rules of the nodes this call created."""
        inputs = {id(t) for t in _tensors((args, kwargs), self.tensor_type)}
        seen = set()
        stack = list(_tensors(out, self.tensor_type))
        created = 0
        while stack:
            node = stack.pop()
            if id(node) in seen or id(node) in inputs or node.backward_rule is None:
                continue
            seen.add(id(node))
            if key not in getattr(node.backward_rule, "keys", _NO_KEYS):
                node.backward_rule = self._timed_rule(key, f"{key}.bwd_s", node.backward_rule)
                created += 1
            stack.extend(node.parents)
        self._add(f"{key}.nodes", created)

    def _timed_rule(self, key, name, rule):
        tracer = self

        def timed(g):
            t0 = time.perf_counter()
            grads = rule(g)
            tracer._add(name, time.perf_counter() - t0)
            return grads

        timed.keys = getattr(rule, "keys", _NO_KEYS) | {key}
        return timed

    def _wrap_backward(self, backward):
        """Tape size, graph bytes, sweep time and rule time of one backward call."""
        tracer = self

        def traced_backward(loss):
            nodes, nbytes, seen, stack = 0, 0, set(), [loss]
            while stack:
                node = stack.pop()
                if id(node) in seen or not node.requires_grad:
                    continue
                seen.add(id(node))
                nodes += 1
                if node.backward_rule is not None:
                    nbytes += node.data.nbytes
                    # outermost wrapper: raw rule time, to split off the sweep's own time
                    node.backward_rule = tracer._timed_rule("tensor.rules", "tensor.rules_s",
                                                            node.backward_rule)
                stack.extend(node.parents)
            tracer._add("tensor.tape_nodes", nodes)
            tracer._add("tensor.graph_mb", nbytes / 1e6)
            t0 = time.perf_counter()
            backward(loss)
            tracer._add("tensor.backward_s", time.perf_counter() - t0)

        return traced_backward
