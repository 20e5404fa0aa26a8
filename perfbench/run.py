#!/usr/bin/env python3
"""Benchmark of the freqmamba package: training steps and 256x256 restoration.

One workload, untraced (end-to-end metrics) or traced (per-layer metrics);
the last line of standard output is the result as one JSON object:

    python3 perfbench/run.py --workload train_32x8 --seed 1 --seconds 20 --trace 0

Every workload, each in its own process, untraced and then traced, with a
summary table and the tracing overhead:

    python3 perfbench/run.py

Each check against its deliberately perturbed layer, at tiny sizes:

    python3 perfbench/run.py --self-test

See README.md in this directory for the workloads, metrics and checks.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread and one eval worker: set before numpy loads its BLAS.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "FREQMAMBA_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import bisect  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import oracles  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

# Sizes of each workload.  A round is whole: `steps` optimisation steps of
# one training.train call plus one eval, or one infer per pair plus one eval.
WORKLOADS = {
    "train_32x8": {"kind": "train", "patch": 32, "batch": 8, "steps": 4, "image_size": 64,
                   "eval_pairs": 4},
    "train_64x4": {"kind": "train", "patch": 64, "batch": 4, "steps": 3, "image_size": 64,
                   "eval_pairs": 2},
    "restore_256": {"kind": "restore", "size": 256, "pairs": 1},
}
TINY = {
    "train_32x8": {"kind": "train", "patch": 16, "batch": 2, "steps": 2, "image_size": 32,
                   "eval_pairs": 1},
    "train_64x4": {"kind": "train", "patch": 32, "batch": 1, "steps": 2, "image_size": 32,
                   "eval_pairs": 1},
    "restore_256": {"kind": "restore", "size": 32, "pairs": 1},
}
N_TRAIN_IMAGES = 16
SETUP_REPEATS = 7
HEAD_STD = 0.005          # seeded non-zero head of the restore checkpoint
IDENTITY_SIZE = 32
FD_STEPS = (1e-6, 1e-7)
FD_DIRECTIONS = 3
FD_RTOL = 1e-5
FD_ATOL = 1e-9
SCAN_RTOL = 1e-9
LOSS_RTOL = 1e-10
# eval prints PSNR with 2 and SSIM with 4 decimals
PRINT_TOL = {"psnr": 0.0051, "ssim": 0.000051}
# restore compares eval (float outputs) with the 8-bit images infer wrote;
# quantisation moves PSNR by ~3e-3 dB and SSIM by ~5e-4 on these images
QUANT_TOL = {"psnr": 0.02, "ssim": 0.002}

E2E_UNITS = {"setup_s": "s", "op_s": "s", "eval_pair_s": "s", "peak_rss_mb": "MB"}
OPS = ("conv2d", "pointwise_conv", "layer_norm", "elementwise", "structural")
BRANCHES = ("spatial_branch", "band_branch", "fourier_branch", "attention_map")
# per-layer metric -> window field (median over steps or infer calls)
WINDOW_METRICS = {
    "tensor.tape_nodes": "tensor.tape_nodes",
    "tensor.backward_s": "tensor.backward_s",
    "tensor.backward_self_s": "tensor.backward_self_s",
    "tensor.graph_mb": "tensor.graph_mb",
    **{f"tensor.{op}.{f}": f"tensor.{op}.{f}" for op in OPS for f in ("fwd_s", "bwd_s", "calls")},
    **{f"scan.scan2d.{f}": f"scan.scan2d.{f}" for f in ("fwd_s", "bwd_s", "calls")},
    "scan.spatial_mamba.fwd_s": "scan.spatial_mamba.fwd_s",
    "scan.freq_mamba.fwd_s": "scan.freq_mamba.fwd_s",
    "wavelet.fwd_s": "wavelet.fwd_s",
    "wavelet.bwd_s": "wavelet.bwd_s",
    "wavelet.nodes": "wavelet.nodes",
    **{f"fourier.{op}.{f}": f"fourier.{op}.{f}" for op in ("dft2", "idft2")
       for f in ("fwd_s", "bwd_s", "calls")},
    "fourier.fourier_branch.fwd_s": "fourier.fourier_branch.fwd_s",
    **{f"blocks.{b}.{f}": f"blocks.{b}.{f}" for b in BRANCHES for f in ("fwd_s", "bwd_s")},
    "model.forward_s": "model.forward.fwd_s",
    "training.loss_total_s": "training.loss_total.fwd_s",
    "training.adam_step_s": "training.adam_step.fwd_s",
    "training.batch_s": "training.batch_s",
}
# per-layer metric -> wrapped function (median over all its calls)
CALL_METRICS = {
    "model.load_s": "model.load",
    "training.synth_rain_s": "training.synth_rain",
    "training.psnr_y_s": "training.psnr_y",
    "training.ssim_y_s": "training.ssim_y",
    "ppm.read_ppm_s": "ppm.read_ppm",
    "ppm.write_ppm_s": "ppm.write_ppm",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "count"


# ---------------------------------------------------------------------------
# package loading and small helpers


def import_package():
    """Import the package afresh from src/ (earlier copies are dropped)."""
    for name in [m for m in sys.modules if m == "freqmamba" or m.startswith("freqmamba.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("freqmamba")
    for sub in ("tensor", "scan", "wavelet", "fourier", "blocks", "model", "training", "ppm",
                "cli"):
        importlib.import_module(f"freqmamba.{sub}")
    return pkg


def run_cli(pkg, argv: list[str]) -> tuple[int, str]:
    """Call cli.main in-process; returns the exit code and captured output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        rc = pkg.cli.main(argv)
    return rc, buf.getvalue()


def parse_eval(text: str) -> tuple[float, float]:
    m = re.search(r"mean PSNR (\S+) dB, mean SSIM (\S+)", text)
    if m is None:
        raise ValueError(f"no eval summary in output: {text!r}")
    return float(m.group(1)), float(m.group(2))


@contextlib.contextmanager
def patched(mod, name, fn):
    orig = getattr(mod, name)
    setattr(mod, name, fn)
    try:
        yield orig
    finally:
        setattr(mod, name, orig)


def write_pairs(folder: Path, pairs) -> list[str]:
    names = []
    for sub in ("rainy", "clean"):
        (folder / sub).mkdir(parents=True, exist_ok=True)
    for i, (rainy, clean, _) in enumerate(pairs):
        name = f"{i:03d}.ppm"
        oracles.write_ppm(folder / "rainy" / name, rainy)
        oracles.write_ppm(folder / "clean" / name, clean)
        names.append(name)
    return names


class HostProbe:
    """A fixed numpy computation, timed right before and after every measured operation.

    On the shared host the same computation runs up to 2x slower for a
    minute or more at a time, on both vCPUs at once, with CPU time equal to
    wall time.  A timing is therefore reported adjusted to host speed: its
    wall time times REF_S over the mean time of the probes just before and
    just after it.  REF_S is about the probe's time on the host in its usual
    state, so adjusted figures read close to plain seconds.  The probe uses
    no package code: a Python loop of small in-place ops (like the scan's
    time loop), exp over 8 MB, and a BLAS contraction.
    """

    REF_S = 0.1

    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = rng.uniform(0.5, 0.9, (4, 8, 8))
        self.big = rng.normal(size=1 << 20)
        self.buf = np.empty_like(self.big)
        self.x = rng.normal(size=(4, 16, 64, 64))
        self.w = rng.normal(size=(16, 16))
        self.starts: list[float] = []
        self.ends: list[float] = []

    def __call__(self) -> None:
        t0 = time.perf_counter()
        h = np.zeros_like(self.small)
        tmp = np.empty_like(h)
        for _ in range(24000):
            np.multiply(self.small, h, out=tmp)
            h += tmp
        for _ in range(12):
            np.exp(self.big * 1e-3, out=self.buf)
        for _ in range(20):
            np.einsum("nchw,oc->nohw", self.x, self.w, optimize=True)
        self.starts.append(t0)
        self.ends.append(time.perf_counter())

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def adjusted(self, start: float, end: float) -> float:
        """(end - start) at the host's usual speed, from the probes around it."""
        before = bisect.bisect_right(self.ends, start) - 1
        after = bisect.bisect_left(self.starts, end)
        probes = [self.ends[i] - self.starts[i] for i in (before, after)
                  if 0 <= i < len(self.starts)]
        return (end - start) * self.REF_S / statistics.mean(probes)


def host_adjusted(host: HostProbe, samples: list[tuple[float, float, int]]) -> float:
    """Median of host-adjusted (start, end, divisor) samples."""
    if not samples:
        return float("nan")
    return statistics.median(host.adjusted(a, b) / n for a, b, n in samples)


class ScanCapture:
    """Keeps a copy of the inputs and output of the first scan2d call.

    The first call of a forward pass is the degradation-prior scan of the
    full-resolution image: the longest sequence, four directions.
    """

    def __init__(self, scan):
        self.scan = scan
        self.call = None
        self.args = None

    @contextlib.contextmanager
    def active(self):
        orig = self.scan.scan2d

        def capture(f, params, orders):
            out = orig(f, params, orders)
            if self.call is None:
                dirs = [{"A_log": d.A_log.data.copy(), "proj_B": d.proj_B.data.copy(),
                         "proj_C": d.proj_C.data.copy(), "proj_delta": d.proj_delta.data.copy(),
                         "delta_bias": float(d.delta_bias.data)} for d in params.directions]
                perms = [p for o in orders for p in (o.forward.copy(), o.forward[::-1].copy())]
                self.call = (f.data.copy(), dirs, perms, params.skip.data.copy(), out.data.copy())
                self.args = (f.requires_grad, params, orders)
            return out

        with patched(self.scan, "scan2d", capture):
            yield

    def peak_mb(self, tensor) -> float:
        """tracemalloc peak of the captured call, run again on its inputs.

        tracemalloc slows the scan several times over, so the timed calls run
        without it and the peak comes from this one extra call.
        """
        grad, params, orders = self.args
        f = tensor.Tensor(self.call[0], requires_grad=grad)
        tracemalloc.start()
        try:
            self.scan.scan2d(f, params, orders)
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    def error(self) -> float:
        f, dirs, perms, skip, out = self.call
        ref = oracles.scan2d(f, dirs, perms, skip)
        return float(np.max(np.abs(ref - out)) / max(1.0, float(np.max(np.abs(out)))))


class StepClock:
    """Step boundaries and losses of one training.train call.

    A step runs from the end of the previous adam_step (or of the initial
    synth_rain) to the end of its own adam_step: batch assembly, forward,
    loss, backward and the update.  The host probe runs at each boundary,
    outside the steps' intervals.
    """

    def __init__(self, training, tracer, host, steps):
        self.training = training
        self.tracer = tracer
        self.host = host
        self.steps = steps
        self.step_s: list[tuple[float, float, int]] = []   # (start, end, 1)
        self.losses: list[float] = []
        self._last = 0.0

    @contextlib.contextmanager
    def active(self):
        tr = self.training
        synth, backward, adam = tr.synth_rain, tr.backward, tr.adam_step

        def on_synth(*args, **kwargs):
            out = synth(*args, **kwargs)
            self._boundary(first=True)
            return out

        def on_backward(loss):
            self.losses.append(float(loss.data))
            return backward(loss)

        def on_adam(*args, **kwargs):
            out = adam(*args, **kwargs)
            self._boundary(first=False)
            return out

        with patched(tr, "synth_rain", on_synth), patched(tr, "backward", on_backward), \
                patched(tr, "adam_step", on_adam):
            try:
                yield
            finally:
                if self.tracer is not None:
                    self.tracer.close_window(keep=False)

    def _boundary(self, first: bool) -> None:
        now = time.perf_counter()
        if not first:
            self.step_s.append((self._last, now, 1))
        if self.tracer is not None:
            self.tracer.close_window(keep=not first)
        self.host()
        if self.tracer is not None and len(self.step_s) < self.steps:
            self.tracer.open_window(step=True)
        self._last = time.perf_counter()


# ---------------------------------------------------------------------------
# workloads


class Run:
    """State of one workload run: inputs, timings, failures and checks."""

    def __init__(self, name, spec, seed, work: Path):
        self.name, self.spec, self.seed, self.work = name, spec, seed, work
        self.pkg = None
        self.host = HostProbe()
        # (start, end, divisor) of each timed sample; see host_adjusted
        self.setup_s: list[tuple[float, float, int]] = []
        self.op_s: list[tuple[float, float, int]] = []
        self.eval_pair_s: list[tuple[float, float, int]] = []
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, dict] = {}
        self.rounds: list = []
        self.peak_rss_mb = 0.0
        self.tracer: Tracer | None = None
        self.scan_peak_mb = 0.0

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"{what} failed:\n{traceback.format_exc()}", file=sys.stderr)

    def check(self, name: str, ok: bool, **detail) -> None:
        self.checks[name] = {"ok": bool(ok), **detail}

    def eval_op(self, ckpt: Path, folder: Path, n_pairs: int):
        self.attempted += 1
        self.host()
        t0 = time.perf_counter()
        try:
            rc, text = run_cli(self.pkg, ["eval", str(ckpt), str(folder)])
        except Exception:
            self.fail("eval")
            return None
        t1 = time.perf_counter()
        self.host()
        if rc != 0:
            self.failed += 1
            print(f"eval exited {rc}: {text}", file=sys.stderr)
            return None
        self.eval_pair_s.append((t0, t1, n_pairs))
        return parse_eval(text)


class TrainWorkload:
    """training.train at one progressive stage, then eval of the checkpoint."""

    def __init__(self, run: Run):
        self.run = run
        self.eval_dir = run.work / "eval"
        self.ckpt = run.work / "model.fmck"
        self.model = self.initial = None   # last round's trained model and its initial params

    def configs(self, pkg):
        s, M, TR = self.run.spec, pkg.model, pkg.training
        mc = M.ModelConfig()
        tc = TR.TrainConfig(total_iters=s["steps"], progressive=((s["patch"], s["batch"]),),
                            seed=self.run.seed, log_interval=s["steps"],
                            n_images=N_TRAIN_IMAGES, image_size=s["image_size"])
        return mc, tc

    def setup_once(self, pkg):
        mc, tc = self.configs(pkg)
        pkg.model.build(mc, seed=self.run.seed)
        pkg.training.synth_rain(tc.data, tc.seed, tc.n_images, (tc.image_size,) * 2)

    def prepare(self):
        s, TR = self.run.spec, self.run.pkg.training
        pairs = TR.synth_rain(TR.RainSynthParams(), self.run.seed + 1, s["eval_pairs"],
                              (s["patch"], s["patch"]))
        self.names = write_pairs(self.eval_dir, pairs)

    def round(self, tracer, capture):
        run, pkg = self.run, self.run.pkg
        mc, tc = self.configs(pkg)
        model = pkg.model.build(mc, seed=run.seed)
        initial = {k: p.data.copy() for k, p in model.named_params().items()}
        clock = StepClock(pkg.training, tracer, run.host, tc.total_iters)
        run.attempted += tc.total_iters
        ctx = capture.active() if capture is not None else contextlib.nullcontext()
        try:
            with ctx, clock.active():
                pkg.training.train(model, tc, mc)
        except Exception:
            run.failed += tc.total_iters - len(clock.step_s)
            print(f"training.train failed:\n{traceback.format_exc()}", file=sys.stderr)
            return
        run.op_s.extend(clock.step_s)
        pkg.model.save(model, self.ckpt)
        scores = run.eval_op(self.ckpt, self.eval_dir, len(self.names))
        run.rounds.append({"losses": clock.losses, "eval": scores})
        self.model, self.initial = model, initial

    def checks(self):
        run, pkg = self.run, self.run.pkg
        T, TR = pkg.tensor, pkg.training
        last = run.rounds[-1]
        model = self.model
        params = model.named_params()
        # every parameter got a finite gradient in the last step and moved
        bad_grad = [k for k, p in params.items()
                    if p.grad is None or not np.all(np.isfinite(p.grad))]
        still = [k for k, p in params.items() if np.array_equal(p.data, self.initial[k])]
        run.check("params_update", not bad_grad and not still,
                  no_finite_grad=bad_grad[:5], unchanged=still[:5], params=len(params))
        # every round reproduced the first round's loss trace
        traces = [r["losses"] for r in run.rounds]
        run.check("repeatable", all(t == traces[0] for t in traces), loss_trace=traces[0])

        rainy = oracles.read_ppm(self.eval_dir / "rainy" / self.names[0])[None]
        clean = oracles.read_ppm(self.eval_dir / "clean" / self.names[0])[None]
        for p in params.values():
            p.grad = None
        out = model.forward(T.Tensor(rainy))
        total, _ = TR.loss_total(out, T.Tensor(clean), TR.LossWeights())
        T.backward(total)
        loss = float(total.data)
        ref = oracles.loss_total(out.data, clean)
        run.check("loss_numpy", abs(ref - loss) <= LOSS_RTOL * max(1.0, abs(ref)),
                  program=loss, numpy=ref)

        grads = {k: p.grad for k, p in params.items()}
        base = {k: p.data for k, p in params.items()}

        def shifted_loss(direction, h):
            for k, p in params.items():
                p.data = base[k] + h * direction[k]
            with T.no_grad():
                return float(TR.loss_total(model.forward(T.Tensor(rainy)), T.Tensor(clean),
                                           TR.LossWeights())[0].data)

        # The phase term of the loss jumps by 2*pi/N where a DFT coefficient
        # crosses the atan2 branch cut, and L1 has kinks: a difference that
        # straddles one is wrong by design.  So a failure is confirmed on a
        # smaller step and on fresh directions; a wrong gradient fails them all.
        tries = []
        try:
            for i in range(FD_DIRECTIONS):
                rng = np.random.default_rng(run.seed + 7 + i)
                direction = {k: rng.normal(size=p.data.shape) for k, p in params.items()}
                norm = np.sqrt(sum(float(np.sum(d * d)) for d in direction.values()))
                direction = {k: d / norm for k, d in direction.items()}
                analytic = sum(float(np.sum(grads[k] * d)) for k, d in direction.items())
                for h in FD_STEPS:
                    numeric = (shifted_loss(direction, h) - shifted_loss(direction, -h)) / (2 * h)
                    tries.append({"h": h, "analytic": analytic, "numeric": numeric})
                    if fd_agrees(tries[-1]):
                        break
                if fd_agrees(tries[-1]):
                    break
        finally:
            for k, p in params.items():
                p.data = base[k]
        run.check("finite_difference", fd_agrees(tries[-1]), tries=tries)

        # eval's printed means against numpy metrics of the checkpoint's outputs
        if last["eval"] is not None:
            ckpt_model = pkg.model.load(self.ckpt)
            psnrs, ssims = [], []
            with T.no_grad():
                for name in self.names:
                    r = oracles.read_ppm(self.eval_dir / "rainy" / name)
                    c = oracles.read_ppm(self.eval_dir / "clean" / name)
                    o = np.clip(ckpt_model.forward(T.Tensor(r[None])).data[0], 0.0, 1.0)
                    psnrs.append(oracles.psnr_y(o, c))
                    ssims.append(oracles.ssim_y(o, c))
            metrics_check(run, last["eval"], psnrs, ssims, PRINT_TOL)


class RestoreWorkload:
    """cli infer on each rainy image, then cli eval over the folder."""

    def __init__(self, run: Run):
        self.run = run
        self.folder = run.work / "pairs"
        self.out_dir = run.work / "restored"
        self.ckpt = run.work / "model.fmck"

    def setup_once(self, pkg):
        s = self.run.spec
        pkg.model.load(self.ckpt)
        pkg.training.synth_rain(pkg.training.RainSynthParams(), self.run.seed, s["pairs"],
                                (s["size"], s["size"]))

    def prepare(self):
        """Seeded checkpoint (non-zero head) and rainy/clean PPM pairs."""
        pkg, s, seed = self.run.pkg, self.run.spec, self.run.seed
        model = pkg.model.build(pkg.model.ModelConfig(), seed=seed)
        head = model.head.w
        head.data = np.random.default_rng(seed + 3).normal(0.0, HEAD_STD, head.data.shape)
        pkg.model.save(model, self.ckpt)
        TR = pkg.training
        pairs = TR.synth_rain(TR.RainSynthParams(), seed, s["pairs"], (s["size"], s["size"]))
        self.names = write_pairs(self.folder, pairs)
        self.out_dir.mkdir(parents=True, exist_ok=True)

    def round(self, tracer, capture):
        run = self.run
        outputs = []
        for i, name in enumerate(self.names):
            out = self.out_dir / name
            run.attempted += 1
            ctx = capture.active() if capture is not None and i == 0 \
                else contextlib.nullcontext()
            run.host()
            if tracer is not None:
                tracer.open_window()
            t0 = time.perf_counter()
            try:
                with ctx:
                    rc, text = run_cli(run.pkg, ["infer", str(self.ckpt),
                                                 str(self.folder / "rainy" / name), str(out)])
            except Exception:
                run.fail("infer")
                continue
            finally:
                t1 = time.perf_counter()
                if tracer is not None:
                    tracer.close_window()
            if rc != 0:
                run.failed += 1
                print(f"infer exited {rc}: {text}", file=sys.stderr)
                continue
            run.op_s.append((t0, t1, 1))
            outputs.append(out.read_bytes())
        scores = run.eval_op(self.ckpt, self.folder, len(self.names))
        run.rounds.append({"outputs": outputs, "eval": scores})

    def checks(self):
        run = self.run
        first = run.rounds[0]["outputs"]
        run.check("repeatable", all(r["outputs"] == first for r in run.rounds))
        rainy = [oracles.read_ppm(self.folder / "rainy" / n) for n in self.names]
        clean = [oracles.read_ppm(self.folder / "clean" / n) for n in self.names]
        restored = [oracles.read_ppm(self.out_dir / n) for n in self.names]
        changed = all(not np.array_equal(o, r) for o, r in zip(restored, rainy))
        run.check("not_identity", changed)
        scores = run.rounds[-1]["eval"]
        if scores is not None:
            metrics_check(run, scores, [oracles.psnr_y(o, c) for o, c in zip(restored, clean)],
                          [oracles.ssim_y(o, c) for o, c in zip(restored, clean)], QUANT_TOL)


def fd_agrees(t: dict) -> bool:
    err = abs(t["numeric"] - t["analytic"])
    return err <= FD_RTOL * max(abs(t["numeric"]), abs(t["analytic"])) + FD_ATOL


def metrics_check(run: Run, printed, psnrs, ssims, tol) -> None:
    psnr, ssim = float(np.mean(psnrs)), float(np.mean(ssims))
    ok = abs(printed[0] - psnr) <= tol["psnr"] and abs(printed[1] - ssim) <= tol["ssim"]
    run.check("metrics_numpy", ok, printed=list(printed), numpy=[psnr, ssim])


def identity_check(run: Run) -> None:
    """An untrained model (zero head) returns its input exactly."""
    T, M = run.pkg.tensor, run.pkg.model
    model = M.build(M.ModelConfig(), seed=run.seed)
    x = np.random.default_rng(run.seed + 5).uniform(size=(1, 3, IDENTITY_SIZE, IDENTITY_SIZE))
    with T.no_grad():
        out = model.forward(T.Tensor(x)).data
    run.check("identity", np.array_equal(out, x), max_abs_diff=float(np.max(np.abs(out - x))))


def run_workload(name: str, spec: dict, seed: int, seconds: float, trace: bool,
                 perturb=None) -> Run:
    """Set up, warm up, measure rounds for `seconds`, check; returns the filled Run.

    The first round of a process runs measurably slower (8-30%: the
    allocator has not yet grown its heap for the graph), so it is a checked
    but untimed warm-up, and its scan2d call is the one captured.
    """
    work = HERE / ".work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(name, spec, seed, work)
    try:
        run.pkg = import_package()
        wl = TrainWorkload(run) if spec["kind"] == "train" else RestoreWorkload(run)
        wl.prepare()
        for _ in range(SETUP_REPEATS):
            run.host()
            t0 = time.perf_counter()
            pkg = import_package()
            wl.setup_once(pkg)
            run.setup_s.append((t0, time.perf_counter(), 1))
        run.host()
        run.pkg = pkg
        if perturb is not None:
            perturb(pkg)
        capture = ScanCapture(pkg.scan)
        wl.round(None, capture)
        run.op_s.clear()
        run.eval_pair_s.clear()
        tracer = Tracer(pkg) if trace else None
        if tracer is not None:
            tracer.install()
            wl.setup_once(pkg)  # so that load and synth_rain have traced calls
        start = time.perf_counter()
        try:
            while True:
                wl.round(tracer, None)
                if time.perf_counter() - start >= seconds:
                    break
        finally:
            if tracer is not None:
                tracer.uninstall()
        run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        run.tracer = tracer
        if tracer is not None and capture.call is not None:
            run.scan_peak_mb = capture.peak_mb(pkg.tensor)
        if capture.call is not None:
            err = capture.error()
            run.check("scan_oracle", err <= SCAN_RTOL, rel_err=err)
        else:
            run.check("scan_oracle", False, reason="no scan2d call captured")
        identity_check(run)
        if run.rounds:
            wl.checks()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return run


def metrics_of(run: Run, trace: bool) -> dict:
    if not trace:
        values = {"setup_s": host_adjusted(run.host, run.setup_s),
                  "op_s": host_adjusted(run.host, run.op_s),
                  "eval_pair_s": host_adjusted(run.host, run.eval_pair_s),
                  "peak_rss_mb": run.peak_rss_mb}
        return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    tr = run.tracer
    values = {name: tr.window_median(field) for name, field in WINDOW_METRICS.items()}
    values.update({name: tr.call_median(key) for name, key in CALL_METRICS.items()})
    values["scan.scan2d.peak_mb"] = run.scan_peak_mb
    values["host.probe_s"] = statistics.median(run.host.durations())
    values["trace.op_s"] = host_adjusted(run.host, run.op_s)
    return {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}


def single(args) -> int:
    run = run_workload(args.workload, WORKLOADS[args.workload], args.seed, args.seconds,
                       bool(args.trace))
    correct = bool(run.checks) and all(c["ok"] for c in run.checks.values())
    for cname, c in run.checks.items():
        if not c["ok"]:
            print(f"check {cname} FAILED: {c}", file=sys.stderr)
    result = {"correct": correct, "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics_of(run, bool(args.trace))}
    RESULTS.mkdir(exist_ok=True)
    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, threads=THREAD_ENV, setup_s=run.setup_s, op_s=run.op_s,
                  eval_pair_s=run.eval_pair_s,
                  host_probes=list(zip(run.host.starts, run.host.ends)), checks=run.checks)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail, indent=1, default=float) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# every workload, and the self-test


def run_all(args) -> int:
    summary, ok = {}, True
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace} exited {proc.returncode}:\n{proc.stderr}",
                      file=sys.stderr)
                ok = False
                continue
            summary[f"{name}/trace{trace}"] = json.loads(lines[-1])
    for name in WORKLOADS:
        plain = summary.get(f"{name}/trace0")
        traced = summary.get(f"{name}/trace1")
        if plain is None:
            continue
        what = "training step" if WORKLOADS[name]["kind"] == "train" else "infer call"
        print(f"{name}: correct={plain['correct']} attempted={plain['attempted']} "
              f"failed={plain['failed']}   (op_s = one {what})")
        for metric, v in plain["metrics"].items():
            print(f"  {metric:<14} {v['value']:12.4f} {v['unit']}")
        if traced is not None:
            overhead = traced["metrics"]["trace.op_s"]["value"] / plain["metrics"]["op_s"]["value"]
            summary[f"{name}/tracing_overhead"] = overhead - 1.0
            print(f"  tracing overhead on op_s: {100.0 * (overhead - 1.0):+.1f}%")
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / "summary.json").write_text(json.dumps(summary, indent=1) + "\n")
    print(f"per-layer metrics: {RESULTS / 'summary.json'}")
    return 0 if ok else 1


# Each run imports the package afresh, so a perturbation needs no undoing.


def _wrap_output(pkg, mod_name, fn_name, change):
    """Patch mod.fn so that change(result, call_index) alters what it returns."""
    mod = getattr(pkg, mod_name)
    orig = getattr(mod, fn_name)
    count = [0]

    def perturbed(*args, **kwargs):
        count[0] += 1
        return change(orig(*args, **kwargs), count[0])

    setattr(mod, fn_name, perturbed)


def _shift(t, eps):
    t.data = t.data + eps
    return t


def _scaled_kernel_grad(node, _):
    rule = node.backward_rule
    if rule is not None:
        node.backward_rule = lambda g: (lambda r: (r[0], 1.01 * r[1], r[2]))(rule(g))
    return node


def _skip_first_param(pkg):
    tr = pkg.training
    orig = tr.adam_step

    def adam(params, *args, **kwargs):
        return orig(dict(list(params.items())[1:]), *args, **kwargs)

    tr.adam_step = adam


def _forward_returns_input(pkg):
    pkg.model.forward = lambda model, rainy, debug_dir=None: rainy


# (check that must fail, workload kinds, what is perturbed, patch)
PERTURBATIONS = [
    ("scan_oracle", ("train", "restore"), "scan2d output + 1e-6",
     lambda pkg: _wrap_output(pkg, "scan", "scan2d", lambda t, _: _shift(t, 1e-6))),
    ("finite_difference", ("train",), "conv2d kernel gradient x 1.01",
     lambda pkg: _wrap_output(pkg, "tensor", "conv2d", _scaled_kernel_grad)),
    ("loss_numpy", ("train",), "loss_total + 1e-3",
     lambda pkg: _wrap_output(pkg, "training", "loss_total",
                              lambda r, _: (_shift(r[0], 1e-3), r[1]))),
    ("metrics_numpy", ("train", "restore"), "psnr_y + 0.1 dB",
     lambda pkg: _wrap_output(pkg, "training", "psnr_y", lambda v, _: v + 0.1)),
    ("metrics_numpy", ("train", "restore"), "ssim_y - 0.01",
     lambda pkg: _wrap_output(pkg, "training", "ssim_y", lambda v, _: v - 0.01)),
    ("identity", ("train", "restore"), "model.forward output + 1e-9",
     lambda pkg: _wrap_output(pkg, "model", "forward", lambda t, _: _shift(t, 1e-9))),
    ("params_update", ("train",), "adam_step skips the first parameter", _skip_first_param),
    ("repeatable", ("train",), "loss_total + 1e-3 * call index",
     lambda pkg: _wrap_output(pkg, "training", "loss_total",
                              lambda r, i: (_shift(r[0], 1e-3 * i), r[1]))),
    ("repeatable", ("restore",), "model.forward output + 0.02 * call index",
     lambda pkg: _wrap_output(pkg, "model", "forward", lambda t, i: _shift(t, 0.02 * i))),
    ("not_identity", ("restore",), "model.forward returns its input", _forward_returns_input),
]


def self_test(args) -> int:
    ok = True
    for name, spec in TINY.items():
        run = run_workload(name, spec, args.seed, 0, trace=True)
        bad = [c for c, v in run.checks.items() if not v["ok"]]
        ok &= not bad and run.failed == 0
        print(f"{name:<12} unperturbed: {'all checks pass' if not bad else 'FAILED ' + str(bad)}"
              f" ({', '.join(run.checks)})")
        for check, kinds, what, patch in PERTURBATIONS:
            if spec["kind"] not in kinds:
                continue
            run = run_workload(name, spec, args.seed, 0, trace=False, perturb=patch)
            caught = check in run.checks and not run.checks[check]["ok"]
            ok &= caught
            print(f"{name:<12} {what:<40} -> {check}: {'fails' if caught else 'NOT CAUGHT'}")
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                   help="run one workload in this process (default: all, one process each)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args(argv)
    if not (SRC / "freqmamba" / "__init__.py").is_file():
        print(f"no freqmamba package under {SRC}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test(args)
    if args.workload is None:
        return run_all(args)
    return single(args)


if __name__ == "__main__":
    sys.exit(main())
