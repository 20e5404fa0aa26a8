"""The benchmark in perfbench/ finds package functions by module attribute
name; a rename or deletion there would only show when the benchmark runs."""

import runpy
from pathlib import Path

import pytest

import freqmamba
from freqmamba import blocks, cli, fourier, model, ppm, scan, tensor, training, wavelet  # noqa: F401

TRACER = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"))

# what perfbench/run.py patches or calls by name, and the backward the tracer wraps
RUN_NAMES = [("scan", "scan2d"), ("training", "synth_rain"), ("training", "backward"),
             ("training", "adam_step"), ("training", "loss_total"), ("training", "psnr_y"),
             ("training", "ssim_y"), ("tensor", "conv2d"), ("tensor", "backward"),
             ("model", "forward"), ("cli", "main")]


def _benchmark_names():
    names = set(RUN_NAMES)
    for mod, attrs, _key, _rules in TRACER["LAYERS"]:
        names.update((mod, a) for a in attrs)
    for mod, attr, target in TRACER["ALIASES"]:
        names.update([(mod, attr), target])
    return sorted(names)


@pytest.mark.parametrize("mod,attr", _benchmark_names())
def test_benchmark_name_is_callable(mod, attr):
    assert callable(getattr(getattr(freqmamba, mod), attr, None)), f"{mod}.{attr}"
