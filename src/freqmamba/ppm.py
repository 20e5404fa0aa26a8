"""Binary PPM (P6, maxval 255) image I/O; 8-bit values map to [0, 1] by /255."""

from __future__ import annotations

import numpy as np

from .errors import MagicError, TruncatedError
from .tensor import Tensor


def read_ppm(path) -> Tensor:
    """Read a P6 image into a (1, 3, H, W) tensor in [0, 1]."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:2] != b"P6":
        raise MagicError(f"{path}: expected P6 magic, got {blob[:2]!r}")
    # header: magic, width, height, maxval; '#' comments allowed between tokens
    pos, tokens = 2, []
    while len(tokens) < 3:
        while pos < len(blob) and blob[pos:pos + 1].isspace():
            pos += 1
        if pos < len(blob) and blob[pos:pos + 1] == b"#":
            while pos < len(blob) and blob[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise TruncatedError(f"{path}: header ended early")
        tokens.append(blob[start:pos])
    pos += 1  # single whitespace after maxval
    if not all(t.isdigit() for t in tokens):
        raise MagicError(f"{path}: header sizes must be decimal digits, got {tokens}")
    w, h, maxval = (int(t) for t in tokens)
    if w == 0 or h == 0:
        raise MagicError(f"{path}: empty {w}x{h} image")
    if maxval != 255:
        raise MagicError(f"{path}: only maxval 255 supported, got {maxval}")
    need = w * h * 3
    raster = blob[pos:pos + need]
    if len(raster) < need:
        raise TruncatedError(f"{path}: raster has {len(raster)} of {need} bytes")
    img = np.frombuffer(raster, dtype=np.uint8).reshape(h, w, 3)
    return Tensor(img.transpose(2, 0, 1)[None].astype(np.float64) / 255.0)


def write_ppm(img: Tensor, path) -> None:
    """Write a (1, 3, H, W) or (3, H, W) tensor in [0, 1] as P6."""
    data = img.data
    if data.ndim == 4:
        if data.shape[0] != 1:
            raise ValueError(f"write_ppm expects a single image, got batch {data.shape[0]}")
        data = data[0]
    if data.ndim != 3 or data.shape[0] != 3:
        raise ValueError(f"write_ppm expects (3, H, W), got {data.shape}")
    q = np.clip(np.rint(data * 255.0), 0, 255).astype(np.uint8)
    h, w = q.shape[1:]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode())
        fh.write(q.transpose(1, 2, 0).tobytes())
