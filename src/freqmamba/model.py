"""Multi-scale U-Net of FreqSSM blocks with encoder-side degradation priors,
plus FMCK checkpoint serialization.

Resolutions run H, H/2, H/4 (encoder stages) and H/8 (bottleneck); decoder
stages mirror the encoder with skip concatenation and 1x1 reduction.  The
network output is added to the rainy input (global residual) and the final
projection starts at zero, so an untrained model is the identity restorer.
"""

from __future__ import annotations

import dataclasses
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ConfigMismatchError, MagicError, ShapeError, TruncatedError
from . import tensor as T
from . import blocks as B
from .fourier import ConvWeights, init_conv
from .tensor import Tensor

FMCK_MAGIC = b"FMCK"
FMCK_VERSION = 1


@dataclass(frozen=True)
class ModelConfig:
    depths: tuple[int, ...] = (1, 1, 1, 1, 1, 1, 1)
    base_channels: int = 8
    channel_multipliers: tuple[int, int, int, int] = (1, 2, 2, 4)
    state_dim: int = 8
    use_fourier: bool = True
    use_band: bool = True
    use_spatial_mamba: bool = True
    use_attention_map: bool = True

    def __post_init__(self):
        if len(self.depths) != 7:
            raise ConfigError(f"depths needs 7 stage entries (3 enc, bottleneck, 3 dec), got {len(self.depths)}")
        if any(d < 1 for d in self.depths):
            raise ConfigError(f"every stage needs at least one block, got {self.depths}")
        if len(self.channel_multipliers) != 4:
            raise ConfigError(f"channel_multipliers needs 4 entries, got {len(self.channel_multipliers)}")
        if any(m < 1 for m in self.channel_multipliers):
            raise ConfigError(f"channel_multipliers must be positive, got {self.channel_multipliers}")
        if self.base_channels < 1 or self.state_dim < 1:
            raise ConfigError("base_channels and state_dim must be positive")

    @property
    def stage_channels(self) -> tuple[int, int, int, int]:
        return tuple(self.base_channels * m for m in self.channel_multipliers)

    def canonical_text(self) -> str:
        lines = ["[model]"]
        for f in sorted(dataclasses.fields(self), key=lambda f: f.name):
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                v = ",".join(str(x) for x in v)
            elif isinstance(v, bool):
                v = "true" if v else "false"
            lines.append(f"{f.name} = {v}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# sectioned key = value config text: the run config and a checkpoint's config


def parse_sections(text: str, sections: dict, where) -> dict[str, dict[str, str]]:
    """Raw values per section of ``sections`` (name -> accepted keys); a bad
    line raises ConfigError naming ``where`` and the line number."""
    values: dict[str, dict[str, str]] = {name: {} for name in sections}
    section = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in sections:
                raise ConfigError(f"{where}:{lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"{where}:{lineno}: expected 'key = value', got {line!r}")
        if section is None:
            raise ConfigError(f"{where}:{lineno}: key outside any [section]")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in sections[section]:
            raise ConfigError(f"{where}:{lineno}: unknown key {key!r} in [{section}]")
        if key in values[section]:
            raise ConfigError(f"{where}:{lineno}: duplicate key {key!r}")
        values[section][key] = val
    return values


def config_defaults(cls) -> dict:
    """Field -> default of the fields that config text sets: those with a plain default."""
    return {f.name: f.default for f in dataclasses.fields(cls) if f.default is not dataclasses.MISSING}


def _value(default, val: str):
    """Parse ``val`` as the type of ``default``."""
    if isinstance(default, bool):
        if val not in ("true", "1", "yes", "false", "0", "no"):
            raise ConfigError(f"expected a boolean, got {val!r}")
        return val in ("true", "1", "yes")
    if isinstance(default, tuple) and isinstance(default[0], tuple):  # stages: 32x8,64x4
        pairs = (s.partition("x") for s in val.split(","))
        return tuple((int(patch), int(batch)) for patch, _, batch in pairs)
    if isinstance(default, tuple):
        return tuple(type(default[0])(x) for x in val.split(","))
    return type(default)(val)


def config_from(cls, values: dict[str, str], **extra):
    """Build config dataclass ``cls`` from its section's raw values."""
    defaults = config_defaults(cls)
    try:
        kw = {key: _value(defaults[key], val) for key, val in values.items()}
    except ValueError as e:
        raise ConfigError(f"bad config value: {e}") from None
    return cls(**kw, **extra)


@dataclass
class Model:
    config: ModelConfig
    stem: ConvWeights
    enc_stages: list           # 3 lists of FreqSsmBlockWeights
    downs: list                # 3 ConvWeights (1x1 channel change after down2)
    bottleneck: list           # FreqSsmBlockWeights
    reduces: list              # 3 ConvWeights (1x1 after up2 + skip concat)
    dec_stages: list           # 3 lists of FreqSsmBlockWeights
    attn: list                 # 3 AttentionMapGen or empty
    head: ConvWeights
    iteration: int = 0

    def named_params(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        _collect("stem", self.stem, out)
        for i, stage in enumerate(self.enc_stages):
            for j, blk in enumerate(stage):
                _collect(f"enc{i}.block{j}", blk, out)
        for i, d in enumerate(self.downs):
            _collect(f"down{i}", d, out)
        for j, blk in enumerate(self.bottleneck):
            _collect(f"mid.block{j}", blk, out)
        for i, r in enumerate(self.reduces):
            _collect(f"reduce{i}", r, out)
        for i, stage in enumerate(self.dec_stages):
            for j, blk in enumerate(stage):
                _collect(f"dec{i}.block{j}", blk, out)
        for i, g in enumerate(self.attn):
            _collect(f"attn{i}", g, out)
        _collect("head", self.head, out)
        return out

    def n_blocks(self) -> int:
        return sum(len(s) for s in self.enc_stages) + len(self.bottleneck) + sum(len(s) for s in self.dec_stages)

    def param_count(self) -> int:
        return sum(p.data.size for p in self.named_params().values())

    def forward(self, rainy: Tensor) -> Tensor:
        return forward(self, rainy)


def _collect(prefix: str, obj, out: dict[str, Tensor]) -> None:
    """Walk a weight dataclass tree, naming Tensor leaves by field path."""
    if isinstance(obj, Tensor):
        out[prefix] = obj
        return
    if dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            v = getattr(obj, f.name)
            if v is None or isinstance(v, (int, float, str, bool)):
                continue
            if isinstance(v, (list, tuple)):
                for i, item in enumerate(v):
                    _collect(f"{prefix}.{f.name}{i}", item, out)
            else:
                _collect(f"{prefix}.{f.name}", v, out)


def build(config: ModelConfig, seed: int) -> Model:
    """Deterministically initialize the full network from a seed."""
    rng = np.random.default_rng(seed)
    ch = config.stage_channels

    def conv(c_out, c_in, k, zero=False):
        return init_conv(rng, c_out, c_in, k, zero=zero)

    def blocks(n, c):
        return [B.init_freqssm_block(c, config.state_dim, rng,
                                     use_fourier=config.use_fourier,
                                     use_band=config.use_band,
                                     use_spatial_mamba=config.use_spatial_mamba)
                for _ in range(n)]

    enc = [blocks(config.depths[i], ch[i]) for i in range(3)]
    downs = [conv(ch[i + 1], ch[i], 1) for i in range(3)]
    mid = blocks(config.depths[3], ch[3])
    reduces = [conv(ch[i], ch[i + 1] + ch[i], 1) for i in range(3)]
    dec = [blocks(config.depths[6 - i], ch[i]) for i in range(3)]
    attn = [B.init_attention_gen(ch[i], config.state_dim, rng) for i in range(3)] \
        if config.use_attention_map else []
    return Model(config=config,
                 stem=conv(ch[0], 3, 3),
                 enc_stages=enc, downs=downs, bottleneck=mid,
                 reduces=reduces, dec_stages=dec, attn=attn,
                 head=conv(3, ch[0], 3, zero=True))


def forward(model: Model, rainy: Tensor) -> Tensor:
    """Restore a rainy image; output = network(rainy) + rainy."""
    T._check_4d(rainy, "model forward")
    n, c, h, w = rainy.data.shape
    if c != 3:
        raise ShapeError(f"model expects 3 input channels, got {c}")
    if h % 16 or w % 16:
        raise ShapeError(f"input H and W must be multiples of 16, got {h}x{w}")

    # Each map is dropped after its last read, so the no-grad forward frees it
    # there; under grad the tape keeps what its rules need.
    maps = [None] * 3
    if model.attn:
        images = [rainy]
        for _ in range(2):
            images.append(T.down2(images[-1]))
        maps = [B.attention_map(im, g) for im, g in zip(images, model.attn)]
        del images

    x = T.conv2d(rainy, model.stem.w, model.stem.b)
    skips = []
    for i, stage in enumerate(model.enc_stages):
        for blk in stage:
            x = B.freqssm_block(x, blk)
            if maps[i] is not None:
                x = B.apply_attention(x, maps[i])
        maps[i] = None
        skips.append(x)
        x = T.pointwise_conv(T.down2(x), model.downs[i].w, model.downs[i].b)

    for blk in model.bottleneck:
        x = B.freqssm_block(x, blk)

    for i in (2, 1, 0):
        x = T.up2(x)
        x = T.concat_channels([x, skips.pop()])
        x = T.pointwise_conv(x, model.reduces[i].w, model.reduces[i].b)
        for blk in model.dec_stages[i]:
            x = B.freqssm_block(x, blk)

    out = T.conv2d(x, model.head.w, model.head.b)
    return T.add(out, rainy)


# ---------------------------------------------------------------------------
# FMCK checkpoint format


def save(model: Model, path) -> None:
    """magic, u32 version, length-prefixed canonical config blob, then
    [u32 name length, name, 4 u32 dims, float32 LE payload] records."""
    blob = model.config.canonical_text() + f"[state]\niteration = {model.iteration}\n"
    blob_bytes = blob.encode()
    with open(path, "wb") as fh:
        fh.write(FMCK_MAGIC)
        fh.write(struct.pack("<I", FMCK_VERSION))
        fh.write(struct.pack("<I", len(blob_bytes)))
        fh.write(blob_bytes)
        for name, t in model.named_params().items():
            data = t.data
            dims = list(data.shape) + [1] * (4 - data.ndim)
            if data.ndim > 4:
                raise ShapeError(f"cannot serialize {name} with ndim {data.ndim}")
            nb = name.encode()
            fh.write(struct.pack("<I", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<4I", *dims))
            fh.write(data.astype("<f4").tobytes())


class _Reader:
    def __init__(self, blob, path):
        self.blob = blob
        self.pos = 0
        self.path = path

    def take(self, n):
        if self.pos + n > len(self.blob):
            raise TruncatedError(f"{self.path}: needed {n} bytes at offset {self.pos}, "
                                 f"file has {len(self.blob)}")
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self):
        return struct.unpack("<I", self.take(4))[0]

    @property
    def remaining(self):
        return len(self.blob) - self.pos


def load(path, expected_config: ModelConfig | None = None) -> Model:
    """Rebuild a model from a checkpoint; parameters fill by name."""
    with open(path, "rb") as fh:
        blob = fh.read()
    r = _Reader(blob, path)
    if r.take(4) != FMCK_MAGIC:
        raise MagicError(f"{path}: expected FMCK magic, got {blob[:4]!r}")
    version = r.u32()
    if version != FMCK_VERSION:
        raise MagicError(f"{path}: unsupported checkpoint version {version}")
    text = r.take(r.u32())
    try:
        doc = parse_sections(text.decode(), {"model": config_defaults(ModelConfig), "state": {"iteration"}}, "line")
        config = config_from(ModelConfig, doc["model"])
        iteration = int(doc["state"].get("iteration", 0))
    except ValueError as e:  # covers UnicodeDecodeError and ConfigError
        raise MagicError(f"{path}: malformed config text: {e}") from None
    if expected_config is not None and expected_config.canonical_text() != config.canonical_text():
        raise ConfigMismatchError(f"{path}: checkpoint config does not match the expected config")

    records = {}
    while r.remaining:
        # a name that is not UTF-8 matches no parameter and fails the inventory check
        name = r.take(r.u32()).decode(errors="replace")
        dims = struct.unpack("<4I", r.take(16))
        count = math.prod(dims)  # Python ints: np.prod of four u32 can wrap negative
        data = np.frombuffer(r.take(4 * count), dtype="<f4")
        # inf or NaN (exponent all ones), tested before the cast, which warns on a signalling NaN
        if not np.isfinite(data).all():
            raise MagicError(f"{path}: record {name} holds a non-finite value")
        records[name] = (dims, data.astype(np.float64))

    model = build(config, seed=0)
    model.iteration = iteration
    params = model.named_params()
    missing = sorted(set(params) - set(records))
    extra = sorted(set(records) - set(params))
    if missing or extra:
        raise ConfigMismatchError(f"{path}: parameter inventory mismatch "
                                  f"(missing {missing[:3]}, extra {extra[:3]})")
    for name, tensor in params.items():
        dims, data = records[name]
        want = list(tensor.data.shape) + [1] * (4 - tensor.data.ndim)
        if list(dims) != want:
            raise ConfigMismatchError(f"{path}: {name} has dims {dims}, model expects {want}")
        tensor.data = data.reshape(tensor.data.shape)
    return model
