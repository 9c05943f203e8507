"""The trainable network: an MLP feature extractor plus an age head.

The extractor maps an input vector through relu layers to a feature
vector f (post-activation of the last extractor layer); a final fully
connected layer maps f to one logit per age label, and softmax turns the
logits into an age distribution s. The age estimate is the mean of s.

A model's weights and biases are views into one float64 vector
(``Model.flat``), so an optimizer step is one update over one array.
``forward_batch`` is the one forward: evaluation calls it, and so does a
train step, into its own buffers, before it runs the layers backwards
as a closed-form pullback (``training.build_batch_loss``).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .autodiff import Array, softmax_parts
from .errors import ConfigError

CHECKPOINT_FORMAT = "agecontrast-checkpoint-v1"


@dataclass(frozen=True)
class ModelConfig:
    """Layer widths chain input_dim -> hidden_widths... -> feature_dim -> num_ages."""

    input_dim: int
    hidden_widths: tuple[int, ...]
    feature_dim: int
    num_ages: int

    def __post_init__(self):
        # Coerced to int, so a config read back from JSON equals the one saved.
        for name in ("input_dim", "feature_dim", "num_ages"):
            object.__setattr__(self, name, integral(f"ModelConfig: {name}", getattr(self, name)))
        object.__setattr__(self, "hidden_widths", tuple(
            integral("ModelConfig: hidden_widths", w) for w in self.hidden_widths))
        for d in self.layer_dims:
            if d < 1:
                raise ValueError(f"ModelConfig: all dimensions must be >= 1, got {self.layer_dims}")

    @property
    def layer_dims(self) -> list[int]:
        return [self.input_dim, *self.hidden_widths, self.feature_dim, self.num_ages]

    @property
    def param_shapes(self) -> list[tuple[int, ...]]:
        """Shapes of the parameters in ``Model.parameters()`` order."""
        dims = self.layer_dims
        return [shape for fan_in, fan_out in zip(dims[:-1], dims[1:])
                for shape in ((fan_in, fan_out), (fan_out,))]

    def param_views(self, vec: Array) -> list[Array]:
        """Views of a vector laid out like ``Model.flat``, one per parameter."""
        views, start = [], 0
        for shape in self.param_shapes:
            size = int(np.prod(shape))
            views.append(vec[start:start + size].reshape(shape))
            start += size
        return views


def integral(name: str, value) -> int:
    """value as an int: a Python or numpy integer; a bool or any other
    value, such as a float, is a ValueError rather than truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass
class Model:
    """Weight matrices (fan_in, fan_out) and bias vectors, one pair per layer.

    The last pair is the age head; every earlier pair belongs to the
    extractor and is followed by relu. The given arrays are copied into
    one new vector ``flat`` and replaced by views of it, in
    ``parameters()`` order.
    """

    config: ModelConfig
    weights: list
    biases: list
    flat: Array = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        params = self.parameters()
        shapes = [p.shape for p in params]
        if shapes != self.config.param_shapes:
            raise ValueError(f"Model: parameter shapes {shapes} do not match "
                             f"config {self.config.param_shapes}")
        self.flat = np.concatenate([p.ravel() for p in params]).astype(np.float64, copy=False)
        views = self.config.param_views(self.flat)
        self.weights, self.biases = views[0::2], views[1::2]

    def parameters(self) -> list:
        """The live parameters, interleaved (w0, b0, w1, b1, ...)."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def param_names(self) -> list[str]:
        names = []
        last = len(self.weights) - 1
        for i in range(len(self.weights)):
            stem = "head" if i == last else f"layer{i}"
            names.append(f"{stem}.weight")
            names.append(f"{stem}.bias")
        return names


def init_model(config: ModelConfig, seed: int) -> Model:
    """He-style init: weights ~ Normal(0, sqrt(2/fan_in)), biases zero.
    Layers that numpy cannot allocate are a ConfigError."""
    rng = np.random.default_rng(seed)
    dims = config.layer_dims
    weights, biases = [], []
    try:
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            weights.append(rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
    except (MemoryError, ValueError) as exc:
        raise ConfigError(f"cannot allocate a model with layer dimensions {dims}: {exc}") from exc
    return Model(config, weights, biases)


def forward_batch(model: Model, x_rows, out: tuple[Array, ...] | None = None
                  ) -> tuple[list[Array], Array, Array, Array]:
    """Run a (batch, input_dim) matrix of inputs through the network.

    Returns (acts, s, shifted, total) row-wise: the input and each relu
    layer's output (the last one is the features), then the
    ``softmax_parts`` of the logits, shifted in place. A single input is
    a one-row matrix. ``out`` is an optional tuple of arrays to write
    into: one per relu layer, then the logits and the softmax.
    """
    x = np.asarray(x_rows, dtype=np.float64, order="C")
    if x.ndim != 2 or x.shape[1] != model.config.input_dim:
        raise ValueError(
            f"forward_batch: expected (n, {model.config.input_dim}) inputs, got shape {x.shape}")
    out = (None,) * (len(model.weights) + 1) if out is None else out
    acts = [x]
    for w, b, h in zip(model.weights[:-1], model.biases[:-1], out):
        h = np.matmul(acts[-1], w, out=h)
        h += b
        acts.append(np.maximum(h, 0.0, out=h))
    z = np.matmul(acts[-1], model.weights[-1], out=out[-2])
    z += model.biases[-1]
    return acts, *softmax_parts(z, out=(out[-1], z))


def forward_values(model: Model, x_rows: Array) -> tuple[Array, Array]:
    """The (features, distributions) of ``forward_batch``."""
    acts, s, _, _ = forward_batch(model, x_rows)
    return acts[-1], s


def predict_ages(s_rows: Array) -> Array:
    """Age estimates from a matrix of distributions over labels 1..A:
    each row's mean sum_j j*s_j, always in [1, A]."""
    s_rows = np.asarray(s_rows, dtype=np.float64)
    return s_rows @ np.arange(1, s_rows.shape[1] + 1, dtype=np.float64)


def save_model(model: Model, path) -> None:
    """Write a self-describing textual checkpoint; load(save(m)) is bitwise m."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "config": asdict(model.config),
        "parameters": [
            {"name": name, "shape": list(arr.shape), "data": arr.ravel().tolist()}
            for name, arr in zip(model.param_names(), model.parameters())
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def load_model(path) -> Model:
    """Read a checkpoint; any malformed content raises ValueError."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except RecursionError as exc:
        raise ValueError(f"load_model: JSON nested too deeply in {path}") from exc
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"load_model: unrecognized checkpoint format in {path}")
    try:
        raw = payload["config"]
        if set(raw) != {f.name for f in fields(ModelConfig)}:
            raise ValueError(f"config keys {list(raw)} are not ModelConfig's")
        widths = raw["hidden_widths"]
        if not (isinstance(widths, list) and all(type(d) is int for d in [
                raw["input_dim"], *widths, raw["feature_dim"], raw["num_ages"]])):
            raise ValueError(f"config dimensions must be JSON integers, got {raw}")
        config = ModelConfig(**raw)
        arrays = [np.array(entry["data"], dtype=np.float64).reshape(entry["shape"])
                  for entry in payload["parameters"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"load_model: malformed checkpoint {path}: {exc!r}") from exc
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError(f"load_model: non-finite parameter value in {path}")
    expected = config.param_shapes
    got = [a.shape for a in arrays]
    if got != expected:
        raise ValueError(f"load_model: parameter shapes {got} do not match config {expected}")
    return Model(config, arrays[0::2], arrays[1::2])
