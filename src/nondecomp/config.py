"""Experiment configuration: flat key = value files, command-line overrides,
and a stable digest of the resolved configuration.

Every run is a pure function of (task, resolved config); the digest of the
canonical serialization is embedded in output rows so results stay
traceable to the exact configuration that produced them.
"""

from __future__ import annotations

import hashlib
import io
import math
import typing
from dataclasses import dataclass, fields

__all__ = [
    "ExperimentConfig", "UsageError", "TASKS", "parse_config_text", "read_input",
    "decoded", "undecodable_line",
]

TASKS = ("synth", "fit", "threshold", "eval", "convergence", "compare", "rate_check")


class UsageError(ValueError):
    """Bad command line, config file, or input file; maps to exit code 2."""


def read_input(path, what, parse, error):
    """parse(fh, data) of the input file ``path``, open as the text file
    ``fh``, whose bytes ``data`` are read here, once; ``decoded(fh, data)``
    is their text. Every failure names the file.

    A file that cannot be opened or read is a UsageError. A byte that is not
    text, or a format error of ``parse``, raises ``error`` (a format error
    class) prefixed with the path, and says on which line. That line is
    found in ``data``: a pipe cannot be read a second time."""
    data = b""
    try:
        with open(path) as fh:
            data = fh.buffer.read()
            return parse(fh, data)
    except OSError as exc:
        raise UsageError(f"cannot read {what} {path!r}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise error(f"{what} {path!r}: {undecodable_line(data, exc)}") from None
    except error as exc:
        raise error(f"{what} {path!r}: {exc}") from None


class _FileBytes(io.BytesIO):
    """Bytes read from an open file, as a stream whose fileno() is still
    that file's, so os.fstat of it sees the file they came from."""

    def __init__(self, data, fh):
        super().__init__(data)
        self._fileno = fh.fileno()

    def fileno(self):
        return self._fileno


def decoded(fh, data):
    """The bytes ``data`` read from the open text file ``fh``, as a text
    stream that decodes them as ``fh`` does."""
    return io.TextIOWrapper(_FileBytes(data, fh), encoding=fh.encoding, errors=fh.errors)


def undecodable_line(data, exc):
    """'line N: ...' naming the first byte of the file bytes ``data`` that
    is not text.

    ``exc`` is the UnicodeDecodeError raised while reading them; its
    position counts from the chunk being decoded, so the whole of ``data``
    is decoded again to find the line."""
    try:
        data.decode(exc.encoding)
    except UnicodeDecodeError as whole:
        exc = whole
    line = data.count(b"\n", 0, exc.start) + 1
    return f"line {line}: byte {exc.object[exc.start]:#04x} is not {exc.encoding} ({exc.reason})"


def parse_config_text(text):
    """Parse flat ``key = value`` lines; '#' starts a comment, blanks skipped.
    A key may be set once."""
    out, set_on = {}, {}
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"line {line_no}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in set_on:
            raise UsageError(f"line {line_no}: key {key!r} is already set on line {set_on[key]}")
        out[key], set_on[key] = value.strip(), line_no
    return out


def _opt(parser):
    def convert(text):
        if text == "" or text.lower() == "none":
            return None
        return parser(text)

    return convert


def _list_of(parser):
    def convert(text):
        if text == "" or text.lower() == "none":
            return ()
        return tuple(parser(tok.strip()) for tok in text.split(",") if tok.strip())

    return convert


def _parser(hint):
    """Converter of a key's raw text, derived from its field's type hint:
    T parses as T, ``T | None`` maps "" or "none" to None, and
    ``tuple[T, ...]`` is a comma list."""
    args = typing.get_args(hint)
    if type(None) in args:
        return _opt(_parser(args[0]))
    if typing.get_origin(hint) is tuple:
        return _list_of(args[0])
    return hint


@dataclass
class ExperimentConfig:
    """Resolved experiment description; one instance drives one command.

    Each field is one config key, and its type hint decides how the key's
    text is parsed (see ``_parser``).
    """

    task: str = "fit"
    seed: int = 0
    out_dir: str = "out"
    # synthetic problem
    n: int | None = None
    L: int | None = None
    d: int | None = None
    rank: int | None = None
    noise_model: str = "noise_free_sign"
    theta_star: float = 0.0
    noise_sigma: float = 1.0
    wstar_scale: float = 1.0
    # dataset input
    data_path: str | None = None
    test_path: str | None = None
    # observation process
    ratio: float = 0.2
    pu_rho: float = 0.0
    # solver
    solver: str = "alt_min"
    loss: str = "logistic"
    lambda_reg: float | None = None
    lambda_c: float = 1.0
    regularizer_mode: str = "param_norm"
    gamma_clip: float | None = None
    max_iters: int = 300
    rel_tol: float = 1e-6
    k: int | None = None
    ridge: float = 1e-4
    # metrics and experiment grids
    metric: str = "micro_f1"
    metrics: tuple[str, ...] = ("micro_f1", "accuracy")
    methods: tuple[str, ...] = ("algorithm1", "plugin")
    ratios: tuple[float, ...] = (0.05, 0.1, 0.2, 0.3, 0.5)
    repeats: int = 5
    grid_points: int = 4
    # outputs
    model_path: str | None = None

    @classmethod
    def from_sources(cls, task, file_values, override_values):
        """Build a config from a parsed file dict plus override dict."""
        if task not in TASKS:
            raise UsageError(f"unknown task {task!r}; expected one of: {', '.join(TASKS)}")
        merged = dict(file_values)
        merged.update(override_values)
        hints = typing.get_type_hints(cls)
        kwargs = {"task": task}
        for key, raw in merged.items():
            if key == "task":
                # the CLI positional wins; a task key in the file must agree
                if raw != task:
                    raise UsageError(
                        f"config task {raw!r} conflicts with command-line task {task!r}"
                    )
                continue
            if key not in hints:
                raise UsageError(f"unknown config key {key!r}")
            try:
                kwargs[key] = _parser(hints[key])(raw)
            except ValueError as exc:
                raise UsageError(f"config key {key!r}: {exc}") from None
        cfg = cls(**kwargs)
        cfg._validate()
        return cfg

    def _validate(self):
        if self.seed < 0:
            raise UsageError("seed must be nonnegative")
        if self.repeats < 1:
            raise UsageError("repeats must be at least 1")
        if not 0.0 < self.ratio <= 1.0:
            raise UsageError("ratio must lie in (0, 1]")
        for r in self.ratios:
            if not 0.0 < r <= 1.0:
                raise UsageError("ratios must lie in (0, 1]")
        if not 0.0 <= self.pu_rho < 1.0:
            raise UsageError("pu_rho must lie in [0, 1)")
        if self.solver not in ("alt_min", "prox_grad", "plugin"):
            raise UsageError("solver must be alt_min, prox_grad, or plugin")
        if self.gamma_clip is not None and not self.gamma_clip > 0:
            raise UsageError("gamma_clip must be positive")
        if not 0 <= self.ridge < math.inf:
            raise UsageError("ridge must be finite and nonnegative")
        if self.test_path is not None and self.data_path is None:
            raise UsageError("test_path is only read with data_path")

    def require_synthetic(self):
        if self.data_path is not None:
            raise UsageError(f"{self.task} needs a synthetic problem; data_path is not accepted")
        missing = [name for name in ("n", "L", "d", "rank") if getattr(self, name) is None]
        if missing:
            raise UsageError(
                f"task {self.task!r} needs a synthetic spec; missing: {', '.join(missing)}"
            )

    def canonical_text(self):
        """Stable serialization of every field, one 'key = value' line each."""
        parts = []
        for f in sorted(fields(self), key=lambda f: f.name):
            value = getattr(self, f.name)
            if value is None:
                text = ""
            elif isinstance(value, tuple):
                text = ",".join(map(str, value))
            else:
                text = str(value)
            parts.append(f"{f.name} = {text}")
        return "\n".join(parts) + "\n"

    def config_hash(self):
        """First 12 hex digits of the SHA-256 of the canonical serialization."""
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:12]
