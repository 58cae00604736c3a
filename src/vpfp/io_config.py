"""Configuration parsing, canonical serialization, and deterministic writers.

The config format is plain `key = value` text with `#` comments.  Every key
has a default, a type, and a validated range; unknown or duplicated keys are
hard errors naming the offending line.  A parsed config re-serializes to a
canonical form (sorted keys, repr floats) whose SHA-256 is the run identity
recorded in manifests.

Writers never append: CSV and JSON go through a temp file and os.replace.
"""

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DomainError
from .linear_theory import InteractionKernel
from .multiplier import NormSpec

MANIFEST_VERSION = 5
_KERNEL_CHOICES = ("coulomb", "screened", "custom")


@dataclass(frozen=True)
class RunConfig:
    """Fully validated run parameters shared by the CLI and the drivers.

    Scan lists left empty mean "use the driver's documented default";
    t_final = 0 likewise asks the driver to size its own horizon.  There
    are no lattice keys: each driver sizes its own lattice per cell, at the
    spacing it fixes for its campaign.  Construction applies parse_config's
    range and cross-key checks.  The output directory is not a key.
    """

    nu: float = 1e-3
    eps: float = 1e-4
    kernel: str = "coulomb"
    kernel_table: tuple = ()

    nu_list: tuple = ()
    k_list: tuple = (1, 2, 4)
    t_final: float = 0.0

    mode_k: int = 1
    mode_center: float = 0.0
    mode_width: float = 1.0

    echo_eta_star: float = 12.0
    echo_pump_k: int = 2

    threshold_eps_cap: float = 0.3
    threshold_factor: float = 2.0
    threshold_horizon: float = 5.0
    threshold_ratio_tol: float = 1.047

    def __post_init__(self):
        _validate(vars(self), {})

    def norm_spec(self) -> NormSpec:
        """The weighted norms' NormSpec: s = 4, c = 0.025, m = 2."""
        return NormSpec()

    def kernel_object(self, k_max: int) -> InteractionKernel:
        """The configured kernel on the band |k| <= k_max."""
        if self.kernel == "coulomb":
            return InteractionKernel.coulomb(k_max=k_max)
        if self.kernel == "screened":
            return InteractionKernel.screened(k_max=k_max)
        if len(self.kernel_table) < k_max:
            raise ConfigError(
                f"`kernel_table` has {len(self.kernel_table)} entries; this "
                f"campaign's band needs k_max = {k_max}")
        table = {}
        for i, v in enumerate(self.kernel_table):
            table[i + 1] = float(v)
            table[-(i + 1)] = float(v)
        return InteractionKernel(table=table)


# key -> (kind, validator, requirement text). Kinds: int, float, str,
# float_list, int_list. The requirement text doubles as the error message.
_SCHEMA = {
    "nu": ("float", lambda v: 0.0 <= v <= 10.0, "in [0, 10]"),
    "eps": ("float", lambda v: 0.0 <= v <= 10.0, "in [0, 10]"),
    "kernel": ("str", lambda v: v in _KERNEL_CHOICES,
               "one of coulomb, screened, custom"),
    "kernel_table": ("float_list", lambda v: all(0.0 <= x < np.inf for x in v),
                     "a list of finite weights >= 0"),
    "nu_list": ("float_list", lambda v: all(0.0 < x <= 10.0 for x in v),
                "a list of values in (0, 10]"),
    "k_list": ("int_list", lambda v: all(1 <= x <= 64 for x in v),
               "a list of integers in [1, 64]"),
    "t_final": ("float", lambda v: 0.0 <= v <= 1e7, "in [0, 1e7]"),
    "mode_k": ("int", lambda v: v != 0 and abs(v) <= 64,
               "a nonzero integer with |k| <= 64"),
    "mode_center": ("float", lambda v: abs(v) <= 1e4, "in [-1e4, 1e4]"),
    "mode_width": ("float", lambda v: 0.0 < v <= 100.0, "in (0, 100]"),
    "echo_eta_star": ("float", lambda v: 0.0 < v <= 1e4, "in (0, 1e4]"),
    # pump_k = 1 would put the pump on the seed's +/-1 pair
    "echo_pump_k": ("int", lambda v: 2 <= v <= 64, "an integer in [2, 64]"),
    "threshold_eps_cap": ("float", lambda v: 0.0 < v <= 10.0, "in (0, 10]"),
    "threshold_factor": ("float", lambda v: 1.0 < v <= 100.0, "in (1, 100]"),
    "threshold_horizon": ("float", lambda v: 0.0 < v <= 100.0, "in (0, 100]"),
    "threshold_ratio_tol": ("float", lambda v: 1.0 < v <= 2.0, "in (1, 2]"),
}

_DEFAULTS = {f.name: f.default for f in dataclasses.fields(RunConfig)}
assert set(_SCHEMA) == set(_DEFAULTS)


def _parse_scalar(key: str, kind: str, raw: str, where: str):
    if kind == "str":
        return raw
    try:
        if kind == "int":
            # reject floats masquerading as ints ("8.0" is not an int key)
            return int(raw, 10)
        return float(raw)
    except ValueError:
        raise ConfigError(f"{where}: value for `{key}` is not a valid {kind}:"
                          f" {raw!r}") from None


def _parse_value(key: str, kind: str, raw: str, where: str):
    if kind in ("float_list", "int_list"):
        if raw == "":
            return ()
        item_kind = kind[:-5]
        return tuple(_parse_scalar(key, item_kind, part.strip(), where)
                     for part in raw.split(","))
    return _parse_scalar(key, kind, raw, where)


def parse_config(text: str) -> RunConfig:
    """Parse `key = value` text into a validated RunConfig.

    Comments run from `#` to end of line.  Unknown keys, duplicated keys,
    type errors, range violations, and inconsistent key pairs all raise
    ConfigError naming the line.
    """
    values = {}
    lines = {}
    for ln, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"line {ln}"
        if "=" not in line:
            raise ConfigError(f"{where}: expected `key = value`, got {line!r}")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"{where}: unknown key `{key}`")
        if key in values:
            raise ConfigError(
                f"{where}: duplicate key `{key}` (first set on line {lines[key]})")
        values[key] = _parse_value(key, _SCHEMA[key][0], raw, where)
        lines[key] = ln

    _validate({**_DEFAULTS, **values}, lines)
    return RunConfig(**values)


def _validate(values: dict, lines: dict) -> None:
    """Range and cross-key checks; errors name the key's line, if it has one."""
    def where(key: str) -> str:
        return f"line {lines[key]}" if key in lines else "RunConfig"

    # the first offending line is reported first
    for key in sorted(values, key=lambda k: lines.get(k, 0)):
        kind, ok, req = _SCHEMA[key]
        # an int key holds Python or numpy integers, never bools or floats
        ints = {"int": (values[key],), "int_list": values[key]}.get(kind, ())
        if not (all(isinstance(v, (int, np.integer))
                    and not isinstance(v, bool) for v in ints)
                and ok(values[key])):
            raise ConfigError(f"{where(key)}: `{key}` must be {req}, "
                              f"got {_format_value(kind, values[key])!r}")
    # how many entries a custom table needs depends on the campaign's band,
    # which kernel_object checks
    if values["kernel"] == "custom":
        if not values["kernel_table"]:
            raise ConfigError(
                f"{where('kernel')}: custom kernel needs a nonempty "
                f"kernel_table")
    elif values["kernel_table"]:
        raise ConfigError(
            f"{where('kernel_table')}: kernel_table is only valid with "
            f"kernel = custom")


def _format_value(kind: str, val) -> str:
    if kind == "str":
        return str(val)

    def text(x) -> str:
        # numpy scalars print as the Python ones, which parse_config reads
        return repr(x.item() if isinstance(x, np.generic) else x)

    if kind in ("float_list", "int_list"):
        return ", ".join(text(x) for x in val)
    return text(val)


def canonical_text(cfg: RunConfig) -> str:
    """Canonical serialization: sorted keys, repr literals, one per line.

    parse_config(canonical_text(cfg)) == cfg, and the function is
    idempotent on its own output.  The SHA-256 of this text is the run
    identity.
    """
    out = []
    for key in sorted(_SCHEMA):
        kind = _SCHEMA[key][0]
        out.append(f"{key} = {_format_value(kind, getattr(cfg, key))}")
    return "\n".join(out) + "\n"


def config_hash(cfg: RunConfig) -> str:
    """SHA-256 hex digest of the canonical serialization (UTF-8 bytes)."""
    return hashlib.sha256(canonical_text(cfg).encode("utf-8")).hexdigest()


def _atomic_write_bytes(path, payload: bytes) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    with open(tmp, "wb") as fh:
        fh.write(payload)
    os.replace(tmp, path)


def format_float(x: float) -> str:
    """17-significant-digit decimal text; round-trips 64-bit floats."""
    return "%.17g" % float(x)


def _format_cell(x) -> str:
    if isinstance(x, str):
        if "," in x or "\n" in x or "\r" in x:
            raise DomainError(f"CSV cell may not contain commas or newlines: {x!r}")
        return x
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format_float(float(x))
    raise DomainError(f"unsupported CSV cell type {type(x).__name__}")


def write_csv(rows, schema, path) -> None:
    """Write rows under a fixed column schema, atomically.

    Rows are sequences matching the schema length, or mappings with exactly
    the schema keys.  Floats are written with 17 significant digits so a
    read-back parses to identical bits.
    """
    schema = list(schema)
    if not schema:
        raise DomainError("CSV schema must name at least one column")
    out = [",".join(schema)]
    for i, row in enumerate(rows):
        if isinstance(row, dict):
            if set(row) != set(schema):
                raise DomainError(
                    f"row {i} keys {sorted(row)} do not match schema {schema}")
            cells = [row[col] for col in schema]
        else:
            cells = list(row)
            if len(cells) != len(schema):
                raise DomainError(
                    f"row {i} has {len(cells)} cells, schema has {len(schema)}")
        out.append(",".join(_format_cell(c) for c in cells))
    _atomic_write_bytes(path, ("\n".join(out) + "\n").encode("utf-8"))


def write_manifest(config: RunConfig, results: dict, path) -> None:
    """Write the run manifest: config echo, its hash, and result summary.

    The embedded canonical config text plus the `experiment` entry the
    drivers put in results is everything rerun_from_manifest needs.
    """
    doc = {
        "format": "vpfp-manifest",
        "version": MANIFEST_VERSION,
        "config_hash": config_hash(config),
        "config": canonical_text(config),
        "results": results,
    }
    payload = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    _atomic_write_bytes(path, payload.encode("utf-8"))


def write_json(doc: dict, path) -> None:
    """Atomic JSON writer with sorted keys (used for scan summaries)."""
    payload = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    _atomic_write_bytes(path, payload.encode("utf-8"))


def read_manifest(path) -> dict:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid manifest JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != "vpfp-manifest":
        raise ConfigError(f"{path}: not a manifest file")
    if doc.get("version") != MANIFEST_VERSION:
        raise ConfigError(
            f"{path}: manifest version {doc.get('version')} unsupported "
            f"(expected {MANIFEST_VERSION})")
    if not isinstance(doc.get("config"), str):
        raise ConfigError(f"{path}: manifest has no config text")
    if not isinstance(doc.get("results"), dict):
        raise ConfigError(f"{path}: manifest results are not an object")
    digest = hashlib.sha256(doc["config"].encode("utf-8")).hexdigest()
    if digest != doc.get("config_hash"):
        raise ConfigError(
            f"{path}: config text hashes to {digest}, not the recorded "
            f"config_hash {doc.get('config_hash')}")
    return doc


def resolve_out_dir(arg_out) -> Path:
    """Resolve the output directory, honoring the VPFP_OUT root override.

    Relative paths land under $VPFP_OUT when that is set; absolute paths
    are used as given.
    """
    out = Path(arg_out)
    root = os.environ.get("VPFP_OUT", "")
    if root and not out.is_absolute():
        return Path(root) / out
    return out


class OutputLock:
    """Exclusive per-directory lockfile (O_EXCL create, pid inside).

    Concurrent runs must use distinct output directories; a second
    acquisition on the same directory is a hard error, and a stale file
    left by a crash must be removed by hand (stated in the error).
    """

    def __init__(self, out_dir):
        self.path = Path(out_dir) / "lock"
        self._fd = None

    def acquire(self) -> "OutputLock":
        self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            self._fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise ConfigError(
                f"output directory {self.path.parent} is locked by another "
                f"run; remove {self.path} if that run is dead") from None
        os.write(self._fd, f"{os.getpid()}\n".encode("ascii"))
        return self

    def release(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None
            try:
                os.unlink(self.path)
            except FileNotFoundError:
                pass

    def __enter__(self) -> "OutputLock":
        return self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()
