"""Seeded deployment generation and the flat key=value config format.

A scenario is a transmitter array, single-dipole receivers, a square RIS
grid, and clustered environmental scatterers, all z-aligned half-wave wire
dipoles centered in the z = 0 plane. Geometry is a pure function of
(seed, realization_index) through counter-based RNG substreams, so any
realization can be regenerated in isolation.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields, replace

import numpy as np

from saris.dipoles import Dipole, GeometryError, Role

#: Wire radius as a fraction of the wavelength.
WIRE_RADIUS_FACTOR = 1.0 / 500.0

#: Minimum center separation between randomly placed dipoles, in wire radii.
MIN_SEPARATION_RADII = 4.0

_CLUSTER_RETRIES = 100
_MEMBER_RETRIES = 1000

# Receivers past the reference deployment's continue its row along x, at
# 4-wavelength steps from the first reference receiver.
_UE_ANCHOR_X = 16.0
_UE_STEP_X = 4.0
_UE_Y = 24.0


def default_ue_position(index: int, wavelength: float) -> tuple[float, float]:
    """Position of receiver `index` (0-based) when the config does not place
    it explicitly, in meters: a reference receiver scaled by wavelength /
    ScenarioConfig.wavelength, and past those the next place in their row."""
    if index < len(ScenarioConfig.p_UE):
        return scale_length(ScenarioConfig.p_UE[index], wavelength / ScenarioConfig.wavelength)
    return (
        (_UE_ANCHOR_X + _UE_STEP_X * index) * wavelength,
        _UE_Y * wavelength,
    )


def _is_int(value) -> bool:
    # bool is an int subclass, but the config text spells integers only.
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class ScenarioConfig:
    """Deployment and experiment parameters; lengths in meters.

    Defaults describe the reference deployment at 6 cm wavelength; distance
    defaults scale with the wavelength when constructed via parse_config.
    """

    wavelength: float = 0.06
    M: int = 4
    L: int = 2
    N: int = 16
    N_c: int = 4
    N_O: int = 50
    d: float = 0.03
    R: float = 2.4
    r: float = 0.06
    p_BS: tuple[float, float] = (0.0, 0.0)
    p_RIS: tuple[float, float] = (0.0, 2.4)
    p_UE: tuple[tuple[float, float], ...] = ((0.96, 1.44), (1.2, 1.44))
    R0: float = 0.2
    Q_interval: tuple[float, float] = (-302.50, -19.66)
    Z_G: float = 50.0
    Z_L: float = 50.0
    Z_US: float = 0.0
    P: float = 1.0
    sigma_n2: float = 1e-11
    seed: int = 0
    trials: int = 1

    def __post_init__(self):
        for name in ("M", "L", "N", "N_c", "N_O", "trials"):
            value = getattr(self, name)
            if not _is_int(value) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if math.isqrt(self.N) ** 2 != self.N:
            raise ValueError(f"N must be a perfect square, got {self.N}")
        # The config text has no spelling for NaN or infinity.
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(f.default, int) and not np.all(np.isfinite(value)):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        for name in ("wavelength", "d", "R", "r", "P", "sigma_n2"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value!r}")
        if self.R0 < 0:
            raise ValueError(f"R0 must be nonnegative, got {self.R0!r}")
        if not _is_int(self.seed) or not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        lo, hi = self.Q_interval
        if not lo < hi:
            raise ValueError(f"Q_interval must satisfy lo < hi, got {self.Q_interval!r}")
        if len(self.p_UE) != self.L:
            raise ValueError(
                f"expected {self.L} receiver positions, got {len(self.p_UE)}"
            )

    @property
    def n_eso(self) -> int:
        return self.N_c * self.N_O

    @property
    def wire_radius(self) -> float:
        return self.wavelength * WIRE_RADIUS_FACTOR


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent counter-based RNG stream addressed by (seed, key)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


def _terminal_positions(config: ScenarioConfig) -> list[tuple[float, float]]:
    half_span = 0.5 * (config.M - 1) * 0.5 * config.wavelength
    bs = [
        (config.p_BS[0] - half_span + 0.5 * config.wavelength * i, config.p_BS[1])
        for i in range(config.M)
    ]
    return bs + list(config.p_UE)


def _ris_positions(config: ScenarioConfig) -> list[tuple[float, float]]:
    side = math.isqrt(config.N)
    offset = 0.5 * (side - 1)
    return [
        (
            config.p_RIS[0] + (ix - offset) * config.d,
            config.p_RIS[1] + (iy - offset) * config.d,
        )
        for ix in range(side)
        for iy in range(side)
    ]


def generate(config: ScenarioConfig, realization_index: int) -> list[Dipole]:
    """Dipoles of one realization, deterministic in (seed, realization_index).

    Scatterer cluster centers are drawn area-uniformly over the half-disk of
    radius R around the RIS on the side of the receivers; a center whose
    member disk comes within a tenth of a wavelength of a terminal is
    redrawn. Cluster members are drawn area-uniformly in a disk of radius r
    and redrawn while they sit closer than a few wire radii to any already
    placed dipole.
    """
    if realization_index < 0:
        raise ValueError(f"realization_index must be nonnegative, got {realization_index}")
    rng = substream(config.seed, realization_index)
    lam = config.wavelength
    length = 0.5 * lam
    radius = config.wire_radius
    terminals = _terminal_positions(config)
    ris = _ris_positions(config)

    # Half-plane of the cluster region: toward the receivers.
    ue_y = np.mean([p[1] for p in config.p_UE])
    theta_lo, theta_hi = (np.pi, 2 * np.pi) if ue_y <= config.p_RIS[1] else (0.0, np.pi)

    clearance = config.r + lam / 10.0
    min_sep = MIN_SEPARATION_RADII * radius
    # x and y rows of every placed dipole, filled as members are placed.
    placed = len(terminals) + len(ris)
    occupied = np.empty((2, placed + config.n_eso))
    occupied[:, :placed] = np.transpose(terminals + ris)
    first_eso = placed
    for c in range(config.N_c):
        for attempt in range(_CLUSTER_RETRIES + 1):
            theta = rng.uniform(theta_lo, theta_hi)
            s = config.R * np.sqrt(rng.uniform())
            center = (
                config.p_RIS[0] + s * np.cos(theta),
                config.p_RIS[1] + s * np.sin(theta),
            )
            if all(np.hypot(t[0] - center[0], t[1] - center[1]) >= clearance for t in terminals):
                break
        else:
            raise GeometryError(
                f"could not place cluster {c} clear of the terminals "
                f"after {_CLUSTER_RETRIES} redraws"
            )
        placed = _place_members(rng, config, c, center, min_sep, occupied, placed)

    dipoles = [
        Dipole((x, y, 0.0), length, radius, Role.TRANSMITTER)
        for x, y in terminals[: config.M]
    ]
    dipoles += [Dipole((x, y, 0.0), length, radius, Role.RECEIVER) for x, y in config.p_UE]
    dipoles += [
        Dipole((x, y, 0.0), length, radius, Role.ESO)
        for x, y in occupied[:, first_eso:].T.tolist()
    ]
    dipoles += [Dipole((x, y, 0.0), length, radius, Role.RIS_CELL) for x, y in ris]
    return dipoles


def _place_members(rng, config, c, center, min_sep, occupied, placed) -> int:
    """Place the N_O members of cluster `c` into occupied[:, placed:] and
    return the new count of placed dipoles.

    Each member is an area-uniform (angle, radius) draw in the disk of radius
    r around `center`, redrawn while it sits closer than `min_sep` to any
    placed dipole. Drawn one pair at a time, the members would take at least
    as many pairs as are still missing, so the pairs are drawn that many at a
    time: each pair meets the fate it would meet alone, from the same random
    stream, and the positions are bit for bit the same. A batch is tested
    against the dipoles placed before it in one distance table, and against
    its own earlier pairs in another.
    """
    members = 0
    redraws = 0  # consecutive rejected pairs of the member being placed
    while members < config.N_O:
        need = config.N_O - members
        # rng.uniform(0, 2 pi) and rng.uniform() of each pair, in stream order.
        u_ang, u_rad = rng.random(2 * need).reshape(need, 2).T
        ang = 2 * np.pi * u_ang
        rad = config.r * np.sqrt(u_rad)
        px = center[0] + rad * np.cos(ang)
        py = center[1] + rad * np.sin(ang)
        kept = np.ones(need, dtype=bool)
        x, y = occupied[:, :placed]
        kept[_close_pairs(px, py, x, y, min_sep)[0]] = False
        # Pair k is also rejected when it sits too close to a kept pair
        # j < k. The pairs come row by row, so the fate of j is settled
        # before row k reads it.
        for k, j in zip(*_close_pairs(px, py, px, py, min_sep)):
            if j < k and kept[j]:
                kept[k] = False
        # Redraws before each kept pair (the first one continues the count of
        # the last batch), and after the last one.
        kept_at = np.flatnonzero(kept)
        gaps = np.diff(kept_at, prepend=-1 - redraws) - 1
        tail = need - 1 - kept_at[-1] if kept_at.size else redraws + need
        over = np.flatnonzero(gaps > _MEMBER_RETRIES)
        if over.size or tail > _MEMBER_RETRIES:
            m = members + (over[0] if over.size else kept_at.size)
            raise GeometryError(
                f"could not place member {m} of cluster {c} with "
                f"{min_sep:.2e} m separation after {_MEMBER_RETRIES} redraws"
            )
        occupied[0, placed : placed + kept_at.size] = px[kept_at]
        occupied[1, placed : placed + kept_at.size] = py[kept_at]
        placed += kept_at.size
        members += kept_at.size
        redraws = tail
    return placed


def _close_pairs(px, py, x, y, min_sep):
    """Index pairs (k, j), in row-major order as lists, of the points
    (px[k], py[k]) and (x[j], y[j]) with hypot(x[j] - px[k], y[j] - py[k])
    < min_sep, the test a single point would take.

    Differences of at least 2 min_sep rule a pair out without hypot, by a
    margin far above rounding: a point that far outside the bounding box of
    the (px, py) in x or y (rounding is monotone, so each of its differences
    is at least as large), and a pair whose squared distance is at least
    (2 min_sep)^2.
    """
    reach = 2.0 * min_sep
    inside = np.flatnonzero(
        (x - px.max() < reach) & (px.min() - x < reach) & (y - py.max() < reach) & (py.min() - y < reach)
    )
    dx = x[inside] - px[:, None]
    dy = y[inside] - py[:, None]
    k, j = np.nonzero(dx * dx + dy * dy < reach * reach)
    close = np.hypot(dx[k, j], dy[k, j]) < min_sep
    return k[close].tolist(), inside[j[close]].tolist()


class ConfigError(ValueError):
    """Malformed or invalid scenario configuration text."""


#: Length keys take a λ suffix, and their defaults scale with the wavelength.
#: Every other key is an integer, a number or a 2-vector, as the type of its
#: ScenarioConfig default says.
_LENGTHS = {"d", "R", "r", "p_BS", "p_RIS", "p_UE"}
_DEFAULTS = ScenarioConfig()
_FIELD_NAMES = [f.name for f in fields(ScenarioConfig)]
_UE_KEY = re.compile(r"^p_UE([1-9][0-9]*)$")

_INTEGER = re.compile(r"^[+-]?\d+$")
_NUMBER = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_SCALED = re.compile(rf"^({_NUMBER})\s*(λ|lambda)?$")
_VECTOR = re.compile(rf"^\[\s*({_NUMBER})\s*,\s*({_NUMBER})\s*\]\s*(λ|lambda)?$")


def parse_value(key: str, text: str) -> tuple[int | float | tuple[float, float], bool]:
    """Value of config `key` written as `text`, and whether it is in wavelengths.

    Receiver i is set by the key `p_UEi`; the field `p_UE` has no key of
    its own. Errors do not name a line.
    """
    field = "p_UE" if _UE_KEY.match(key) else key
    if field not in _FIELD_NAMES or key == "p_UE":
        raise ConfigError(f"unknown key {key!r}")
    default = getattr(_DEFAULTS, field)
    if isinstance(default, int):
        if not _INTEGER.match(text):
            raise ConfigError(f"{key} expects an integer, got {text!r}")
        return int(text), False
    if isinstance(default, float):
        m = _SCALED.match(text)
        if not m:
            raise ConfigError(f"{key} expects a number, got {text!r}")
        value, unit = float(m.group(1)), m.group(2)
    else:
        m = _VECTOR.match(text)
        if not m:
            raise ConfigError(f"{key} expects a 2-vector like [16, 24]λ, got {text!r}")
        value, unit = (float(m.group(1)), float(m.group(2))), m.group(3)
    if unit is not None and field not in _LENGTHS:
        raise ConfigError(f"{key} is not a length; a λ suffix is not allowed")
    return value, unit is not None


def scale_length(value: float | tuple[float, float], factor: float):
    """A length (number or 2-vector) multiplied by `factor`."""
    if isinstance(value, tuple):
        return (value[0] * factor, value[1] * factor)
    return value * factor


def format_value(value) -> str:
    """Config-text spelling of one value; floats keep every bit."""
    if isinstance(value, tuple):
        return f"[{value[0]!r}, {value[1]!r}]"
    return repr(value)


def parse_config(text: str) -> ScenarioConfig:
    """Build a ScenarioConfig from flat key = value text.

    Omitted keys take the reference-deployment defaults; distance defaults
    and λ-suffixed values are resolved against the configured wavelength.
    Unknown or duplicate keys and malformed values are rejected with the
    offending line number.
    """
    raw: dict[str, tuple[object, bool]] = {}
    lines: dict[str, int] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in lines:
            raise ConfigError(
                f"line {line_no}: duplicate key {key!r} (first on line {lines[key]})"
            )
        lines[key] = line_no
        try:
            raw[key] = parse_value(key, value.strip())
        except ConfigError as exc:
            raise ConfigError(f"line {line_no}: {exc}") from None

    wavelength = raw["wavelength"][0] if "wavelength" in raw else _DEFAULTS.wavelength
    scale = wavelength / _DEFAULTS.wavelength

    def resolve(key: str, default):
        if key not in raw:
            return default
        value, scaled = raw[key]
        return scale_length(value, wavelength) if scaled else value

    def default_of(name: str):
        default = getattr(_DEFAULTS, name)
        return scale_length(default, scale) if name in _LENGTHS else default

    kwargs = {name: resolve(name, default_of(name)) for name in _FIELD_NAMES if name != "p_UE"}

    l_users = kwargs["L"]
    for key in raw:
        ue_match = _UE_KEY.match(key)
        if ue_match and int(ue_match.group(1)) > l_users:
            raise ConfigError(f"line {lines[key]}: {key} given but L = {l_users}")

    kwargs["p_UE"] = tuple(
        resolve(f"p_UE{i + 1}", default_ue_position(i, wavelength)) for i in range(l_users)
    )

    try:
        return ScenarioConfig(**kwargs)
    except ValueError as exc:
        message = str(exc)
        first = message.split()[0] if message else ""
        if first in lines:
            message = f"line {lines[first]}: {message}"
        raise ConfigError(message) from None


def resize_users(config: ScenarioConfig, l_users: int) -> ScenarioConfig:
    """Config with L changed: the first receivers kept, and any added one
    placed by default_ue_position, as parse_config places it."""
    p_ue = list(config.p_UE[:l_users])
    while len(p_ue) < l_users:
        p_ue.append(default_ue_position(len(p_ue), config.wavelength))
    return replace(config, L=l_users, p_UE=tuple(p_ue))


def serialize_config(config: ScenarioConfig) -> str:
    """Config text that parses back to an identical ScenarioConfig."""
    parts = []
    for name in _FIELD_NAMES:
        value = getattr(config, name)
        if name == "p_UE":
            parts += [f"p_UE{i} = {format_value(p)}" for i, p in enumerate(value, start=1)]
        else:
            parts.append(f"{name} = {format_value(value)}")
    return "\n".join(parts) + "\n"
