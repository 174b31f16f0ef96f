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
from dataclasses import dataclass, replace

import numpy as np

from saris.dipoles import Dipole, GeometryError, Role

#: Wire radius as a fraction of the wavelength.
WIRE_RADIUS_FACTOR = 1.0 / 500.0

#: Minimum center separation between randomly placed dipoles, in wire radii.
MIN_SEPARATION_RADII = 4.0

_CLUSTER_RETRIES = 100
_MEMBER_RETRIES = 1000

# Fallback receiver placement: along x at 4-wavelength steps starting from
# the first default receiver, matching the two defaults below.
_UE_ANCHOR_X = 16.0
_UE_STEP_X = 4.0
_UE_Y = 24.0


def default_ue_position(index: int, wavelength: float) -> tuple[float, float]:
    """Position of receiver `index` (0-based) when the config does not place
    it explicitly, in meters."""
    return (
        (_UE_ANCHOR_X + _UE_STEP_X * index) * wavelength,
        _UE_Y * wavelength,
    )


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
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if math.isqrt(self.N) ** 2 != self.N:
            raise ValueError(f"N must be a perfect square, got {self.N}")
        # The config text has no spelling for NaN or infinity.
        for name in ("wavelength", "d", "R", "r", "p_BS", "p_RIS", "p_UE", "R0",
                     "Q_interval", "Z_G", "Z_L", "Z_US", "P", "sigma_n2"):
            value = getattr(self, name)
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite, got {value!r}")
        for name in ("wavelength", "d", "R", "r", "P", "sigma_n2"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value!r}")
        if self.R0 < 0:
            raise ValueError(f"R0 must be nonnegative, got {self.R0!r}")
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
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
    eso: list[tuple[float, float]] = []
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
        for m in range(config.N_O):
            for attempt in range(_MEMBER_RETRIES + 1):
                ang = rng.uniform(0.0, 2 * np.pi)
                rad = config.r * np.sqrt(rng.uniform())
                p = (center[0] + rad * np.cos(ang), center[1] + rad * np.sin(ang))
                x, y = occupied[:, :placed]
                if np.min(np.hypot(x - p[0], y - p[1])) >= min_sep:
                    break
            else:
                raise GeometryError(
                    f"could not place member {m} of cluster {c} with "
                    f"{min_sep:.2e} m separation after {_MEMBER_RETRIES} redraws"
                )
            eso.append(p)
            occupied[:, placed] = p
            placed += 1

    dipoles = [
        Dipole((x, y, 0.0), length, radius, Role.TRANSMITTER)
        for x, y in terminals[: config.M]
    ]
    dipoles += [Dipole((x, y, 0.0), length, radius, Role.RECEIVER) for x, y in config.p_UE]
    dipoles += [Dipole((x, y, 0.0), length, radius, Role.ESO) for x, y in eso]
    dipoles += [Dipole((x, y, 0.0), length, radius, Role.RIS_CELL) for x, y in ris]
    return dipoles


class ConfigError(ValueError):
    """Malformed or invalid scenario configuration text."""


_INT_KEYS = {"M", "L", "N", "N_c", "N_O", "seed", "trials"}
_FLOAT_KEYS = {"wavelength", "R0", "Z_G", "Z_L", "Z_US", "P", "sigma_n2"}
_LENGTH_KEYS = {"d", "R", "r"}
_VECTOR_KEYS = {"p_BS", "p_RIS"}
_PAIR_KEYS = {"Q_interval"}
_UE_KEY = re.compile(r"^p_UE([1-9][0-9]*)$")

_NUMBER = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_SCALED = re.compile(rf"^({_NUMBER})\s*(λ|lambda)?$")
_VECTOR = re.compile(rf"^\[\s*({_NUMBER})\s*,\s*({_NUMBER})\s*\]\s*(λ|lambda)?$")


def _parse_scaled(value: str, line_no: int, key: str):
    m = _SCALED.match(value)
    if not m:
        raise ConfigError(f"line {line_no}: {key} expects a number, got {value!r}")
    return float(m.group(1)), m.group(2) is not None


def _parse_vector(value: str, line_no: int, key: str):
    m = _VECTOR.match(value)
    if not m:
        raise ConfigError(
            f"line {line_no}: {key} expects a 2-vector like [16, 24]λ, got {value!r}"
        )
    return (float(m.group(1)), float(m.group(2))), m.group(3) is not None


def parse_config(text: str) -> ScenarioConfig:
    """Build a ScenarioConfig from flat key = value text.

    Omitted keys take the reference-deployment defaults; distance defaults
    and λ-suffixed values are resolved against the configured wavelength.
    Unknown or duplicate keys and malformed values are rejected with the
    offending line number.
    """
    raw: dict[str, tuple[object, bool]] = {}
    lines: dict[str, int] = {}
    ue_raw: dict[int, tuple[tuple[float, float], bool]] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key in lines:
            raise ConfigError(
                f"line {line_no}: duplicate key {key!r} (first on line {lines[key]})"
            )
        lines[key] = line_no
        ue_match = _UE_KEY.match(key)
        if key in _INT_KEYS:
            try:
                parsed = int(value)
            except ValueError:
                raise ConfigError(
                    f"line {line_no}: {key} expects an integer, got {value!r}"
                ) from None
            raw[key] = (parsed, False)
        elif key in _FLOAT_KEYS:
            number, scaled = _parse_scaled(value, line_no, key)
            if scaled:
                raise ConfigError(
                    f"line {line_no}: {key} is not a length; a λ suffix is not allowed"
                )
            raw[key] = (number, False)
        elif key in _LENGTH_KEYS:
            raw[key] = _parse_scaled(value, line_no, key)
        elif key in _VECTOR_KEYS:
            raw[key] = _parse_vector(value, line_no, key)
        elif key in _PAIR_KEYS:
            pair, scaled = _parse_vector(value, line_no, key)
            if scaled:
                raise ConfigError(
                    f"line {line_no}: {key} is not a length; a λ suffix is not allowed"
                )
            raw[key] = (pair, False)
        elif ue_match:
            ue_raw[int(ue_match.group(1))] = _parse_vector(value, line_no, key)
        else:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")

    defaults = ScenarioConfig()
    wavelength = raw.get("wavelength", (defaults.wavelength, False))[0]
    scale = wavelength / defaults.wavelength

    def resolve(key: str, default_value):
        if key not in raw:
            return default_value
        value, scaled = raw[key]
        if not scaled:
            return value
        if isinstance(value, tuple):
            return (value[0] * wavelength, value[1] * wavelength)
        return value * wavelength

    kwargs = {
        "wavelength": wavelength,
        "d": resolve("d", defaults.d * scale),
        "R": resolve("R", defaults.R * scale),
        "r": resolve("r", defaults.r * scale),
        "p_BS": resolve("p_BS", _scale_vec(defaults.p_BS, scale)),
        "p_RIS": resolve("p_RIS", _scale_vec(defaults.p_RIS, scale)),
    }
    for key in _INT_KEYS | _FLOAT_KEYS | _PAIR_KEYS:
        if key in raw:
            kwargs[key] = raw[key][0]

    l_users = kwargs.get("L", defaults.L)
    for index in ue_raw:
        if index > l_users:
            raise ConfigError(
                f"line {lines[f'p_UE{index}']}: p_UE{index} given but L = {l_users}"
            )
    p_ue = []
    for i in range(1, l_users + 1):
        if i in ue_raw:
            value, scaled = ue_raw[i]
            p_ue.append((value[0] * wavelength, value[1] * wavelength) if scaled else value)
        elif i <= len(defaults.p_UE):
            p_ue.append(_scale_vec(defaults.p_UE[i - 1], scale))
        else:
            p_ue.append(default_ue_position(i - 1, wavelength))
    kwargs["p_UE"] = tuple(p_ue)

    try:
        return ScenarioConfig(**kwargs)
    except ValueError as exc:
        message = str(exc)
        first = message.split()[0] if message else ""
        if first in lines:
            message = f"line {lines[first]}: {message}"
        raise ConfigError(message) from None


def _scale_vec(vec: tuple[float, float], scale: float) -> tuple[float, float]:
    return (vec[0] * scale, vec[1] * scale)


def resize_users(config: ScenarioConfig, l_users: int) -> ScenarioConfig:
    """Config with L changed, keeping explicit receiver positions and filling
    or trimming with the default placement rule."""
    p_ue = list(config.p_UE[:l_users])
    while len(p_ue) < l_users:
        p_ue.append(default_ue_position(len(p_ue), config.wavelength))
    return replace(config, L=l_users, p_UE=tuple(p_ue))


def serialize_config(config: ScenarioConfig) -> str:
    """Config text that parses back to an identical ScenarioConfig."""
    parts = [
        f"wavelength = {config.wavelength!r}",
        f"M = {config.M}",
        f"L = {config.L}",
        f"N = {config.N}",
        f"N_c = {config.N_c}",
        f"N_O = {config.N_O}",
        f"d = {config.d!r}",
        f"R = {config.R!r}",
        f"r = {config.r!r}",
        f"p_BS = [{config.p_BS[0]!r}, {config.p_BS[1]!r}]",
        f"p_RIS = [{config.p_RIS[0]!r}, {config.p_RIS[1]!r}]",
    ]
    for i, (x, y) in enumerate(config.p_UE, start=1):
        parts.append(f"p_UE{i} = [{x!r}, {y!r}]")
    parts += [
        f"R0 = {config.R0!r}",
        f"Q_interval = [{config.Q_interval[0]!r}, {config.Q_interval[1]!r}]",
        f"Z_G = {config.Z_G!r}",
        f"Z_L = {config.Z_L!r}",
        f"Z_US = {config.Z_US!r}",
        f"P = {config.P!r}",
        f"sigma_n2 = {config.sigma_n2!r}",
        f"seed = {config.seed}",
        f"trials = {config.trials}",
    ]
    return "\n".join(parts) + "\n"
