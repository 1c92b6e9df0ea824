"""Scenario and measurement-dataset handling.

A Scenario bundles the 2D reflecting geometry (line segments tagged with a
material), the material priors, the radio links (TX/RX positions plus
dB-domain power and antenna gains) and the carrier wavelength. A Dataset
holds the measured received levels for every link plus the noise variance.

All powers and gains are dB-domain reals (dBm for transmit power). The
solver only ever sees the normalized values

    y_n = measured_n - p_dbm_n - g_tx_db_n - g_rx_db_n

so the power/gain bookkeeping stays in this module.

Noise stream: numpy PCG64 seeded with the dataset seed, Gaussian draws via
an explicit Box-Muller transform on that stream. Both are fully specified,
so synthetic datasets are reproducible across platforms.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ParseError, ValidationError

Point = tuple[float, float]

POLARIZATIONS = ("TE", "TM")


def _require_finite(owner: str, **values) -> None:
    """Raise a ValidationError naming the first field (a number or a point,
    None skipped) that holds a NaN or inf."""
    for name, value in values.items():
        if value is not None and not np.all(np.isfinite(value)):
            raise ValidationError(f"{owner}: {name}={value} must be finite")


@dataclass(frozen=True)
class Material:
    """One estimable material: index (1-based), prior interval, optional truth."""

    index: int
    prior_lo: float
    prior_hi: float
    true_eps: Optional[float] = None

    def __post_init__(self):
        _require_finite(
            f"material {self.index}",
            prior_lo=self.prior_lo, prior_hi=self.prior_hi, true_eps=self.true_eps,
        )
        if self.prior_lo < 1.0:
            raise ValidationError(
                f"material {self.index}: prior_lo={self.prior_lo} must be >= 1"
            )
        if not self.prior_lo < self.prior_hi:
            raise ValidationError(
                f"material {self.index}: prior_lo={self.prior_lo} must be < "
                f"prior_hi={self.prior_hi}"
            )
        if self.true_eps is not None and not (
            self.prior_lo <= self.true_eps <= self.prior_hi
        ):
            raise ValidationError(
                f"material {self.index}: true_eps={self.true_eps} outside "
                f"[{self.prior_lo}, {self.prior_hi}]"
            )


@dataclass(frozen=True)
class Surface:
    """Finite reflecting segment from endpoint_a to endpoint_b (meters)."""

    endpoint_a: Point
    endpoint_b: Point
    material_index: int

    def __post_init__(self):
        _require_finite("surface", endpoint_a=self.endpoint_a, endpoint_b=self.endpoint_b)
        if tuple(self.endpoint_a) == tuple(self.endpoint_b):
            raise ValidationError(
                f"surface: endpoint_a == endpoint_b == {self.endpoint_a}"
            )


@dataclass(frozen=True)
class Link:
    """One TX/RX pair with its dB-domain power and antenna gains."""

    tx_pos: Point
    rx_pos: Point
    tx_power_dbm: float
    tx_gain_db: float
    rx_gain_db: float

    def __post_init__(self):
        _require_finite(
            "link", tx_pos=self.tx_pos, rx_pos=self.rx_pos, tx_power_dbm=self.tx_power_dbm,
            tx_gain_db=self.tx_gain_db, rx_gain_db=self.rx_gain_db,
        )
        if tuple(self.tx_pos) == tuple(self.rx_pos):
            raise ValidationError(f"link: tx_pos == rx_pos == {self.tx_pos}")


@dataclass(frozen=True)
class Scenario:
    surfaces: tuple[Surface, ...]
    materials: tuple[Material, ...]
    links: tuple[Link, ...]
    wavelength_m: float
    max_reflections: int = 2
    polarization: str = "TE"

    def __post_init__(self):
        object.__setattr__(self, "surfaces", tuple(self.surfaces))
        object.__setattr__(self, "materials", tuple(self.materials))
        object.__setattr__(self, "links", tuple(self.links))
        if not (math.isfinite(self.wavelength_m) and self.wavelength_m > 0):
            raise ValidationError(f"wavelength_m={self.wavelength_m} must be finite and > 0")
        if self.max_reflections < 0:
            raise ValidationError(
                f"max_reflections={self.max_reflections} must be >= 0"
            )
        if self.polarization not in POLARIZATIONS:
            raise ValidationError(
                f"polarization={self.polarization!r} not in {POLARIZATIONS}"
            )
        if len(self.materials) < 1:
            raise ValidationError("materials: need at least one material")
        if len(self.links) < 1:
            raise ValidationError("links: need at least one link")
        indices = [m.index for m in self.materials]
        if indices != list(range(1, len(self.materials) + 1)):
            raise ValidationError(
                f"materials: indices {indices} must be exactly 1..{len(self.materials)}"
            )
        for i, s in enumerate(self.surfaces):
            if not (1 <= s.material_index <= len(self.materials)):
                raise ValidationError(
                    f"surfaces[{i}].material={s.material_index} references no material"
                )

    @property
    def n_materials(self) -> int:
        return len(self.materials)

    @property
    def n_links(self) -> int:
        return len(self.links)

    def prior_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-material (lower, upper) prior bound vectors, index order."""
        lo = np.array([m.prior_lo for m in self.materials], dtype=float)
        hi = np.array([m.prior_hi for m in self.materials], dtype=float)
        return lo, hi

    def true_eps_vector(self) -> np.ndarray:
        """Ground-truth permittivity vector; error if any truth is missing."""
        vals = []
        for m in self.materials:
            if m.true_eps is None:
                raise ValidationError(f"material {m.index}: true_eps is not set")
            vals.append(m.true_eps)
        return np.array(vals, dtype=float)

    def link_offsets(self) -> np.ndarray:
        """Known dB terms P_n + Gtx_n + Grx_n of each link's measured level."""
        return np.array([l.tx_power_dbm + l.tx_gain_db + l.rx_gain_db for l in self.links])


@dataclass(frozen=True, eq=False)
class Dataset:
    """Measured received levels (dB) for all links of one scenario."""

    measured_db: np.ndarray
    noise_var: float
    seed: Optional[int] = None

    def __post_init__(self):
        try:
            arr = np.array(self.measured_db, dtype=float)  # own copy, then freeze
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"measured_db: expected a list of numbers ({exc})") from exc
        arr.flags.writeable = False
        object.__setattr__(self, "measured_db", arr)
        if self.measured_db.ndim != 1:
            raise ValidationError("measured_db must be a 1D vector")
        bad = np.flatnonzero(~np.isfinite(self.measured_db))
        if bad.size:
            raise ValidationError(f"measured_db[{bad[0]}]={self.measured_db[bad[0]]} must be finite")
        if not (math.isfinite(self.noise_var) and self.noise_var >= 0):
            raise ValidationError(f"noise_var={self.noise_var} must be finite and >= 0")


# ---------------------------------------------------------------------------
# File IO.  Scenario files are plain JSON per the schema in the README.
# ---------------------------------------------------------------------------

def _point(raw, name: str) -> Point:
    try:
        x, y = raw
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{name}: expected [x, y], got {raw!r}") from exc
    return (_number(x, name), _number(y, name))


def _number(raw, name: str) -> float:
    """A number as a float; a JSON boolean is refused, not read as 0 or 1."""
    try:
        if isinstance(raw, bool):
            raise TypeError("a boolean is not a number")
        return float(raw)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{name}: expected a number, got {raw!r}") from exc


def _integer(raw, name: str) -> int:
    """An integral number as an int; 2.5 or "2.5" is refused, not truncated."""
    number = _number(raw, name)
    if not number.is_integer():
        raise ParseError(f"{name}: expected an integer, got {raw!r}")
    return int(raw) if isinstance(raw, int) else int(number)


def read_json(path):
    """The JSON value in the UTF-8 file at path. A missing file raises
    FileNotFoundError; any other file that cannot be read or parsed raises
    a ParseError naming the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not valid JSON ({exc})") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: cannot read ({exc})") from exc


def scenario_to_dict(scenario: Scenario) -> dict:
    return {
        "wavelength_m": scenario.wavelength_m,
        "max_reflections": scenario.max_reflections,
        "polarization": scenario.polarization,
        "materials": [
            {
                "index": m.index,
                "prior_lo": m.prior_lo,
                "prior_hi": m.prior_hi,
                **({"true_eps": m.true_eps} if m.true_eps is not None else {}),
            }
            for m in scenario.materials
        ],
        "surfaces": [
            {
                "a": list(s.endpoint_a),
                "b": list(s.endpoint_b),
                "material": s.material_index,
            }
            for s in scenario.surfaces
        ],
        "links": [
            {
                "tx": list(l.tx_pos),
                "rx": list(l.rx_pos),
                "p_dbm": l.tx_power_dbm,
                "g_tx_db": l.tx_gain_db,
                "g_rx_db": l.rx_gain_db,
            }
            for l in scenario.links
        ],
    }


def scenario_from_dict(raw: dict) -> Scenario:
    try:
        materials = tuple(
            Material(
                index=_integer(m["index"], f"materials[{i}].index"),
                prior_lo=_number(m["prior_lo"], f"materials[{i}].prior_lo"),
                prior_hi=_number(m["prior_hi"], f"materials[{i}].prior_hi"),
                true_eps=(
                    _number(m["true_eps"], f"materials[{i}].true_eps")
                    if "true_eps" in m else None
                ),
            )
            for i, m in enumerate(raw["materials"])
        )
        surfaces = tuple(
            Surface(
                endpoint_a=_point(s["a"], f"surfaces[{i}].a"),
                endpoint_b=_point(s["b"], f"surfaces[{i}].b"),
                material_index=_integer(s["material"], f"surfaces[{i}].material"),
            )
            for i, s in enumerate(raw["surfaces"])
        )
        links = tuple(
            Link(
                tx_pos=_point(l["tx"], f"links[{i}].tx"),
                rx_pos=_point(l["rx"], f"links[{i}].rx"),
                tx_power_dbm=_number(l["p_dbm"], f"links[{i}].p_dbm"),
                tx_gain_db=_number(l["g_tx_db"], f"links[{i}].g_tx_db"),
                rx_gain_db=_number(l["g_rx_db"], f"links[{i}].g_rx_db"),
            )
            for i, l in enumerate(raw["links"])
        )
        return Scenario(
            surfaces=surfaces,
            materials=materials,
            links=links,
            wavelength_m=_number(raw["wavelength_m"], "wavelength_m"),
            max_reflections=_integer(raw.get("max_reflections", 2), "max_reflections"),
            polarization=str(raw.get("polarization", "TE")),
        )
    except (KeyError, TypeError) as exc:
        raise ParseError(f"scenario file: missing or malformed key ({exc})") from exc


def load_scenario(path) -> Scenario:
    return scenario_from_dict(read_json(path))


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "w") as fh:
        json.dump(scenario_to_dict(scenario), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_dataset(path) -> Dataset:
    raw = read_json(path)
    try:
        return Dataset(
            measured_db=raw["measured_db"],
            noise_var=_number(raw["noise_var"], "noise_var"),
            seed=_integer(raw["seed"], "seed") if raw.get("seed") is not None else None,
        )
    except (KeyError, TypeError) as exc:
        raise ParseError(f"dataset file: missing or malformed key ({exc})") from exc


def save_dataset(dataset: Dataset, path) -> None:
    out = {
        "noise_var": dataset.noise_var,
        "measured_db": [float(v) for v in dataset.measured_db],
    }
    if dataset.seed is not None:
        out["seed"] = dataset.seed
    with open(path, "w") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Synthesis.
# ---------------------------------------------------------------------------

def gaussian_draws(rng: np.random.Generator, n: int) -> np.ndarray:
    """n standard-normal draws via Box-Muller on the generator's uniforms.

    1 - u keeps the log argument in (0, 1]; uniforms are consumed in a
    fixed (u1 block, u2 block) order so the stream layout is part of the
    file-format contract.
    """
    u1 = rng.random(n)
    u2 = rng.random(n)
    return np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * np.pi * u2)


def measurement_noise(sigma_z: float, seed: int, n: int) -> np.ndarray:
    """sigma_z times n draws of the PCG64(seed) Gaussian stream."""
    if sigma_z < 0:
        raise ValidationError(f"sigma_z={sigma_z} must be >= 0")
    return sigma_z * gaussian_draws(np.random.Generator(np.random.PCG64(seed)), n)


def synthesize_dataset(scenario: Scenario, sigma_z: float, seed: int) -> Dataset:
    """Draw measured levels from the forward model at the true permittivities.

    measured_n = p_dbm_n + g_tx_db_n + g_rx_db_n + gain_db_n(true eps) + z_n,
    z_n ~ N(0, sigma_z^2) on the PCG64(seed) stream.
    """
    noise = measurement_noise(sigma_z, seed, scenario.n_links)
    # Local import: forward_model sits above this module in the import graph.
    from . import forward_model, raytracer

    eps_true = scenario.true_eps_vector()
    ray_cache = raytracer.trace_scenario(scenario)
    gains = forward_model.forward(scenario, ray_cache, eps_true)
    return Dataset(
        measured_db=scenario.link_offsets() + gains + noise,
        noise_var=sigma_z**2,
        seed=seed,
    )


def normalize_measurements(scenario: Scenario, dataset: Dataset) -> np.ndarray:
    """Strip the known power/gain terms: y_n = measured_n - P_n - Gtx_n - Grx_n."""
    if len(dataset.measured_db) != scenario.n_links:
        raise ValidationError(
            f"measured_db has {len(dataset.measured_db)} entries for "
            f"{scenario.n_links} links"
        )
    return dataset.measured_db - scenario.link_offsets()


# ---------------------------------------------------------------------------
# Scenario templates. The bundled canyon.json fixture is make_canyon_scenario
# with the default arguments below; regenerating it must be byte-stable.
# ---------------------------------------------------------------------------

def _draw_links(
    rng: np.random.Generator,
    n_links: int,
    x_range: tuple[float, float],
    y_range: tuple[float, float],
    min_dist: float = 5.0,
) -> list[Link]:
    links = []
    for _ in range(n_links):
        tx = (
            float(rng.uniform(*x_range)),
            float(rng.uniform(*y_range)),
        )
        while True:
            rx = (
                float(rng.uniform(*x_range)),
                float(rng.uniform(*y_range)),
            )
            if math.dist(tx, rx) >= min_dist:
                break
        links.append(
            Link(tx_pos=tx, rx_pos=rx, tx_power_dbm=30.0, tx_gain_db=2.0, rx_gain_db=2.0)
        )
    return links


def make_canyon_scenario(
    n_materials: int = 2,
    n_links: int = 100,
    seed: int = 7,
    length_m: float = 50.0,
    width_m: float = 10.0,
    wavelength_m: float = 0.1,
    true_eps: Sequence[float] = (3.0, 6.0),
    priors: Sequence[tuple[float, float]] = ((1.5, 10.0), (3.0, 12.0)),
    frac_upper: float = 0.4,
    max_reflections: int = 2,
) -> Scenario:
    """Street canyon: two parallel walls with links hugging one wall each.

    Wall 1 (top) carries material 1; wall 2 (bottom) carries material 2, or
    material 1 again when n_materials is 1. Each link runs 3.5..7.5 m along
    the canyon at 0.8..1.1 m from its wall: the near-wall bounce then hits
    at the 60-75 degree incidence where the reflected energy is both strong
    and strongly permittivity-dependent, while the far wall contributes
    little, so the two materials stay separately identifiable. frac_upper
    sets the share of links on the top wall (the lower-permittivity wall
    needs fewer links for the same information). All draws come from
    PCG64(seed).
    """
    if not (1 <= n_materials <= 2):
        raise ValidationError(
            f"n_materials={n_materials}: canyon template supports 1 or 2"
        )
    if n_links < 1:
        raise ValidationError(f"n_links={n_links} must be >= 1")
    if length_m < 13.0:
        raise ValidationError(f"length_m={length_m} must be >= 13")
    if width_m < 3.0:
        raise ValidationError(f"width_m={width_m} must be >= 3")
    if not 0.0 <= frac_upper <= 1.0:
        raise ValidationError(f"frac_upper={frac_upper} must be in [0, 1]")
    materials = tuple(
        Material(
            index=m + 1,
            prior_lo=float(priors[m % len(priors)][0]),
            prior_hi=float(priors[m % len(priors)][1]),
            true_eps=float(true_eps[m % len(true_eps)]),
        )
        for m in range(n_materials)
    )
    half = width_m / 2.0
    surfaces = (
        Surface((-10.0, half), (length_m + 10.0, half), 1),
        Surface((-10.0, -half), (length_m + 10.0, -half), 2 if n_materials == 2 else 1),
    )
    rng = np.random.Generator(np.random.PCG64(seed))
    n_upper = int(round(n_links * frac_upper))
    links = []
    for i in range(n_links):
        x0 = float(rng.uniform(2.0, length_m - 10.0))
        dx = float(rng.uniform(3.5, 7.5))
        y1 = float(rng.uniform(half - 1.1, half - 0.8))
        y2 = float(rng.uniform(half - 1.1, half - 0.8))
        if i >= n_upper:
            y1, y2 = -y1, -y2
        links.append(
            Link(
                tx_pos=(x0, y1),
                rx_pos=(x0 + dx, y2),
                tx_power_dbm=30.0,
                tx_gain_db=2.0,
                rx_gain_db=2.0,
            )
        )
    return Scenario(
        surfaces=surfaces,
        materials=materials,
        links=tuple(links),
        wavelength_m=wavelength_m,
        max_reflections=max_reflections,
    )


def bundled_scenario_path(name: str = "canyon") -> str:
    """Path of a scenario JSON shipped with the package (e.g. "canyon")."""
    from importlib.resources import files

    return str(files("permgamp").joinpath("data", f"{name}.json"))


def make_free_space_scenario(
    n_links: int = 10,
    seed: int = 1,
    extent_m: float = 100.0,
    wavelength_m: float = 0.1,
) -> Scenario:
    """No reflectors at all: every link is a single line-of-sight ray."""
    if n_links < 1:
        raise ValidationError(f"n_links={n_links} must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    links = _draw_links(
        rng, n_links, x_range=(0.0, extent_m), y_range=(0.0, extent_m)
    )
    materials = (Material(index=1, prior_lo=1.0, prior_hi=13.0, true_eps=6.0),)
    return Scenario(
        surfaces=(),
        materials=materials,
        links=tuple(links),
        wavelength_m=wavelength_m,
    )
