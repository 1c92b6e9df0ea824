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
an explicit Box-Muller transform on that stream, computed through libm's
log1p, sqrt and cos. The uniforms are fully specified; the draws are the
same wherever libm rounds those three functions the same way. They do not
depend on numpy's SIMD dispatch; libms other than glibc were not tested.
"""

from __future__ import annotations

import json
import math
import reprlib
from dataclasses import dataclass
from typing import Callable, ClassVar, NamedTuple, Optional, Sequence

import numpy as np

from .errors import ParseError, UnusableLinkError, ValidationError

Point = tuple[float, float]

POLARIZATIONS = ("TE", "TM")

# Per-link cap on the tracer's candidate bounces (see _candidate_bounces):
# ~20x the 4,632 of a 12-surface room at 3 bounces.
MAX_CANDIDATE_BOUNCES = 100_000


# ---------------------------------------------------------------------------
# JSON records: each class a file holds declares its keys as ROWS, and
# read_record and write_record are the only code that walks them.
# ---------------------------------------------------------------------------

class Row(NamedTuple):
    """One key of a JSON record: the constructor keyword it fills, the reader
    that checks its value, and whether the key must be there (an absent
    optional key leaves the constructor's default)."""

    key: str
    attr: str
    read: Callable[[object, str], object]
    required: bool = True


_SHOWN = reprlib.Repr()  # a refused value, shown without its nested values
_SHOWN.maxlevel = 1


def _refuse(path: str, expected: str, raw) -> ParseError:
    where = f"{path}: " if path else ""
    return ParseError(f"{where}expected {expected}, got {_SHOWN.repr(raw)}")


def read_record(raw, rows: Sequence[Row], path: str = "") -> dict:
    """The constructor keywords of the JSON object raw, one per key given.

    A ParseError names the key path (say links[17].tx) when raw is not an
    object, misses a required key, holds a key no row names, or holds a
    value its row's reader refuses."""
    if not isinstance(raw, dict):
        raise _refuse(path, "a JSON object", raw)
    keys = [row.key for row in rows]
    for key in raw:
        if key not in keys:
            raise ParseError(f"{_join(path, key)}: not a key of this format (keys: {keys})")
    kwargs = {}
    for row in rows:
        if row.key in raw:
            kwargs[row.attr] = row.read(raw[row.key], _join(path, row.key))
        elif row.required:
            raise ParseError(f"{_join(path, row.key)}: missing key")
    return kwargs


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def write_record(record) -> dict:
    """The JSON object of a record, by its class's ROWS; None is left out."""
    return {row.key: _json_value(getattr(record, row.attr)) for row in record.ROWS
            if getattr(record, row.attr) is not None}


def _json_value(value):
    if hasattr(value, "ROWS"):
        return write_record(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (tuple, list)):
        return [_json_value(v) for v in value]
    return value


def _number(raw, path: str) -> float:
    """A JSON number as a float; a string or a boolean is refused."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise _refuse(path, "a number", raw)
    try:
        return float(raw)
    except OverflowError as exc:
        raise _refuse(path, "a number in float range", raw) from exc


def _integer(raw, path: str) -> int:
    """An integral JSON number as an int; 2.5 is refused, not truncated."""
    if not _number(raw, path).is_integer():
        raise _refuse(path, "an integer", raw)
    return int(raw)


def _kind(kind: type, expected: str):
    """Reader of a JSON value that must be an instance of kind."""
    def read(raw, path: str):
        if not isinstance(raw, kind):
            raise _refuse(path, expected, raw)
        return raw
    return read


_string = _kind(str, "a string")
_boolean = _kind(bool, "true or false")


def _list_of(read):
    """Reader of a JSON list whose items read takes one by one."""
    def read_list(raw, path: str) -> list:
        if not isinstance(raw, list):
            raise _refuse(path, "a list", raw)
        return [read(item, f"{path}[{i}]") for i, item in enumerate(raw)]
    return read_list


def _point(raw, path: str) -> Point:
    if not (isinstance(raw, list) and len(raw) == 2):
        raise _refuse(path, "[x, y]", raw)
    return (_number(raw[0], f"{path}[0]"), _number(raw[1], f"{path}[1]"))


def _record(make, rows: Sequence[Row]):
    """Reader of one JSON object built by make; a ValidationError it raises
    is prefixed with the object's key path."""
    def read(raw, path: str):
        kwargs = read_record(raw, rows, path)
        try:
            return make(**kwargs)
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from exc
    return read


def _require_finite(owner: str, record) -> None:
    """Raise a ValidationError naming the first number or point of record's
    ROWS (None skipped) that holds a NaN or inf."""
    for row in record.ROWS:
        value = getattr(record, row.attr)
        if row.read not in (_number, _point) or value is None:
            continue
        if not all(map(math.isfinite, (value,) if row.read is _number else value)):
            raise ValidationError(f"{owner}: {row.attr}={value} must be finite")


@dataclass(frozen=True)
class Material:
    """One estimable material: index (1-based), prior interval, optional truth."""

    index: int
    prior_lo: float
    prior_hi: float
    true_eps: Optional[float] = None
    ROWS: ClassVar = (
        Row("index", "index", _integer),
        Row("prior_lo", "prior_lo", _number),
        Row("prior_hi", "prior_hi", _number),
        Row("true_eps", "true_eps", _number, required=False),
    )

    def __post_init__(self):
        _require_finite(f"material {self.index}", self)
        if self.prior_lo < 1.0:
            raise ValidationError(f"material {self.index}: prior_lo={self.prior_lo} must be >= 1")
        if not self.prior_lo < self.prior_hi:
            raise ValidationError(f"material {self.index}: prior_lo={self.prior_lo} must be < "
                                  f"prior_hi={self.prior_hi}")
        width = self.prior_hi - self.prior_lo
        if not math.isfinite(width * width):  # the solver's prior variance is width^2 / 12
            raise ValidationError(f"material {self.index}: prior_hi={self.prior_hi} leaves a "
                                  f"prior width whose square overflows")
        if self.true_eps is not None and not self.prior_lo <= self.true_eps <= self.prior_hi:
            raise ValidationError(f"material {self.index}: true_eps={self.true_eps} outside "
                                  f"[{self.prior_lo}, {self.prior_hi}]")


@dataclass(frozen=True)
class Surface:
    """Finite reflecting segment from endpoint_a to endpoint_b (meters)."""

    endpoint_a: Point
    endpoint_b: Point
    material_index: int
    ROWS: ClassVar = (
        Row("a", "endpoint_a", _point),
        Row("b", "endpoint_b", _point),
        Row("material", "material_index", _integer),
    )

    def __post_init__(self):
        _require_finite("surface", self)
        dx, dy = (b - a for a, b in zip(self.endpoint_a, self.endpoint_b))
        if not dx * dx + dy * dy > 0.0:  # the tracer divides by the squared length
            raise ValidationError(f"surface: endpoint_a={tuple(self.endpoint_a)} and "
                                  f"endpoint_b={tuple(self.endpoint_b)} span no line")


@dataclass(frozen=True)
class Link:
    """One TX/RX pair with its dB-domain power and antenna gains."""

    tx_pos: Point
    rx_pos: Point
    tx_power_dbm: float
    tx_gain_db: float
    rx_gain_db: float
    ROWS: ClassVar = (
        Row("tx", "tx_pos", _point),
        Row("rx", "rx_pos", _point),
        Row("p_dbm", "tx_power_dbm", _number),
        Row("g_tx_db", "tx_gain_db", _number),
        Row("g_rx_db", "rx_gain_db", _number),
    )

    def __post_init__(self):
        _require_finite("link", self)
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
    ROWS: ClassVar = (
        Row("wavelength_m", "wavelength_m", _number),
        Row("max_reflections", "max_reflections", _integer, required=False),
        Row("polarization", "polarization", _string, required=False),
        Row("materials", "materials", _list_of(_record(Material, Material.ROWS))),
        Row("surfaces", "surfaces", _list_of(_record(Surface, Surface.ROWS))),
        Row("links", "links", _list_of(_record(Link, Link.ROWS))),
    )

    def __post_init__(self):
        object.__setattr__(self, "surfaces", tuple(self.surfaces))
        object.__setattr__(self, "materials", tuple(self.materials))
        object.__setattr__(self, "links", tuple(self.links))
        if not (math.isfinite(self.wavelength_m) and self.wavelength_m > 0):
            raise ValidationError(f"wavelength_m={self.wavelength_m} must be finite and > 0")
        if self.max_reflections < 0:
            raise ValidationError(f"max_reflections={self.max_reflections} must be >= 0")
        bounces = _candidate_bounces(len(self.surfaces), self.max_reflections)
        if bounces > MAX_CANDIDATE_BOUNCES:
            raise ValidationError(
                f"max_reflections={self.max_reflections} with {len(self.surfaces)} surfaces "
                f"means at least {bounces} candidate bounces per link; the tracer takes at "
                f"most {MAX_CANDIDATE_BOUNCES}"
            )
        if self.polarization not in POLARIZATIONS:
            raise ValidationError(f"polarization={self.polarization!r} not in {POLARIZATIONS}")
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
        for i, link in enumerate(self.links):
            if _los_friis_overflows(self.wavelength_m, math.dist(link.tx_pos, link.rx_pos)):
                raise ValidationError(
                    f"links[{i}]: the line-of-sight free-space factor (wavelength_m / "
                    f"(4 pi |tx - rx|))^2 overflows at wavelength_m={self.wavelength_m}"
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
        for m in self.materials:
            if m.true_eps is None:
                raise ValidationError(f"material {m.index}: true_eps is not set")
        return np.array([m.true_eps for m in self.materials], dtype=float)

    def link_offsets(self) -> np.ndarray:
        """Known dB terms P_n + Gtx_n + Grx_n of each link's measured level."""
        return np.array([l.tx_power_dbm + l.tx_gain_db + l.rx_gain_db for l in self.links])


def _los_friis_overflows(wavelength_m: float, distance_m: float) -> bool:
    """Whether the free-space factor of a ray as long as the link, the
    largest of any of its rays, overflows as the ray table computes it."""
    try:
        return math.isinf((wavelength_m / (4.0 * math.pi * distance_m)) ** 2)
    except OverflowError:
        return True


def _candidate_bounces(n_surfaces: int, max_reflections: int) -> int:
    """Sum over k = 1..max_reflections of k * S * (S - 1) ** (k - 1) for
    S = n_surfaces: the bounces of every wall sequence one link's trace may
    try, order k having S * (S - 1) ** (k - 1) sequences of k bounces. The
    sum stops growing once it passes MAX_CANDIDATE_BOUNCES."""
    total, n_order = 0, n_surfaces
    for k in range(1, max_reflections + 1):
        if n_order == 0 or total > MAX_CANDIDATE_BOUNCES:
            break
        total += k * n_order
        n_order *= n_surfaces - 1
    return total


@dataclass(frozen=True, eq=False)
class Dataset:
    """Measured received levels (dB) for all links of one scenario."""

    measured_db: np.ndarray
    noise_var: float
    seed: Optional[int] = None
    ROWS: ClassVar = (
        Row("noise_var", "noise_var", _number),
        Row("measured_db", "measured_db", _list_of(_number)),
        Row("seed", "seed", _integer, required=False),
    )

    def __post_init__(self):
        arr = np.array(self.measured_db, dtype=float)  # own copy, then freeze
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
# File IO.  Scenario and dataset files are JSON objects laid out by the ROWS
# of Scenario and Dataset; the README shows one of each.
# ---------------------------------------------------------------------------

def read_json(path):
    """The JSON value in the UTF-8 file at path. A missing file raises
    FileNotFoundError; any other file that cannot be read or parsed raises
    a ParseError naming the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: cannot read ({exc})") from exc
    except ValueError as exc:  # also an integer of more digits than int() takes
        raise ParseError(f"{path}: not valid JSON ({exc})") from exc


def dump_json(payload) -> str:
    """payload as indented JSON with sorted keys and a final newline: the
    layout of every JSON file and report the package writes."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def scenario_to_dict(scenario: Scenario) -> dict:
    return write_record(scenario)


def scenario_from_dict(raw) -> Scenario:
    return Scenario(**read_record(raw, Scenario.ROWS))


def _load(path, make):
    """make(raw) for the JSON value raw in the file at path; a ParseError or
    ValidationError is prefixed with the path."""
    raw = read_json(path)
    try:
        return make(raw)
    except (ParseError, ValidationError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def load_scenario(path) -> Scenario:
    return _load(path, scenario_from_dict)


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "w") as fh:
        fh.write(dump_json(scenario_to_dict(scenario)))


def load_dataset(path) -> Dataset:
    return _load(path, lambda raw: Dataset(**read_record(raw, Dataset.ROWS)))


def save_dataset(dataset: Dataset, path) -> None:
    with open(path, "w") as fh:
        fh.write(dump_json(write_record(dataset)))


# ---------------------------------------------------------------------------
# Synthesis.
# ---------------------------------------------------------------------------

def gaussian_draws(rng: np.random.Generator, n: int) -> np.ndarray:
    """n standard-normal draws via Box-Muller on the generator's uniforms.

    1 - u keeps the log argument in (0, 1]; uniforms are consumed in a
    fixed (u1 block, u2 block) order so the stream layout is part of the
    file-format contract. The transform runs through libm (math), one draw
    at a time, so its bits do not depend on which SIMD loop numpy picks.
    """
    u1 = rng.random(n).tolist()
    u2 = rng.random(n).tolist()
    return np.array([math.sqrt(-2.0 * math.log1p(-a)) * math.cos(2.0 * math.pi * b)
                     for a, b in zip(u1, u2)])


def check_noise_std(sigma, name: str) -> None:
    """ValidationError naming name unless sigma >= 0 and its square, the
    noise variance, is finite."""
    s = float(sigma)  # a numpy scalar's square would warn on overflow
    if not (s >= 0 and math.isfinite(s * s)):
        raise ValidationError(f"{name}={sigma} must be >= 0 with a finite square")


def measurement_noise(sigma_z: float, seed: int, n: int) -> np.ndarray:
    """sigma_z times n draws of the PCG64(seed) Gaussian stream."""
    check_noise_std(sigma_z, "sigma_z")
    return sigma_z * gaussian_draws(np.random.Generator(np.random.PCG64(seed)), n)


def synthesize_dataset(scenario: Scenario, sigma_z: float, seed: int) -> Dataset:
    """Draw measured levels from the forward model at the true permittivities.

    measured_n = p_dbm_n + g_tx_db_n + g_rx_db_n + gain_db_n(true eps) + z_n,
    z_n ~ N(0, sigma_z^2) on the PCG64(seed) stream. A link without an
    unblocked ray, or whose total gain at the true permittivities is below
    the forward model's floor, has no level to draw: ValidationError names it.
    """
    noise = measurement_noise(sigma_z, seed, scenario.n_links)
    # Local import: forward_model sits above this module in the import graph.
    from . import forward_model, raytracer

    eps_true = scenario.true_eps_vector()
    ray_cache = raytracer.trace_scenario(scenario)
    try:
        gains = forward_model.forward(scenario, ray_cache, eps_true)
    except UnusableLinkError as exc:  # a link without rays has total gain 0
        n = exc.link
        why = "no unblocked ray" if not ray_cache[n] else "total gain below the floor at true_eps"
        raise ValidationError(f"links[{n}]: {why}, so no level can be synthesized "
                              f"for this link") from exc
    return Dataset(
        measured_db=scenario.link_offsets() + gains + noise,
        noise_var=sigma_z**2,
        seed=seed,
    )


def normalize_measurements(scenario: Scenario, dataset: Dataset) -> np.ndarray:
    """Strip the known power/gain terms: y_n = measured_n - P_n - Gtx_n - Grx_n.
    Levels whose squared sum overflows cannot be scored: ValidationError
    names the largest."""
    if len(dataset.measured_db) != scenario.n_links:
        raise ValidationError(
            f"measured_db has {len(dataset.measured_db)} entries for "
            f"{scenario.n_links} links"
        )
    with np.errstate(over="ignore"):  # checked just below
        y = dataset.measured_db - scenario.link_offsets()
        overflows = not np.isfinite(np.sum(y * y))
    if overflows:
        n = int(np.argmax(np.abs(y)))
        raise ValidationError(f"measured_db[{n}]={dataset.measured_db[n]}: the squared "
                              f"levels overflow, so no estimate can be scored")
    return y


# ---------------------------------------------------------------------------
# Scenario templates. The bundled canyon.json fixture is make_canyon_scenario
# with the default arguments below; regenerating it must be byte-stable.
# ---------------------------------------------------------------------------

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
    if not 13.0 <= length_m < math.inf:  # NaN fails too
        raise ValidationError(f"length_m={length_m} must be finite and >= 13")
    if not 3.0 <= width_m < math.inf:
        raise ValidationError(f"width_m={width_m} must be finite and >= 3")
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
    links = []
    for _ in range(n_links):
        tx = rx = (float(rng.uniform(0.0, extent_m)), float(rng.uniform(0.0, extent_m)))
        while math.dist(tx, rx) < 5.0:  # draw RX until it is 5 m or more from TX
            rx = (float(rng.uniform(0.0, extent_m)), float(rng.uniform(0.0, extent_m)))
        links.append(Link(tx, rx, tx_power_dbm=30.0, tx_gain_db=2.0, rx_gain_db=2.0))
    materials = (Material(index=1, prior_lo=1.0, prior_hi=13.0, true_eps=6.0),)
    return Scenario(
        surfaces=(),
        materials=materials,
        links=tuple(links),
        wavelength_m=wavelength_m,
    )
