"""Scenario files: flat dotted key-value configs with unit suffixes.

Each key is one row of _SCHEMA, and load_scenario runs every value,
command-line overrides included, through its key's row.
"""

from __future__ import annotations

import re
from collections import namedtuple
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path

from .channel import ChannelParams
from .errors import ConfigError, TurbchanError
from .kernels.stats import StatsBudget
from .qkd import DecoyParams

# Length-like values accept a unit suffix; bare numbers are metres.
# Decimal powers of ten, applied before the single decimal->binary rounding
# so that `800 nm` equals the literal 800e-9 exactly.
_UNIT_EXPONENT = {"nm": -9, "um": -6, "mm": -3, "cm": -2, "m": 0, "km": 3}

_NUMBER_RE = re.compile(
    r"^\s*([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*([a-zA-Z]*)\s*$")

@dataclass(frozen=True)
class Scenario:
    """One validated scenario file, ready to run.

    tracking_fractions are sigma_tr / sigma_bw ratios; sweep_lengths are
    propagation distances in metres for the `sweep` output;
    pdt_sample_count is the number of transmittance draws behind each key
    rate. Optional stages keep their library defaults when the config
    omits them.
    """

    scenario_id: str
    seed: int
    channel: ChannelParams
    budget_log2: int
    pdt_sample_count: int
    eta_step: float
    tracking_fractions: tuple
    tracking_jitter2: float
    postselection_eta_min: tuple
    squeezing_input_db: float
    decoy: DecoyParams
    sweep_lengths: tuple


# A section's keys fill the fields of its library type, which fills the
# Scenario field of the same name; other keys fill Scenario fields.
_SECTIONS = {"channel": ChannelParams, "decoy": DecoyParams}

_REQUIRED = object()

# One row per key. field: the Scenario field the key fills, or the field of
# its section's library type. kind: str, int, float (no unit), length (unit
# suffix allowed), list_float or list_length (comma-separated, strictly
# ascending). default: the value of an absent key, a function of the file
# path giving it, _REQUIRED, or None to keep the library type's default.
# check: raises ValueError with the message for a value out of range.
_Key = namedtuple("_Key", "field kind default check",
                  defaults=(None, lambda value: None))


def _bound(ok, message):
    """A check failing with message unless ok(value) (for a list, each)."""
    def check(value):
        if not all(map(ok, value if isinstance(value, tuple) else (value,))):
            raise ValueError(message)
    return check


_SCHEMA = {
    "scenario.id": _Key("scenario_id", "str", lambda path: Path(path).stem),
    "scenario.seed": _Key("seed", "int", 0,
                          _bound(lambda s: s >= 0, "seed must be >= 0")),
    "channel.cn2": _Key("cn2", "float", _REQUIRED),
    "channel.wavelength": _Key("wavelength", "length", _REQUIRED),
    "channel.length": _Key("length", "length", _REQUIRED),
    "channel.w0": _Key("w0", "length", _REQUIRED),
    "channel.aperture": _Key("aperture_radius", "length", _REQUIRED),
    "channel.extinction_db_per_km": _Key("extinction_db_per_km", "float"),
    "budget.log2_total": _Key("budget_log2", "int", StatsBudget.log2_total,
                              StatsBudget),
    "pdt.sample_count": _Key("pdt_sample_count", "int", 10_000, _bound(
        lambda n: n >= 2, "sample_count must be >= 2")),
    "pdt.eta_step": _Key("eta_step", "float", 0.002, _bound(
        lambda s: 0.0 < s <= 0.5, "eta_step must lie in (0, 0.5]")),
    "tracking.fractions": _Key("tracking_fractions", "list_float", (0.0,),
                               _bound(lambda f: 0.0 <= f <= 1.0,
                                      "fractions must lie in [0, 1]")),
    "tracking.jitter2": _Key("tracking_jitter2", "float", 0.0, _bound(
        lambda j: j >= 0.0, "jitter2 must be >= 0")),
    "postselection.eta_min": _Key("postselection_eta_min", "list_float", (),
                                  _bound(lambda e: 0.0 <= e < 1.0,
                                         "thresholds must lie in [0, 1)")),
    "squeezing.input_db": _Key("squeezing_input_db", "float", -3.0),
    "decoy.mu_signal": _Key("mu_s", "float"),
    "decoy.mu_decoy": _Key("mu_d", "float"),
    "decoy.y0": _Key("y0", "float"),
    "decoy.e_detector": _Key("e_det", "float"),
    "decoy.f_ec": _Key("f_ec", "float"),
    "sweep.lengths": _Key("sweep_lengths", "list_length", (), _bound(
        lambda x: x > 0.0, "lengths must be positive")),
}


def _parse(kind, text):
    """The value of a key of this kind; ValueError says what is wrong."""
    if kind == "str":
        return text
    if kind == "int":
        try:
            return int(text)
        except ValueError:
            raise ValueError("expected an integer, got %r" % text) from None
    if kind.startswith("list_"):
        items = [s.strip() for s in text.split(",")]
        if not all(items):
            raise ValueError("empty list element")
        values = tuple(_parse(kind[len("list_"):], s) for s in items)
        if any(not b > a for a, b in zip(values, values[1:])):
            raise ValueError("list must be strictly ascending")
        return values
    m = _NUMBER_RE.match(text)
    if m is None:
        raise ValueError("expected a number, got %r" % text)
    num_str, unit = m.group(1), m.group(2)
    if not unit:
        return float(num_str)
    if kind == "length" and unit in _UNIT_EXPONENT:
        try:
            return float(Decimal(num_str).scaleb(_UNIT_EXPONENT[unit]))
        except ArithmeticError:
            raise ValueError("expected a number, got %r" % text) from None
    raise ValueError("unexpected unit %r" % unit)


def _read_pairs(path):
    """Return {key: (value, line_number)} from a flat key-value file."""
    pairs = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", line=lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError("expected 'key = value'", field=key or None,
                              line=lineno)
        if key in pairs:
            raise ConfigError("duplicate key", field=key, line=lineno)
        pairs[key] = (value, lineno)
    return pairs


def _build(section, kwargs, pairs):
    """The section's library type; its error is reported at the key of the
    field it names, else at the section and the first line of its keys."""
    keys = [k for k in _SCHEMA if k.startswith(section + ".")]
    try:
        return _SECTIONS[section](**kwargs)
    except ConfigError as exc:
        key = next(k for k in keys if _SCHEMA[k].field == exc.field)
        raise ConfigError(exc.message, field=key,
                          line=pairs.get(key, (None, None))[1]) from None
    except TurbchanError as exc:
        line = min((pairs[k][1] for k in keys if k in pairs), default=None)
        raise ConfigError("invalid %s parameters: %s" % (section, exc),
                          field=section, line=line) from None


def load_scenario(path, overrides=None) -> Scenario:
    """Parse and validate a scenario file.

    overrides maps keys to text that replaces the file's value, as the
    command line's --seed and --budget do; it goes through the same checks.
    Raises ConfigError with the offending field and line on any problem (no
    line for an override).
    """
    pairs = _read_pairs(path)
    for key, (_, line) in pairs.items():
        if key not in _SCHEMA:
            raise ConfigError("unknown key", field=key, line=line)
    for key, text in (overrides or {}).items():
        pairs[key] = (text, None)
    for key, row in _SCHEMA.items():
        if row.default is _REQUIRED and key not in pairs:
            raise ConfigError("missing required key", field=key)
    fields = {section: {} for section in _SECTIONS}
    scenario = {}
    for key, row in _SCHEMA.items():
        target = fields.get(key.partition(".")[0], scenario)
        if key in pairs:
            text, line = pairs[key]
            try:
                target[row.field] = _parse(row.kind, text)
                row.check(target[row.field])
            except ValueError as exc:
                raise ConfigError(str(exc), field=key, line=line) from None
        elif callable(row.default):
            target[row.field] = row.default(path)
        elif row.default is not None:
            target[row.field] = row.default
    return Scenario(**scenario, **{section: _build(section, kwargs, pairs)
                                   for section, kwargs in fields.items()})
