"""Scenario files: flat dotted key-value configs with unit suffixes."""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from pathlib import Path

from .channel import ChannelParams
from .errors import ConfigError
from .qkd import DecoyParams

# Length-like values accept a unit suffix; bare numbers are metres.
# Decimal powers of ten, applied before the single decimal->binary rounding
# so that `800 nm` equals the literal 800e-9 exactly.
_UNIT_EXPONENT = {
    "nm": -9,
    "um": -6,
    "mm": -3,
    "cm": -2,
    "m": 0,
    "km": 3,
}

_NUMBER_RE = re.compile(
    r"^\s*([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*([a-zA-Z]*)\s*$")

OUTPUT_NAMES = ("stats", "pdt", "exceedance", "squeezing", "qkd", "sweep")


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
    outputs: tuple
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


def _parse_number(value, key, line, unit_kind):
    """Parse a number with an optional unit suffix.

    unit_kind: 'length' converts to metres, 'none' forbids any suffix.
    """
    m = _NUMBER_RE.match(value)
    if m is None:
        raise ConfigError("expected a number, got %r" % value,
                          field=key, line=line)
    num_str, unit = m.group(1), m.group(2)
    if not unit:
        return float(num_str)
    if unit_kind == "length" and unit in _UNIT_EXPONENT:
        try:
            return float(Decimal(num_str).scaleb(_UNIT_EXPONENT[unit]))
        except InvalidOperation:
            raise ConfigError("expected a number, got %r" % value,
                              field=key, line=line) from None
    raise ConfigError("unexpected unit %r" % unit, field=key, line=line)


def _parse_int(value, key, line):
    try:
        return int(value)
    except ValueError:
        raise ConfigError("expected an integer, got %r" % value,
                          field=key, line=line) from None


def _parse_list(value, key, line, unit_kind):
    items = [s.strip() for s in value.split(",")]
    if any(not s for s in items):
        raise ConfigError("empty list element", field=key, line=line)
    return tuple(_parse_number(s, key, line, unit_kind) for s in items)


def _check_ascending(values, key, line):
    for a, b in zip(values, values[1:]):
        if not b > a:
            raise ConfigError("list must be strictly ascending",
                              field=key, line=line)


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


# key -> (kind, required). Kinds: float (no unit), length (unit suffix ok),
# int, str, list_float, list_length, str_list.
_SCHEMA = {
    "scenario.id": ("str", False),
    "scenario.seed": ("int", False),
    "scenario.outputs": ("str_list", True),
    "channel.cn2": ("float", True),
    "channel.wavelength": ("length", True),
    "channel.length": ("length", True),
    "channel.w0": ("length", True),
    "channel.aperture": ("length", True),
    "channel.extinction_db_per_km": ("float", False),
    "budget.log2_total": ("int", False),
    "pdt.sample_count": ("int", False),
    "pdt.eta_step": ("float", False),
    "tracking.fractions": ("list_float", False),
    "tracking.jitter2": ("float", False),
    "postselection.eta_min": ("list_float", False),
    "squeezing.input_db": ("float", False),
    "decoy.mu_signal": ("float", False),
    "decoy.mu_decoy": ("float", False),
    "decoy.y0": ("float", False),
    "decoy.e_detector": ("float", False),
    "decoy.f_ec": ("float", False),
    "sweep.lengths": ("list_length", False),
}


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file.

    Raises ConfigError with the offending field and line on any problem.
    """
    pairs = _read_pairs(path)
    for key in pairs:
        if key not in _SCHEMA:
            raise ConfigError("unknown key", field=key, line=pairs[key][1])
    for key, (kind, required) in _SCHEMA.items():
        if required and key not in pairs:
            raise ConfigError("missing required key", field=key)

    def get(key, default=None):
        if key not in pairs:
            return default
        value, line = pairs[key]
        kind = _SCHEMA[key][0]
        if kind == "str":
            return value
        if kind == "int":
            return _parse_int(value, key, line)
        if kind == "float":
            return _parse_number(value, key, line, "none")
        if kind == "length":
            return _parse_number(value, key, line, "length")
        if kind == "list_float":
            return _parse_list(value, key, line, "none")
        if kind == "list_length":
            return _parse_list(value, key, line, "length")
        return tuple(s.strip() for s in value.split(","))

    outputs = get("scenario.outputs")
    if not outputs or outputs == ("",):
        raise ConfigError("at least one output is required",
                          field="scenario.outputs",
                          line=pairs["scenario.outputs"][1])
    for name in outputs:
        if name not in OUTPUT_NAMES:
            raise ConfigError(
                "unknown output %r (choose from %s)" % (name,
                                                        ", ".join(OUTPUT_NAMES)),
                field="scenario.outputs", line=pairs["scenario.outputs"][1])

    channel_kwargs = dict(
        cn2=get("channel.cn2"),
        wavelength=get("channel.wavelength"),
        length=get("channel.length"),
        w0=get("channel.w0"),
        aperture_radius=get("channel.aperture"),
        extinction_db_per_km=get("channel.extinction_db_per_km", 0.0),
    )
    try:
        channel = ChannelParams(**channel_kwargs)
    except ConfigError as exc:
        # Map dataclass field names back to config keys for the report.
        key = {"aperture_radius": "channel.aperture"}.get(
            exc.field, "channel.%s" % exc.field)
        line = pairs[key][1] if key in pairs else None
        raise ConfigError(exc.message, field=key, line=line) from None

    fractions = get("tracking.fractions", (0.0,))
    _check_ascending(fractions, "tracking.fractions",
                     pairs.get("tracking.fractions", (None, None))[1])
    if any(not 0.0 <= f <= 1.0 for f in fractions):
        raise ConfigError("fractions must lie in [0, 1]",
                          field="tracking.fractions",
                          line=pairs["tracking.fractions"][1])

    eta_min = get("postselection.eta_min", ())
    if eta_min:
        _check_ascending(eta_min, "postselection.eta_min",
                         pairs["postselection.eta_min"][1])
        if any(not 0.0 <= e < 1.0 for e in eta_min):
            raise ConfigError("thresholds must lie in [0, 1)",
                              field="postselection.eta_min",
                              line=pairs["postselection.eta_min"][1])
    if "squeezing" in outputs and not eta_min:
        raise ConfigError("squeezing output needs postselection.eta_min",
                          field="postselection.eta_min")
    squeezing_db = get("squeezing.input_db", -3.0)
    if "squeezing" in outputs and not squeezing_db < 0.0:
        raise ConfigError("input squeezing must be negative dB",
                          field="squeezing.input_db",
                          line=pairs["squeezing.input_db"][1])

    sweep_lengths = get("sweep.lengths", ())
    if sweep_lengths:
        _check_ascending(sweep_lengths, "sweep.lengths",
                         pairs["sweep.lengths"][1])
        if any(not x > 0.0 for x in sweep_lengths):
            raise ConfigError("lengths must be positive",
                              field="sweep.lengths",
                              line=pairs["sweep.lengths"][1])
    if "sweep" in outputs and not sweep_lengths:
        raise ConfigError("sweep output needs sweep.lengths",
                          field="sweep.lengths")

    decoy_keys = ("decoy.mu_signal", "decoy.mu_decoy", "decoy.y0",
                  "decoy.e_detector", "decoy.f_ec")
    decoy_kwargs = {}
    for key, name in zip(decoy_keys,
                         ("mu_s", "mu_d", "y0", "e_det", "f_ec")):
        if key in pairs:
            decoy_kwargs[name] = get(key)
    try:
        decoy = DecoyParams(**decoy_kwargs)
    except Exception as exc:
        line = min(pairs[k][1] for k in decoy_keys if k in pairs)
        raise ConfigError("invalid decoy parameters: %s" % exc,
                          field="decoy", line=line) from None

    eta_step = get("pdt.eta_step", 0.002)
    if not 0.0 < eta_step <= 0.5:
        raise ConfigError("eta_step must lie in (0, 0.5]",
                          field="pdt.eta_step",
                          line=pairs["pdt.eta_step"][1])
    sample_count = get("pdt.sample_count", 10_000)
    if sample_count < 2:
        raise ConfigError("sample_count must be >= 2",
                          field="pdt.sample_count",
                          line=pairs["pdt.sample_count"][1])
    budget_log2 = get("budget.log2_total", 20)
    jitter2 = get("tracking.jitter2", 0.0)
    if jitter2 < 0.0:
        raise ConfigError("jitter2 must be >= 0",
                          field="tracking.jitter2",
                          line=pairs["tracking.jitter2"][1])

    return Scenario(
        scenario_id=get("scenario.id", Path(path).stem),
        seed=get("scenario.seed", 0),
        outputs=tuple(outputs),
        channel=channel,
        budget_log2=budget_log2,
        pdt_sample_count=sample_count,
        eta_step=eta_step,
        tracking_fractions=fractions,
        tracking_jitter2=jitter2,
        postselection_eta_min=eta_min,
        squeezing_input_db=squeezing_db,
        decoy=decoy,
        sweep_lengths=sweep_lengths,
    )
