"""Scenario-file parsing, unit handling, and validation reporting."""

import pytest

from turbchan import DecoyParams, Scenario, load_scenario
from turbchan.errors import ConfigError

BASE = [
    "scenario.id = demo",            # line 1
    "scenario.seed = 3",             # line 2
    "# the table is chosen on the command line",  # line 3
    "channel.cn2 = 4e-14",           # line 4
    "channel.wavelength = 800 nm",   # line 5
    "channel.length = 1 km",         # line 6
    "channel.w0 = 2 cm",             # line 7
    "channel.aperture = 4 cm",       # line 8
]


def write(tmp_path, lines, name="s.cfg"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def load_error(tmp_path, lines):
    with pytest.raises(ConfigError) as excinfo:
        load_scenario(write(tmp_path, lines))
    return excinfo.value


def test_minimal_scenario_and_defaults(tmp_path):
    s = load_scenario(write(tmp_path, BASE))
    assert isinstance(s, Scenario)
    assert s.scenario_id == "demo"
    assert s.seed == 3
    assert s.channel.cn2 == 4e-14
    # Unit scaling happens in decimal, so the parsed value is bit-identical
    # to the literal the unit-free form would give.
    assert s.channel.wavelength == 800e-9
    assert s.channel.length == 1000.0
    assert s.channel.w0 == 0.02
    assert s.channel.aperture_radius == 0.04
    assert s.budget_log2 == 20
    assert s.eta_step == 0.002
    assert s.tracking_fractions == (0.0,)
    assert s.tracking_jitter2 == 0.0
    assert s.postselection_eta_min == ()
    assert s.squeezing_input_db == -3.0
    assert s.decoy == DecoyParams()
    assert s.sweep_lengths == ()


def test_id_defaults_to_file_stem(tmp_path):
    lines = [l for l in BASE if not l.startswith("scenario.id")]
    s = load_scenario(write(tmp_path, lines, name="coastal_night.cfg"))
    assert s.scenario_id == "coastal_night"


def test_comments_and_blank_lines(tmp_path):
    lines = (["# full-line comment", ""]
             + [l + "   # trailing note" for l in BASE])
    s = load_scenario(write(tmp_path, lines))
    assert s.channel.length == 1000.0


@pytest.mark.parametrize("text,metres", [
    ("1550nm", 1550e-9),
    ("0.5 mm", 0.5e-3),
    ("2km", 2000.0),
    ("5e-3 km", 5.0),
    ("40 m", 40.0),
    ("3 um", 3e-6),
    ("7", 7.0),
])
def test_length_units(tmp_path, text, metres):
    lines = list(BASE)
    lines[5] = "channel.length = %s" % text
    s = load_scenario(write(tmp_path, lines))
    assert s.channel.length == metres


def test_full_scenario_round_trip(tmp_path):
    lines = BASE + [
        "channel.extinction_db_per_km = 1.0",   # line 9
        "budget.log2_total = 16",               # line 10
        "pdt.eta_step = 0.01",                  # line 11
        "tracking.fractions = 0, 0.25, 0.5, 1",  # line 12
        "tracking.jitter2 = 1e-6",              # line 13
        "postselection.eta_min = 0.3, 0.5",     # line 14
        "squeezing.input_db = -2.4",            # line 15
        "decoy.mu_signal = 0.2",                # line 16
        "decoy.mu_decoy = 0.35",                # line 17
        "decoy.y0 = 5e-6",                      # line 18
        "decoy.e_detector = 0.02",              # line 19
        "decoy.f_ec = 1.1",                     # line 20
        "sweep.lengths = 1 km, 2 km",           # line 21
    ]
    s = load_scenario(write(tmp_path, lines))
    assert s.channel.extinction_db_per_km == 1.0
    assert s.budget_log2 == 16
    assert s.eta_step == 0.01
    assert s.tracking_fractions == (0.0, 0.25, 0.5, 1.0)
    assert s.tracking_jitter2 == 1e-6
    assert s.postselection_eta_min == (0.3, 0.5)
    assert s.squeezing_input_db == -2.4
    assert s.decoy == DecoyParams(mu_s=0.2, mu_d=0.35, y0=5e-6, e_det=0.02,
                                  f_ec=1.1)
    assert s.sweep_lengths == (1000.0, 2000.0)


def test_shipped_scenarios_parse():
    from pathlib import Path
    root = Path(__file__).resolve().parent.parent / "scenarios"
    s = load_scenario(root / "fig2_solid.cfg")
    assert s.scenario_id == "fig2-solid"
    assert s.postselection_eta_min == (0.3, 0.5, 0.7)
    assert len(s.sweep_lengths) == 11
    v = load_scenario(root / "vacuum.cfg")
    assert v.channel.cn2 == 0.0


def test_malformed_line(tmp_path):
    err = load_error(tmp_path, BASE + ["just words"])
    assert err.line == 9


def test_empty_value(tmp_path):
    err = load_error(tmp_path, BASE + ["pdt.eta_step ="])
    assert err.line == 9


def test_duplicate_key(tmp_path):
    err = load_error(tmp_path, BASE + ["channel.cn2 = 1e-15"])
    assert err.field == "channel.cn2"
    assert err.line == 9


def test_unknown_key(tmp_path):
    err = load_error(tmp_path, BASE + ["channel.bogus = 1"])
    assert err.field == "channel.bogus"
    assert err.line == 9


def test_missing_required_key(tmp_path):
    lines = [l for l in BASE if not l.startswith("channel.w0")]
    err = load_error(tmp_path, lines)
    assert err.field == "channel.w0"
    assert err.line is None


def test_unknown_output(tmp_path):
    # Files no longer list their outputs or a key-rate draw count: a file
    # that still does fails on the key, like any other unknown key.
    for line in ("scenario.outputs = stats, pdt", "pdt.sample_count = 10000"):
        lines = list(BASE)
        lines[2] = line
        err = load_error(tmp_path, lines)
        assert err.field == line.partition(" ")[0]
        assert err.line == 3
        assert "unknown key" in str(err)


def test_bad_number(tmp_path):
    lines = list(BASE)
    lines[3] = "channel.cn2 = strong"
    err = load_error(tmp_path, lines)
    assert err.field == "channel.cn2"
    assert err.line == 4


def test_unit_on_unitless_key(tmp_path):
    lines = list(BASE)
    lines[3] = "channel.cn2 = 4e-14 m"
    err = load_error(tmp_path, lines)
    assert err.field == "channel.cn2"
    assert "unit" in str(err)


def test_unknown_unit(tmp_path):
    lines = list(BASE)
    lines[5] = "channel.length = 1 parsec"
    err = load_error(tmp_path, lines)
    assert err.field == "channel.length"
    assert err.line == 6


def test_bad_integer(tmp_path):
    lines = list(BASE)
    lines[1] = "scenario.seed = 3.5"
    err = load_error(tmp_path, lines)
    assert err.field == "scenario.seed"
    assert err.line == 2


def test_channel_validation_mapped_to_config_key(tmp_path):
    lines = list(BASE)
    lines[7] = "channel.aperture = -4 cm"
    err = load_error(tmp_path, lines)
    assert err.field == "channel.aperture"
    assert err.line == 8


def test_fractions_must_ascend(tmp_path):
    err = load_error(tmp_path, BASE + ["tracking.fractions = 0.5, 0.25"])
    assert err.field == "tracking.fractions"
    assert err.line == 9


def test_fractions_range(tmp_path):
    err = load_error(tmp_path, BASE + ["tracking.fractions = 0.5, 1.5"])
    assert err.field == "tracking.fractions"


def test_eta_min_range(tmp_path):
    err = load_error(tmp_path, BASE + ["postselection.eta_min = 0.9, 1.0"])
    assert err.field == "postselection.eta_min"


@pytest.mark.parametrize("value", ["2 km, 1 km", "-1 km, 2 km"])
def test_sweep_lengths_validated(tmp_path, value):
    err = load_error(tmp_path, BASE + ["sweep.lengths = %s" % value])
    assert err.field == "sweep.lengths"
    assert err.line == 9


def test_decoy_errors_wrapped(tmp_path):
    err = load_error(tmp_path, BASE + ["decoy.mu_signal = 0.5"])
    assert err.field == "decoy"
    assert err.line == 9
    assert "decoy" in str(err)


@pytest.mark.parametrize("line,field", [
    ("pdt.eta_step = 0.6", "pdt.eta_step"),
    ("pdt.eta_step = 0", "pdt.eta_step"),
    ("pdt.eta_step = 0.4", "pdt.eta_step"),
    ("pdt.eta_step = 0.3", "pdt.eta_step"),
    ("tracking.jitter2 = -1e-9", "tracking.jitter2"),
    # A literal past the float range would read as inf.
    ("tracking.jitter2 = 1e999", "tracking.jitter2"),
    ("channel.cn2 = 1e999", "channel.cn2"),
    ("channel.length = 1e999 m", "channel.length"),
    ("scenario.seed = -1", "scenario.seed"),
    # 2^35 points would give each of the 16 replicates more than the 2^30
    # distinct Sobol points.
    ("budget.log2_total = 35", "budget.log2_total"),
    # The id names the output files and fills a CSV column.
    ("scenario.id = ../x", "scenario.id"),
    ("scenario.id = a/b", "scenario.id"),
    ("scenario.id = a,b", "scenario.id"),
    ("scenario.id = .", "scenario.id"),
    ("scenario.id = ..", "scenario.id"),
])
def test_scalar_bounds(tmp_path, line, field):
    # A key BASE sets is commented out there, so line 9 is its only value.
    base = ["# " + l if l.startswith(field + " ") else l for l in BASE]
    err = load_error(tmp_path, base + [line])
    assert err.field == field
    assert err.line == 9


def test_budget_override_bounds(tmp_path):
    path = write(tmp_path, BASE)
    assert load_scenario(path, {"budget.log2_total": "34"}).budget_log2 == 34
    with pytest.raises(ConfigError) as excinfo:
        load_scenario(path, {"budget.log2_total": "35"})
    assert excinfo.value.field == "budget.log2_total"
    assert "<= 34" in str(excinfo.value)


def test_error_message_carries_location(tmp_path):
    err = load_error(tmp_path, BASE + ["channel.bogus = 1"])
    text = str(err)
    assert "channel.bogus" in text
    assert "line 9" in text
