"""Channel parameter validation and derived geometry."""

import math

import pytest
from hypothesis import given, strategies as st

from turbchan import ChannelParams, rytov_parameter
from turbchan.errors import ConfigError

from conftest import make_channel


def test_derived_quantities():
    c = make_channel(4e-14, 1000.0)
    k = 2.0 * math.pi / 800e-9
    assert c.k == pytest.approx(k, rel=1e-15)
    assert c.w_vac == pytest.approx(2000.0 / (k * 0.02), rel=1e-15)
    assert c.w_vac == pytest.approx(0.0127323954, rel=1e-8)


def test_extinction_transmittance():
    c = make_channel(4e-14, 1000.0, extinction_db_per_km=1.0)
    assert c.extinction_eta == pytest.approx(10.0 ** -0.1, rel=1e-15)
    assert make_channel(4e-14, 1000.0).extinction_eta == 1.0
    c3 = make_channel(4e-14, 3000.0, extinction_db_per_km=1.0)
    assert c3.extinction_eta == pytest.approx(10.0 ** -0.3, rel=1e-15)


def test_replace_returns_new_instance():
    c = make_channel(4e-14, 1000.0)
    c2 = c.replace(length=2000.0)
    assert c2.length == 2000.0 and c.length == 1000.0
    assert c2.cn2 == c.cn2


@pytest.mark.parametrize("field,value", [
    ("cn2", -1e-15),
    ("wavelength", 0.0),
    ("length", -1.0),
    ("w0", 0.0),
    ("aperture_radius", -0.04),
    ("extinction_db_per_km", -0.1),
])
def test_validation_names_field(field, value):
    kwargs = dict(cn2=4e-14, wavelength=800e-9, length=1000.0, w0=0.02,
                  aperture_radius=0.04)
    kwargs[field] = value
    with pytest.raises(ConfigError) as exc:
        ChannelParams(**kwargs)
    assert exc.value.field == field


def test_rytov_reference_values():
    # Weak-to-moderate and strong regimes from the standard formula.
    assert rytov_parameter(make_channel(4e-14, 1000.0)) == pytest.approx(1.72, rel=0.01)
    assert rytov_parameter(make_channel(3e-15, 2000.0)) == pytest.approx(0.46, rel=0.01)
    assert rytov_parameter(make_channel(3e-15, 3000.0)) == pytest.approx(0.96, rel=0.01)


@given(cn2=st.floats(1e-17, 1e-12), scale=st.floats(0.1, 10.0))
def test_rytov_linear_in_cn2(cn2, scale):
    base = make_channel(cn2, 1500.0)
    scaled = make_channel(cn2 * scale, 1500.0)
    assert rytov_parameter(scaled) == pytest.approx(
        scale * rytov_parameter(base), rel=1e-12)


@given(length=st.floats(100.0, 9000.0))
def test_rytov_increases_with_length(length):
    a = rytov_parameter(make_channel(1e-14, length))
    b = rytov_parameter(make_channel(1e-14, length * 1.5))
    assert b > a
