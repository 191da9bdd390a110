"""Physical description of one free-space optical link."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError


@dataclass(frozen=True)
class ChannelParams:
    """Turbulence, geometry and loss parameters of a single channel.

    Parameters
    ----------
    cn2 : float
        Refractive-index structure constant, m^(-2/3). Zero means vacuum.
    wavelength : float
        Optical wavelength in metres.
    length : float
        Propagation distance in metres.
    w0 : float
        Initial beam-spot radius at the transmitter, metres. The beam is
        focused onto the receiver plane.
    aperture_radius : float
        Radius of the circular receiver aperture, metres.
    extinction_db_per_km : float, optional
        Deterministic extinction (absorption and scattering), dB/km. Kept out
        of the correlation functions; applied as a transmittance factor by the
        key-rate layer.

    Notes
    -----
    Derived quantities: wave number ``k`` and ``w_vac`` = 2 L / (k w0), the
    receiver-plane spot radius the focused beam would have in vacuum.
    """

    cn2: float
    wavelength: float
    length: float
    w0: float
    aperture_radius: float
    extinction_db_per_km: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.cn2 < math.inf:
            raise ConfigError("cn2 must be finite and >= 0", field="cn2")
        for name in ("wavelength", "length", "w0", "aperture_radius"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ConfigError("%s must be finite and > 0" % name,
                                  field=name)
        if not 0.0 <= self.extinction_db_per_km < math.inf:
            raise ConfigError("extinction_db_per_km must be finite and >= 0",
                              field="extinction_db_per_km")

    @property
    def k(self) -> float:
        """Optical wave number, m^-1."""
        return 2.0 * math.pi / self.wavelength

    @property
    def w_vac(self) -> float:
        """Vacuum receiver-plane spot radius 2 L / (k w0)."""
        return 2.0 * self.length / (self.k * self.w0)

    @property
    def extinction_eta(self) -> float:
        """Deterministic transmittance factor from extinction losses."""
        db = self.extinction_db_per_km * self.length / 1000.0
        return 10.0 ** (-db / 10.0)

    def replace(self, **kw) -> "ChannelParams":
        from dataclasses import replace as _replace
        return _replace(self, **kw)


def rytov_parameter(params: ChannelParams) -> float:
    """Turbulence-strength measure 1.23 Cn2 k^(7/6) L^(11/6).

    Values below 1 indicate weak intensity fluctuations, around 1 weak to
    moderate, above 1 moderate, and much greater than 1 strong turbulence.
    """
    return 1.23 * params.cn2 * params.k ** (7.0 / 6.0) * params.length ** (11.0 / 6.0)
