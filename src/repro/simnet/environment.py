"""Environmental fields: temperature, humidity, light, CO2 and RF noise.

The environment is a set of space-time fields sampled by the sensor layer
and by the radio (noise floor).  Diurnal cycles drive temperature and light;
humidity is anti-correlated with temperature; CO2 follows traffic-like
morning/evening bumps (CitySee monitors urban CO2).  Interference events
registered by the fault injector raise the local RF noise floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

SECONDS_PER_DAY = 86400.0


@dataclass
class NoiseRegion:
    """A temporary RF interference region.

    Attributes:
        center: (x, y) center of the affected disk.
        radius: Radius in meters.
        start: Activation time (seconds).
        end: Deactivation time (seconds).
        delta_db: Noise-floor increase inside the disk (dB).
    """

    center: Tuple[float, float]
    radius: float
    start: float
    end: float
    delta_db: float

    def active_at(self, time: float, position: Tuple[float, float]) -> bool:
        if not (self.start <= time < self.end):
            return False
        dx = position[0] - self.center[0]
        dy = position[1] - self.center[1]
        return math.hypot(dx, dy) <= self.radius


class Environment:
    """Space-time environmental model.

    Args:
        rng: Random stream for small-scale fluctuation.
        base_temperature: Daily mean temperature (deg C).
        temp_amplitude: Diurnal swing amplitude (deg C).
        base_noise_floor: RF noise floor with no interference (dBm).
    """

    def __init__(
        self,
        rng: np.random.Generator,
        base_temperature: float = 26.0,
        temp_amplitude: float = 6.0,
        base_noise_floor: float = -96.0,
        day_seconds: float = SECONDS_PER_DAY,
    ):
        self._rng = rng
        self.base_temperature = base_temperature
        self.temp_amplitude = temp_amplitude
        self.base_noise_floor = base_noise_floor
        self.day_seconds = float(day_seconds)
        self.noise_regions: List[NoiseRegion] = []

    # ------------------------------------------------------------------
    # sensing fields
    # ------------------------------------------------------------------

    def _phase(self, time: float) -> float:
        """Diurnal phase in radians; 0 at midnight, pi at noon."""
        return 2.0 * math.pi * (time % self.day_seconds) / self.day_seconds

    def temperature(self, time: float, position: Tuple[float, float]) -> float:
        """Air temperature (deg C): diurnal sinusoid + spatial gradient + jitter."""
        diurnal = -math.cos(self._phase(time)) * self.temp_amplitude
        spatial = 0.002 * position[0]  # mild west-east gradient
        jitter = float(self._rng.normal(0.0, 0.15))
        return self.base_temperature + diurnal + spatial + jitter

    def humidity(self, time: float, position: Tuple[float, float]) -> float:
        """Relative humidity (%): anti-correlated with temperature."""
        temp = self.temperature(time, position)
        humidity = 95.0 - 2.2 * (temp - self.base_temperature) - 0.3 * temp
        jitter = float(self._rng.normal(0.0, 0.8))
        return float(np.clip(humidity + jitter, 5.0, 100.0))

    def light(self, time: float, position: Tuple[float, float]) -> float:
        """Ambient light (normalised lux in [0, 1000]): zero at night."""
        sun = max(0.0, -math.cos(self._phase(time)))
        jitter = float(self._rng.normal(0.0, 5.0))
        return float(np.clip(1000.0 * sun + jitter, 0.0, 1200.0))

    def co2(self, time: float, position: Tuple[float, float]) -> float:
        """CO2 (ppm): baseline + traffic bumps at ~8h and ~18h."""
        hours = 24.0 * (time % self.day_seconds) / self.day_seconds
        morning = 60.0 * math.exp(-((hours - 8.0) ** 2) / 4.0)
        evening = 70.0 * math.exp(-((hours - 18.0) ** 2) / 5.0)
        jitter = float(self._rng.normal(0.0, 4.0))
        return 400.0 + morning + evening + jitter

    # ------------------------------------------------------------------
    # RF noise
    # ------------------------------------------------------------------

    def add_noise_region(self, region: NoiseRegion) -> None:
        """Register an interference region (used by the fault injector)."""
        self.noise_regions.append(region)

    def noise_floor(self, time: float, position: Tuple[float, float]) -> float:
        """RF noise floor (dBm) at a point, including active interference."""
        noise = self.base_noise_floor
        for region in self.noise_regions:
            if region.active_at(time, position):
                noise += region.delta_db
        return noise

    def prune_noise_regions(self, time: float) -> None:
        """Drop interference regions that ended before ``time``."""
        self.noise_regions = [r for r in self.noise_regions if r.end > time]
