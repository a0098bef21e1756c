"""Synthetic CitySee traces (the paper's Section V-B field study).

CitySee was an urban CO2-sensing deployment: 286 TelosB nodes, one sink,
CTP collection, a 43-metric report every 10 minutes.  The paper uses a
7-day trace (Aug 1-7, 2011) to train the representative matrix, and a
14-day trace (Sep 14-27) — containing an obvious PRR degradation on
Sep 20-22 — to demonstrate diagnosis.

This module reproduces both as simulator runs:

* :func:`generate_citysee_frame` with ``episode=False`` gives the training
  trace: a long run with a realistic *background* fault mix (sporadic
  reboots, interference bursts, routing loops, link degradations, traffic
  hot spots, battery drains) scattered over space and time.
* With ``episode=True`` the run includes a concentrated degradation
  episode (loops + contention + node failures at once) positioned like the
  paper's Sep 20-22 event, so the PRR series shows the same dip and VN2's
  diagnosis should light up the same three root-cause families.

Because a full paper-scale run (286 nodes x 7 x 86400 s) is expensive in
pure Python, :class:`CitySeeProfile` provides scaled presets whose *shape*
(epochs per day, faults per day, hop depth) matches the full profile.
Traces are cached on disk keyed by their parameters.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from repro.simnet.faults import (
    BatteryDrain,
    FaultInjector,
    ForcedLoop,
    Interference,
    LinkDegradation,
    NodeFailure,
    NodeReboot,
    TrafficBurst,
)
from repro.simnet.network import Network, NetworkConfig
from repro.simnet.radio import RadioParams
from repro.simnet.rng import RngRegistry
from repro.simnet.topology import Topology, random_geometric_topology
from repro.traces.frame import TraceFrame, frame_from_network
from repro.traces.io import (
    load_frame_jsonl,
    load_frame_npz,
    save_frame_jsonl,
    save_frame_npz,
)


@dataclass(frozen=True)
class CitySeeProfile:
    """Shape parameters of a CitySee-like run.

    ``day_seconds`` scales simulated wall time: a "day" of 7200 s with a
    120 s reporting period has the same 60 epochs/day as the paper's
    86400 s day with 600 s reports, at a fraction of the event cost.
    """

    n_nodes: int = 286
    days: float = 7.0
    day_seconds: float = 86400.0
    report_period_s: float = 600.0
    area: Tuple[float, float] = (1000.0, 600.0)
    comm_radius_m: float = 120.0
    #: Urban-canopy path loss; 2.4 puts the 50 %-PRR distance near 130 m so
    #: links inside ``comm_radius_m`` are usable (the topology generator
    #: guarantees connectivity at that radius).
    path_loss_exponent: float = 2.4
    seed: int = 2011
    # background fault intensities, in events per day
    reboots_per_day: float = 4.0
    interference_per_day: float = 2.0
    loops_per_day: float = 1.0
    degradations_per_day: float = 2.0
    bursts_per_day: float = 1.0
    drains_per_day: float = 1.0

    @staticmethod
    def tiny(seed: int = 2011, days: float = 1.5) -> "CitySeeProfile":
        """~30 nodes, 1-hour 'days': for quick unit tests only."""
        return CitySeeProfile(
            n_nodes=30,
            days=days,
            day_seconds=3600.0,
            report_period_s=60.0,
            area=(300.0, 200.0),
            comm_radius_m=100.0,
            seed=seed,
            reboots_per_day=6.0,
            interference_per_day=3.0,
            loops_per_day=2.0,
            degradations_per_day=2.0,
            bursts_per_day=1.0,
            drains_per_day=1.0,
        )

    @staticmethod
    def small(seed: int = 2011, days: float = 3.0) -> "CitySeeProfile":
        """~60 nodes, 2-hour 'days': fast enough for unit tests."""
        return CitySeeProfile(
            n_nodes=60,
            days=days,
            day_seconds=7200.0,
            report_period_s=120.0,
            area=(420.0, 280.0),
            comm_radius_m=110.0,
            seed=seed,
        )

    @staticmethod
    def medium(seed: int = 2011, days: float = 7.0) -> "CitySeeProfile":
        """~120 nodes, 4-hour 'days': the benchmark default."""
        return CitySeeProfile(
            n_nodes=120,
            days=days,
            day_seconds=14400.0,
            report_period_s=180.0,
            area=(620.0, 400.0),
            comm_radius_m=115.0,
            seed=seed,
        )

    @staticmethod
    def full(seed: int = 2011, days: float = 7.0) -> "CitySeeProfile":
        """Paper scale: 286 nodes, real 86400 s days, 600 s reports."""
        return CitySeeProfile(seed=seed, days=days)

    def duration_s(self) -> float:
        return self.days * self.day_seconds


def _build_background_faults(
    profile: CitySeeProfile,
    topology: Topology,
    rng: np.random.Generator,
    start: float,
    end: float,
) -> List[object]:
    """Poisson-scattered background hazards over [start, end)."""
    faults: List[object] = []
    span_days = (end - start) / profile.day_seconds
    width, height = profile.area
    sensor_ids = topology.sensor_ids

    def times(rate_per_day: float) -> np.ndarray:
        n = rng.poisson(max(0.0, rate_per_day * span_days))
        return np.sort(rng.uniform(start, end, size=n))

    for t in times(profile.reboots_per_day):
        node_id = int(rng.choice(sensor_ids))
        faults.append(NodeReboot(node_id, at=float(t)))

    for t in times(profile.interference_per_day):
        center = (float(rng.uniform(0, width)), float(rng.uniform(0, height)))
        duration = float(rng.uniform(0.02, 0.08)) * profile.day_seconds
        faults.append(
            Interference(
                center=center,
                radius=float(rng.uniform(0.10, 0.22)) * max(width, height),
                start=float(t),
                end=float(t) + duration,
                delta_db=float(rng.uniform(12.0, 20.0)),
            )
        )

    for t in times(profile.loops_per_day):
        pair = _random_adjacent_pair(topology, rng, profile.comm_radius_m)
        if pair is None:
            continue
        duration = float(rng.uniform(0.02, 0.06)) * profile.day_seconds
        faults.append(
            ForcedLoop(pair[0], pair[1], start=float(t), end=float(t) + duration)
        )

    for t in times(profile.degradations_per_day):
        center = (float(rng.uniform(0, width)), float(rng.uniform(0, height)))
        duration = float(rng.uniform(0.05, 0.15)) * profile.day_seconds
        faults.append(
            LinkDegradation(
                center=center,
                radius=float(rng.uniform(0.08, 0.18)) * max(width, height),
                start=float(t),
                end=float(t) + duration,
                extra_db=float(rng.uniform(6.0, 14.0)),
            )
        )

    for t in times(profile.bursts_per_day):
        chosen = rng.choice(sensor_ids, size=min(4, len(sensor_ids)), replace=False)
        duration = float(rng.uniform(0.01, 0.04)) * profile.day_seconds
        faults.append(
            TrafficBurst(
                node_ids=tuple(int(n) for n in chosen),
                start=float(t),
                end=float(t) + duration,
                interval_s=max(2.0, profile.report_period_s / 30.0),
            )
        )

    for t in times(profile.drains_per_day):
        node_id = int(rng.choice(sensor_ids))
        duration = float(rng.uniform(0.1, 0.3)) * profile.day_seconds
        faults.append(
            BatteryDrain(
                node_id,
                start=float(t),
                end=float(t) + duration,
                multiplier=float(rng.uniform(30.0, 80.0)),
            )
        )

    return faults


def _random_adjacent_pair(
    topology: Topology, rng: np.random.Generator, comm_radius_m: float
) -> Optional[Tuple[int, int]]:
    """A random pair of nearby non-sink nodes (loop candidates)."""
    sensor_ids = topology.sensor_ids
    for _ in range(50):
        a = int(rng.choice(sensor_ids))
        nearby = [
            b
            for b in topology.neighbors_within(a, comm_radius_m * 0.5)
            if b != topology.sink_id
        ]
        if nearby:
            return a, int(rng.choice(nearby))
    return None


def _build_episode_faults(
    profile: CitySeeProfile,
    topology: Topology,
    rng: np.random.Generator,
    episode_start: float,
    episode_end: float,
) -> List[object]:
    """The concentrated degradation episode (paper's Sep 20-22).

    Three simultaneous hazard families, matching the paper's diagnosis of
    that window: routing loops, channel contention and node failures.
    """
    faults: List[object] = []
    width, height = profile.area
    sensor_ids = topology.sensor_ids
    span = episode_end - episode_start

    # Persistent wide-area interference (contention / Ψ17).
    faults.append(
        Interference(
            center=(width * 0.5, height * 0.5),
            radius=0.45 * max(width, height),
            start=episode_start + 0.05 * span,
            end=episode_end - 0.05 * span,
            delta_db=16.0,
        )
    )
    # Several long routing loops (Ψ16).
    for k in range(4):
        pair = _random_adjacent_pair(topology, rng, profile.comm_radius_m)
        if pair is None:
            continue
        t0 = episode_start + float(rng.uniform(0.0, 0.5)) * span
        faults.append(ForcedLoop(pair[0], pair[1], start=t0,
                                 end=t0 + float(rng.uniform(0.2, 0.4)) * span))
    # A batch of node failures, some recovering late (Ψ22 / Ψ11).
    n_failures = max(3, len(sensor_ids) // 20)
    failed = rng.choice(sensor_ids, size=n_failures, replace=False)
    for node_id in failed:
        t0 = episode_start + float(rng.uniform(0.0, 0.6)) * span
        faults.append(NodeFailure(int(node_id), at=t0))
        if rng.random() < 0.5:
            faults.append(
                NodeReboot(int(node_id), at=t0 + float(rng.uniform(0.2, 0.4)) * span)
            )
    return faults


def _cache_key(profile: CitySeeProfile, episode: bool,
               episode_days: Tuple[float, float]) -> str:
    payload = json.dumps(
        {"profile": asdict(profile), "episode": episode,
         "episode_days": list(episode_days), "v": 3},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def default_cache_dir() -> Path:
    """Directory of the trace cache (override with ``REPRO_VN2_CACHE``)."""
    env = os.environ.get("REPRO_VN2_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-vn2"


def citysee_cache_paths(
    profile: CitySeeProfile,
    episode: bool = False,
    episode_days: Tuple[float, float] = (6.0, 8.0),
    cache_dir: Optional[Path] = None,
) -> Tuple[Path, Path]:
    """(npz, jsonl) cache paths for one CitySee run.

    The key is a pure function of the generation parameters — the scenario
    runner uses this to spool worker output into the same cache entries a
    serial :func:`generate_citysee_frame` call would read and write.
    """
    directory = cache_dir or default_cache_dir()
    stem = f"citysee-{_cache_key(profile, episode, episode_days)}"
    return directory / f"{stem}.npz", directory / f"{stem}.jsonl"


def generate_citysee_frame(
    profile: Optional[CitySeeProfile] = None,
    episode: bool = False,
    episode_days: Tuple[float, float] = (6.0, 8.0),
    use_cache: bool = True,
    cache_dir: Optional[Path] = None,
) -> TraceFrame:
    """Generate (or load from cache) a CitySee-like trace, as a frame.

    The cache keeps two codecs per run: a fast ``.npz`` (preferred on
    load) and the legacy diff-able ``.jsonl``.  A cache directory written
    by an older version (jsonl only) is upgraded in place on first load.

    Args:
        profile: Scale/fault parameters; defaults to
            :meth:`CitySeeProfile.medium`.
        episode: Include the concentrated PRR-degradation episode.
        episode_days: (start_day, end_day) of the episode, in profile days.
        use_cache: Reuse a cached identical run when available.
        cache_dir: Cache location; defaults to :func:`default_cache_dir`.
    """
    profile = profile or CitySeeProfile.medium()
    npz_path: Optional[Path] = None
    jsonl_path: Optional[Path] = None
    if use_cache:
        npz_path, jsonl_path = citysee_cache_paths(
            profile, episode, episode_days, cache_dir
        )
        if npz_path.exists():
            return load_frame_npz(npz_path)
        if jsonl_path.exists():
            frame = load_frame_jsonl(jsonl_path)
            save_frame_npz(frame, npz_path)
            return frame

    rngs = RngRegistry(profile.seed)
    topology = random_geometric_topology(
        n_nodes=profile.n_nodes,
        area=profile.area,
        comm_radius=profile.comm_radius_m,
        rng=rngs.stream("topology"),
    )
    config = NetworkConfig(
        report_period_s=profile.report_period_s,
        day_seconds=profile.day_seconds,
        seed=profile.seed,
        max_range_m=profile.comm_radius_m * 1.25,
        beacon_max_s=min(480.0, profile.report_period_s),
        radio=RadioParams(path_loss_exponent=profile.path_loss_exponent),
    )
    network = Network(topology, config)

    warmup = min(0.25 * profile.day_seconds, 3600.0)
    end = profile.duration_s()
    fault_rng = network.rngs.stream("citysee.faults")
    faults = _build_background_faults(profile, topology, fault_rng, warmup, end)
    if episode:
        ep_start = episode_days[0] * profile.day_seconds
        ep_end = episode_days[1] * profile.day_seconds
        faults.extend(
            _build_episode_faults(profile, topology, fault_rng, ep_start, ep_end)
        )
    FaultInjector(faults).install(network)
    network.run(end)

    frame = frame_from_network(
        network,
        metadata={
            "kind": "citysee",
            "profile": asdict(profile),
            "episode": episode,
            "episode_days": list(episode_days),
            "warmup_s": warmup,
            "positions": {
                str(nid): list(pos) for nid, pos in topology.positions.items()
            },
        },
    )
    if npz_path is not None:
        save_frame_npz(frame, npz_path)
        save_frame_jsonl(frame, jsonl_path)
    return frame
