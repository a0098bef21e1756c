"""Benchmark inputs: the CitySee trace, the fitted model, and the
pre-encoded ingest lines each workload sends.

The trace is ``CitySeeProfile.medium()`` (profile seed 2011, 119 nodes,
35,910 packets), generated through the scenario runner into a disk cache
inside the checkout, and the model is ``VN2Config(rank=20)`` fitted on
it once and saved next to it.  Both are built on first use and never
timed.  A cold trace takes about ten minutes, so the benchmark's own
``--seed`` does not regenerate it; instead the seed draws which nodes
each deployment owns and names the deployments, which changes every
served byte while keeping the work per run the same.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

RANK = 20


def prepare(cache_dir: Path) -> Tuple[object, Path]:
    """Return ``(frame, model_path)``, generating and fitting on first use."""
    from repro.core.pipeline import VN2, VN2Config
    from repro.runner import CitySeeJob, run_jobs
    from repro.traces.citysee import CitySeeProfile

    trace_dir = cache_dir / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    report = run_jobs(
        [CitySeeJob(CitySeeProfile.medium())], cache_dir=trace_dir
    )
    frame = report.results[0].frame()
    model = cache_dir / f"model-rank{RANK}.json"
    if not model.exists():
        tool = VN2(VN2Config(rank=RANK)).fit(frame)
        # VN2.save writes a sidecar next to the path; save under a
        # temporary stem and publish the JSON last, so a half-written
        # model is never picked up.
        tmp = cache_dir / f"tmp-{os.getpid()}-model-rank{RANK}.json"
        tool.save(tmp)
        for sidecar in cache_dir.glob(f"{tmp.stem}.*"):
            if sidecar != tmp:
                os.replace(sidecar, cache_dir / sidecar.name.replace(
                    tmp.stem, model.stem))
        os.replace(tmp, model)
    return frame, model


def packets_in_order(frame) -> List[tuple]:
    """The trace's packets in the canonical arrival order."""
    from repro.core.streaming import iter_packets

    return list(iter_packets(frame))


def partition_nodes(node_ids, n_groups: int, seed: int) -> List[np.ndarray]:
    """Split the node ids into ``n_groups`` seeded, near-equal groups."""
    nodes = np.unique(np.asarray(node_ids))
    perm = np.random.default_rng(seed).permutation(nodes)
    return [np.sort(perm[i::n_groups]) for i in range(n_groups)]


def split_packets(packets: List[tuple], groups: List[np.ndarray]) -> List[List[tuple]]:
    """Each group's packets, keeping arrival order."""
    owner = {int(n): g for g, nodes in enumerate(groups) for n in nodes}
    out: List[List[tuple]] = [[] for _ in groups]
    for packet in packets:
        out[owner[packet[0]]].append(packet)
    return out


@dataclass
class Line:
    """One pre-encoded ``ingest`` line."""

    deployment: str
    seq: int
    packets: List[tuple]
    data: bytes
    #: ``generated_at`` of every packet in the line.
    times: Tuple[float, ...]


def encode_lines(deployment: str, packets: List[tuple], batch: int,
                 first_seq: int) -> List[Line]:
    """Chunk ``packets`` into ``batch``-packet ingest lines, encoded the
    way :meth:`repro.service.client.ServiceClient.submit` encodes them."""
    from repro.service import protocol
    from repro.service.client import _packet_obj

    lines = []
    for i in range(0, len(packets), batch):
        chunk = packets[i:i + batch]
        seq = first_seq + len(lines)
        message = protocol.ingest(deployment, [_packet_obj(p) for p in chunk], seq)
        lines.append(Line(deployment, seq, chunk, protocol.encode(message),
                          tuple(p[2] for p in chunk)))
    return lines


def deployment_names(seed: int, n: int, tag: str) -> List[str]:
    """``n`` distinct seeded deployment names of equal length."""
    rng = np.random.default_rng([seed, n])
    stems = rng.choice(1 << 24, size=n, replace=False)
    return [f"{tag}-{int(s):06x}-{i:03d}" for i, s in enumerate(stems)]


def interleave(streams: Dict[str, List[Line]]) -> List[Line]:
    """Merge several deployments' lines by their first packet's time."""
    merged = [line for lines in streams.values() for line in lines]
    merged.sort(key=lambda line: (line.times[0], line.deployment, line.seq))
    return merged
