"""Output check: the served sink against an in-process replay.

Every deployment's packets are replayed through a local
:class:`~repro.core.streaming.StreamingDiagnosisSession` built with the
sink's own settings.  The sink must match it on the ``/metrics``
counters, on ``/incidents``, and on the event stream its subscribers
received (pushed events, then the drain's flush events).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

#: The per-deployment ``/metrics`` counters the check compares.
COUNTERS = ("packets", "states", "exceptions", "events_emitted")


@dataclass
class Expected:
    """What one packet stream must produce."""

    counters: Dict[str, int]
    incidents: dict
    events: List[dict]        #: pushed events, in emission order
    flush_events: List[dict]  #: events of the end-of-stream flush


def _json(obj):
    """Round-trip through JSON, as the sink's answers were."""
    return json.loads(json.dumps(obj))


def replay(tool, packets: Sequence[tuple],
           threshold: Optional[float]) -> Expected:
    """Diagnose ``packets`` locally the way one sink shard does."""
    from repro.core.streaming import StreamingDiagnosisSession
    from repro.obs import MetricsRegistry
    from repro.service import protocol
    from repro.service.backends import _tracker_doc

    session = StreamingDiagnosisSession(
        tool,
        threshold_ratio=threshold,
        max_closed_incidents=10000,  # vn2 serve --max-closed default
        registry=MetricsRegistry(enabled=False),
    )
    events = []
    for packet in packets:
        update = session.push_packet(*packet)
        if update is not None and update.events:
            events.extend(protocol.incident_event_obj(e) for e in update.events)
    counters = {**session.counters(), "events_emitted": len(events)}
    incidents = _json(_tracker_doc(session.tracker))
    flush = [protocol.incident_event_obj(e) for e in session.finish()]
    return Expected(
        counters={k: counters[k] for k in COUNTERS},
        incidents=incidents,
        events=_json(events),
        flush_events=_json(flush),
    )


def compare(expected: Dict[str, Expected], metrics_doc: dict,
            incidents_doc: dict, received: Dict[str, List[dict]]) -> List[str]:
    """Every difference between the sink and the replay, as text.

    ``received`` maps deployment -> event objects in receipt order
    (pushed and flushed).
    """
    problems = []
    served = metrics_doc["deployments"]
    incidents = incidents_doc["deployments"]
    for name, want in sorted(expected.items()):
        got = served.get(name)
        if got is None:
            problems.append(f"{name}: missing from /metrics")
            continue
        for key in COUNTERS:
            if got.get(key) != want.counters[key]:
                problems.append(
                    f"{name}: /metrics {key}={got.get(key)} "
                    f"!= replay {want.counters[key]}"
                )
        if incidents.get(name) != want.incidents:
            problems.append(f"{name}: /incidents differs from the replay")
        bad = event_mismatches(want.events + want.flush_events,
                               received.get(name, []))
        if bad:
            problems.append(f"{name}: {bad} events missing or differing")
    extra = sorted(set(served) - set(expected))
    if extra:
        problems.append(f"unexpected deployments served: {extra}")
    return problems


def event_mismatches(want: List[dict], got: List[dict]) -> int:
    """Events that are missing, extra, or differ position by position."""
    differing = sum(1 for a, b in zip(want, got) if a != b)
    return differing + abs(len(want) - len(got))
