"""Online monitoring through the diagnosis sink server.

Run:  python examples/live_monitoring.py

VN2's deployment mode, end to end: the network runs clean for two hours,
a model is trained on that history, and monitoring continues *on the
same network* while an operator watches.  Unlike the in-process variant
this example used to be, the diagnosis now runs behind the real service
boundary — the trained model is hosted by a ``repro.service`` sink
(``vn2 serve`` in-process), every simulated half-hour's new snapshots
are submitted over TCP with the client SDK, and the alerts printed below
are the server's own incident-event subscription stream.  Midway
through, a battery-drain fault and an interference burst are injected —
the incidents should pick both up without being told anything.
"""

import threading
import time

from repro import VN2, VN2Config
from repro.core.streaming import iter_packets
from repro.service import (
    ServiceClient,
    ServiceConfig,
    http_get_json,
    start_service_thread,
)
from repro.simnet import FaultInjector, Network, NetworkConfig, grid_topology
from repro.simnet.faults import BatteryDrain, Interference
from repro.simnet.radio import RadioParams
from repro.traces.frame import frame_from_network

TRAIN_HOURS = 2.0
MONITOR_HOURS = 3.0
WINDOW_S = 1800.0
DEPLOYMENT = "field"


def _fmt_nodes(node_ids, limit=6):
    listed = ", ".join(str(n) for n in node_ids[:limit])
    extra = len(node_ids) - limit
    return f"[{listed}]" + (f" (+{extra})" if extra > 0 else "")


def main() -> None:
    topology = grid_topology(rows=7, cols=5, spacing=8.0)
    network = Network(topology, NetworkConfig(
        report_period_s=120.0,
        seed=4,
        radio=RadioParams(tx_power_dbm=-10.0),
        max_range_m=40.0,
    ))

    # --- Phase 1: clean history to learn from.
    print(f"running {TRAIN_HOURS:.0f} clean hours to train on ...")
    train_end = TRAIN_HOURS * 3600.0
    network.run(train_end)
    model = VN2(VN2Config(rank=8, filter_exceptions=False)).fit(
        frame_from_network(network)
    )
    print(f"model ready: r={model.rank_}")

    # --- Phase 2: the model goes behind the service boundary.  The sink
    # gets the grid positions so incidents merge spatially, and the
    # screen/strength knobs this scenario needs.
    config = ServiceConfig(
        port=0, http_port=0,
        threshold_ratio=0.05,
        min_strength=0.3,
        time_gap_s=1800.0,
        radius_m=20.0,
        positions=dict(topology.positions),
    )
    with start_service_thread(model, config) as handle:
        # The sink reports which model it is serving — the content-hash
        # version every session's metrics are labelled with.
        health = http_get_json("127.0.0.1", handle.http_port, "/health")
        print(f"sink listening on 127.0.0.1:{handle.port} "
              f"(operator http :{handle.http_port}, "
              f"serving model_version {health['model_version']})\n")

        events: list = []

        def subscribe() -> None:
            subscriber = ServiceClient(port=handle.port)
            for event in subscriber.events(DEPLOYMENT):
                events.append(event)
            subscriber.close()

        listener = threading.Thread(target=subscribe, daemon=True)
        listener.start()
        while not handle.run_sync(
            lambda: handle.service.backend.route(DEPLOYMENT).subscribers
        ):
            time.sleep(0.01)

        # --- Phase 3: live monitoring with faults injected mid-run.
        drain_start = train_end + 1800.0
        interference_window = (train_end + 4500.0, train_end + 7500.0)
        FaultInjector(
            [
                BatteryDrain(17, start=drain_start, end=train_end + 10800.0,
                             multiplier=25000.0),
                Interference(
                    center=(16.0, 24.0), radius=18.0,
                    start=interference_window[0],
                    end=interference_window[1],
                    delta_db=18.0,
                ),
            ]
        ).install(network)

        client = ServiceClient(port=handle.port)
        submitted: set = set()
        cursor = 0
        n_windows = int(MONITOR_HOURS * 3600.0 / WINDOW_S)
        for _ in range(n_windows):
            network.run(WINDOW_S)
            now = network.sim.now()
            frame = frame_from_network(network)

            # Ship this window's new snapshots, oldest first — the same
            # packets a real collector would forward to the sink.
            fresh = [
                packet for packet in iter_packets(frame)
                if (packet[0], packet[1]) not in submitted
            ]
            submitted.update((packet[0], packet[1]) for packet in fresh)
            if fresh:
                client.submit(DEPLOYMENT, fresh)

            # Wait for the shard to diagnose the batch before reporting.
            while client.metrics(handle.http_port)["totals"][
                "queue_depth_packets"
            ]:
                time.sleep(0.02)

            # Liveness: a node whose reports stopped arriving is itself
            # an alarm (state-delta diagnosis cannot see a silent node).
            last_report = {
                node_id: float(frame.generated_at[rows].max())
                for node_id, rows in frame.node_slices()
            }
            silent = sorted(
                node_id
                for node_id, seen_at in last_report.items()
                if now - seen_at > 4 * 120.0
            )

            minutes = (now - train_end) / 60.0
            quiet = True
            for event in events[cursor:]:
                if event["kind"] == "update":
                    continue
                print(f"[t=+{minutes:4.0f}min] "
                      f"{event['kind'].upper():5s} incident "
                      f"#{event['incident_id']} {event['hazard']}: "
                      f"nodes {_fmt_nodes(event['node_ids'])}, "
                      f"peak {event['peak_strength']:.2f}")
                quiet = False
            cursor = len(events)
            if silent:
                print(f"[t=+{minutes:4.0f}min] SILENT ({len(silent)} nodes, "
                      f"no complete reports): "
                      f"{', '.join(str(n) for n in silent)}")
                quiet = False
            if quiet:
                print(f"[t=+{minutes:4.0f}min] all quiet")

        client.close()
        # Graceful drain: open incidents flush as close events to the
        # subscription before the server hangs up.
        handle.stop(drain=True)
        listener.join(timeout=10.0)

    for event in events[cursor:]:
        if event["kind"] == "close":
            print(f"[drain ] CLOSE incident #{event['incident_id']} "
                  f"{event['hazard']}: nodes {_fmt_nodes(event['node_ids'])}, "
                  f"{event['n_observations']} observations")

    print(
        "\n(ground truth: battery drain on node 17 from +30min; "
        "interference near the grid center +75..+125min)"
    )


if __name__ == "__main__":
    main()
