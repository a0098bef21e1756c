"""Command-line interface: ``vn2 <command>`` (or ``python -m repro``).

Commands:

* ``vn2 simulate-testbed`` — run the 45-node testbed experiment, save the
  trace.
* ``vn2 simulate-citysee`` — run a CitySee-like deployment, save the trace.
* ``vn2 train`` — fit a VN2 model from a saved trace, save the model.
* ``vn2 diagnose`` — diagnose a saved trace (or window of it) with a saved
  model.
* ``vn2 watch`` — tail a growing JSONL trace with a saved model and
  stream incident open/update/close events as packets land.
* ``vn2 serve`` — run the diagnosis sink server: report packets in over
  TCP (many deployments, bounded queues, explicit backpressure),
  incident events and operator metrics out.  ``--refit-every`` /
  ``--drift-threshold`` arm the online model lifecycle (background
  refits + zero-downtime rotation).
* ``vn2 model`` — inspect a saved model (``info``), compare two saves
  (``diff``), or rotate a running sink to a new save (``rotate``).
* ``vn2 experiment`` — run one of the paper's figure/table harnesses.
* ``vn2 sweep`` — run a multi-seed scenario sweep through the parallel
  runner and score every deployment against its fault schedule
  (``--suite chaos`` runs the chaos preset suite instead).
* ``vn2 chaos`` — the chaos scenario engine: ``list`` the preset
  library, ``run`` presets through the process pool, ``score`` them
  with the per-fault-family accuracy scorecard (``--gate`` enforces
  each preset's detection-rate floors; the CI gate).
* ``vn2 profile`` — run any other subcommand under the span tracer and
  print its span tree, hot-spot table and (optionally) a spans JSONL.
* ``vn2 stats`` — fetch and pretty-print a running service's
  ``/metrics`` (or its raw Prometheus exposition).

Commands that generate more than one independent simulator run accept
``--jobs N`` to shard the runs across a process pool (output is
bit-identical to serial).  ``train`` and ``evaluate`` also accept
generator specs (``citysee:small``, ``citysee:small:episode``,
``testbed:expansive``) in place of a trace path — the trace is generated
through the runner's cache instead of loaded from a file.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


_CITYSEE_PROFILES = ("tiny", "small", "medium", "full")


def _load_model(path: str, verb: str):
    """``VN2.load(path)``, or ``None`` after printing why it was refused.

    A missing or unreadable file, a save without training statistics and
    a save whose payload no longer matches its recorded ``model_version``
    (:class:`~repro.core.pipeline.ModelIntegrityError`, a ``ValueError``)
    all end as one line on stderr, ``vn2 <verb>: <reason>``; the caller
    returns 1.
    """
    from repro.core.pipeline import VN2

    try:
        return VN2.load(path)
    except (OSError, ValueError) as exc:
        print(f"vn2 {verb}: {exc}", file=sys.stderr)
        return None


def _resolve_trace(arg: str, fmt: Optional[str], jobs: int = 1):
    """Load a trace file, or generate one from a ``kind:variant`` spec.

    Specs route through the scenario runner (and its NPZ cache):
    ``citysee:<profile>[:episode]`` or ``testbed:<scenario>``.  Anything
    else is treated as a path.
    """
    from repro.traces.io import load_frame

    head = arg.split(":", 1)[0]
    if head not in ("citysee", "testbed"):
        return load_frame(arg, fmt=fmt)

    import dataclasses

    from repro.runner import CitySeeJob, TestbedJob, run_jobs
    from repro.traces.citysee import CitySeeProfile
    from repro.traces.testbed import TestbedScenario

    parts = arg.split(":")
    if head == "citysee":
        variant = parts[1] if len(parts) > 1 else "small"
        if variant not in _CITYSEE_PROFILES:
            raise SystemExit(
                f"unknown citysee profile {variant!r}; "
                f"expected one of {_CITYSEE_PROFILES}"
            )
        profile = getattr(CitySeeProfile, variant)()
        episode = len(parts) > 2 and parts[2] == "episode"
        if episode:
            profile = dataclasses.replace(profile, days=14.0)
        job = CitySeeJob(profile, episode=episode)
    else:
        scenario = TestbedScenario(parts[1] if len(parts) > 1 else "expansive")
        job = TestbedJob(scenario=scenario)
    report = run_jobs([job], n_workers=jobs)
    return report.frames()[0]


def _cmd_simulate_testbed(args: argparse.Namespace) -> int:
    from repro.traces.io import save_frame
    from repro.traces.testbed import TestbedScenario, generate_testbed_frame

    scenario = TestbedScenario(args.scenario)
    frame = generate_testbed_frame(
        scenario=scenario,
        seed=args.seed,
        duration_s=args.duration,
    )
    save_frame(frame, args.output, fmt=args.format)
    print(
        f"testbed trace: {len(frame)} snapshots, "
        f"delivery {frame.delivery_ratio():.3f} -> {args.output}"
    )
    return 0


def _cmd_simulate_citysee(args: argparse.Namespace) -> int:
    from repro.traces.citysee import CitySeeProfile, generate_citysee_frame
    from repro.traces.io import save_frame

    profile_factory = {
        "tiny": CitySeeProfile.tiny,
        "small": CitySeeProfile.small,
        "medium": CitySeeProfile.medium,
        "full": CitySeeProfile.full,
    }[args.profile]
    profile = profile_factory(seed=args.seed, days=args.days)
    frame = generate_citysee_frame(
        profile, episode=args.episode, use_cache=not args.no_cache
    )
    save_frame(frame, args.output, fmt=args.format)
    print(
        f"citysee trace ({args.profile}): {len(frame)} snapshots, "
        f"delivery {frame.delivery_ratio():.3f} -> {args.output}"
    )
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.core.pipeline import VN2, VN2Config

    frame = _resolve_trace(args.trace, args.format, jobs=args.jobs)
    config = VN2Config(
        rank=args.rank,
        filter_exceptions=not args.no_filter,
        retention=args.retention,
    )
    tool = VN2(config).fit(frame)
    tool.save(args.output)
    print(f"trained r={tool.rank_} model on {len(tool.states_)} states -> {args.output}")
    for label in tool.labels:
        flag = " [baseline]" if label.is_baseline else ""
        print(f"  Ψ{label.index + 1}: {label.primary_hazard or label.family}{flag}")
    if args.profile:
        # fit ends at Ψ; run one batch inference over the training states
        # so the NNLS stage shows up in the profile too.
        inference_states = (
            tool.exceptions_.states if tool.exceptions_ is not None
            else tool.states_
        )
        tool.correlation_strengths(inference_states)
        total = sum(tool.timings_.values())
        print("per-stage wall-clock:")
        for stage in ("states", "exceptions", "nmf", "sparsify", "nnls"):
            if stage in tool.timings_:
                seconds = tool.timings_[stage]
                print(f"  {stage:<10s} {seconds * 1000.0:8.1f} ms")
        print(f"  {'total':<10s} {total * 1000.0:8.1f} ms")
    return 0


def _cmd_diagnose(args: argparse.Namespace) -> int:
    from repro.core.states import build_states
    from repro.traces.io import load_frame

    tool = _load_model(args.model, "diagnose")
    if tool is None:
        return 1
    frame = load_frame(args.trace, fmt=args.format)
    if args.start is not None or args.end is not None:
        frame = frame.window(args.start or 0.0, args.end or float("inf"))
    states = build_states(frame)
    if len(states) == 0:
        print("no states in the requested window", file=sys.stderr)
        return 1
    reports = tool.diagnose_batch(states)
    shown = 0
    for i, report in enumerate(reports):
        if not report.ranked:
            continue
        node_id = int(states.node_ids[i])
        print(f"node {node_id} @ {states.times_to[i]:.0f}s: {report.summary()}")
        shown += 1
        if shown >= args.limit:
            break
    print(f"({shown} diagnoses shown of {len(states)} states)")
    return 0


def _event_json(event) -> str:
    import json

    from repro.service.protocol import incident_event_obj

    # The exact object the service's `event` messages carry, so a watch
    # log and a served event stream are comparable byte for byte.
    return json.dumps(incident_event_obj(event))


def _cmd_watch(args: argparse.Namespace) -> int:
    import contextlib
    import os
    import time as _time

    from repro.core.streaming import StreamingDiagnosisSession
    from repro.traces.io import read_frame_header, tail_frame_jsonl

    tool = _load_model(args.model, "watch")
    if tool is None:
        return 1

    # Wait for the trace file (and its header line) to appear — a live
    # writer may still be creating it when the watcher starts.
    deadline = (
        None if args.idle_timeout is None else _time.monotonic() + args.idle_timeout
    )
    while True:
        try:
            header = read_frame_header(args.trace, fmt="jsonl")
            break
        except (FileNotFoundError, ValueError):
            if not args.follow or (
                deadline is not None and _time.monotonic() >= deadline
            ):
                print(f"no readable trace at {args.trace}", file=sys.stderr)
                return 1
            _time.sleep(args.poll)

    positions = {
        int(k): tuple(v)
        for k, v in header.get("metadata", {}).get("positions", {}).items()
    } or None
    session = StreamingDiagnosisSession(
        tool,
        positions=positions,
        threshold_ratio=args.threshold,
        min_strength=args.min_strength,
        time_gap_s=args.time_gap,
        radius_m=args.radius,
    )

    output = args.output or os.environ.get("VN2_WATCH_LOG")
    log = open(output, "a", encoding="utf-8") if output else None

    def emit(events) -> None:
        for event in events:
            print(event.describe())
            if log is not None:
                log.write(_event_json(event) + "\n")
                log.flush()

    # --stats-every: one-line registry snapshot on stderr (stdout keeps
    # the event-line format; the JSONL log file is untouched).
    stats_every = getattr(args, "stats_every", None)
    stats_state = {"at": _time.monotonic(), "packets": 0}

    def maybe_stats() -> None:
        now = _time.monotonic()
        elapsed = now - stats_state["at"]
        if elapsed < stats_every:
            return
        counts = session.counters()
        # --stats-every 0 on a coarse clock can see elapsed == 0.0
        delta = counts["packets"] - stats_state["packets"]
        rate = delta / elapsed if elapsed > 0 else 0.0
        print(
            f"[stats] packets={counts['packets']} ({rate:.1f}/s) "
            f"states={counts['states']} exceptions={counts['exceptions']} "
            f"incidents open={counts['incidents_open']} "
            f"closed={counts['incidents_closed']}",
            file=sys.stderr,
        )
        stats_state["at"] = now
        stats_state["packets"] = counts["packets"]

    try:
        chunks = tail_frame_jsonl(
            args.trace,
            poll_s=args.poll,
            follow=args.follow,
            idle_timeout=args.idle_timeout,
        )
        with contextlib.suppress(KeyboardInterrupt):
            for chunk in chunks:
                emit(session.push_batch(chunk))
                if stats_every is not None:
                    maybe_stats()
        emit(session.finish())
    except ValueError as exc:
        # A line the tail refuses (a second header, a row without values).
        print(f"vn2 watch: {exc}", file=sys.stderr)
        return 1
    finally:
        if log is not None:
            log.close()
    closed = len(session.tracker.incidents)
    print(
        f"watched {session.n_packets} packets -> {session.n_states} states, "
        f"{session.n_exceptions} exceptions, {closed} incidents"
    )
    return 0


async def _serve_async(tool, config, ready_file: Optional[str]) -> int:
    import asyncio
    import json
    import signal

    from repro.service.server import DiagnosisService

    service = DiagnosisService(tool, config)
    await service.start()
    print(
        f"vn2 serve: ingest on {config.host}:{service.port}, "
        f"operator http on {config.host}:{service.http_port} "
        f"(backend: {service.backend.name})",
        flush=True,
    )
    if config.dashboard:
        print(
            f"vn2 serve: dashboard at "
            f"http://{config.host}:{service.http_port}/dashboard",
            flush=True,
        )
    if not await service.backend.wait_ready(timeout=60.0):
        print("vn2 serve: shard workers failed to become healthy",
              flush=True)
        await service.stop(drain=False)
        return 1
    if ready_file:
        # Ephemeral-port handshake for supervisors (the CI smoke uses
        # it).  Written only now — after every shard worker reported a
        # healthy heartbeat — so a supervisor that sees the file can
        # ingest immediately without racing worker startup.
        with open(ready_file, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "port": service.port,
                    "http_port": service.http_port,
                    "backend": service.backend.name,
                    "workers": service.backend.describe()["workers"],
                },
                fh,
            )
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, stop.set)
        except NotImplementedError:  # pragma: no cover - non-unix
            pass
    await stop.wait()
    print("vn2 serve: draining queues and flushing open incidents ...",
          flush=True)
    await service.stop(drain=True)
    totals = service.metrics_snapshot()["totals"]
    print(
        f"vn2 serve: drained; {totals['packets']} packets -> "
        f"{totals['states']} states, {totals['exceptions']} exceptions, "
        f"{totals['incidents_closed']} incidents across "
        f"{len(service.backend.deployments())} deployments",
        flush=True,
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service.server import ServiceConfig

    tool = _load_model(args.model, "serve")
    if tool is None:
        return 1
    positions = None
    if args.positions_from:
        from repro.traces.io import read_frame_header

        header = read_frame_header(args.positions_from)
        positions = {
            int(k): tuple(v)
            for k, v in header.get("metadata", {}).get("positions", {}).items()
        } or None
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        http_port=args.http_port,
        queue_size=args.queue_size,
        retry_after_s=args.retry_after,
        threshold_ratio=args.threshold,
        min_strength=args.min_strength,
        time_gap_s=args.time_gap,
        radius_m=args.radius,
        max_closed_incidents=(
            None if args.max_closed is None or args.max_closed < 0
            else args.max_closed
        ),
        positions=positions,
        workers=args.workers,
        refit_every_s=args.refit_every,
        drift_threshold=args.drift_threshold,
        refit_min_states=args.refit_min_states,
        dashboard=args.dashboard,
        dashboard_queue=args.dashboard_queue,
    )
    return asyncio.run(_serve_async(tool, config, args.ready_file))


def _cmd_dashboard(args: argparse.Namespace) -> int:
    import json

    from repro.service.client import http_get_json

    path = "/api/topology"
    if args.deployment:
        path += f"?deployment={args.deployment}"
    try:
        doc = http_get_json(args.host, args.http_port, path,
                            timeout=args.timeout)
    except ConnectionError as exc:
        print(f"vn2 dashboard: {exc}", file=sys.stderr)
        print(
            "hint: is the sink running with --dashboard? "
            f"(vn2 serve <model> --dashboard --http-port {args.http_port})",
            file=sys.stderr,
        )
        return 1
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    server = doc["server"]
    print(
        f"sink: backend={server['backend']} "
        f"model={server['model_version']} up={server['uptime_s']}s "
        f"(browser view: http://{args.host}:{args.http_port}/dashboard)"
    )
    if not doc["deployments"]:
        print("no deployments materialized yet")
        return 0
    for name, dep in sorted(doc["deployments"].items()):
        nodes, edges = dep["nodes"], dep["edges"]
        exceptions = sum(1 for n in nodes if n["exception"])
        print(
            f"\ndeployment {name}: {len(nodes)} nodes, "
            f"{len(edges)} tree edges, {exceptions} in exception, "
            f"{len(dep['incidents_open'])} open incidents "
            f"({dep['incidents_closed_total']} closed total)"
        )
        hops: dict = {}
        for n in nodes:
            hop = "?" if n["hop"] is None else int(round(n["hop"]))
            hops[hop] = hops.get(hop, 0) + 1
        ring = "  ".join(
            f"hop {h}: {hops[h]}"
            for h in sorted(hops, key=lambda v: (isinstance(v, str), v))
        )
        print(f"  rings: {ring}")
        for inc in dep["incidents_open"]:
            nodes_s = ",".join(str(i) for i in inc["node_ids"])
            print(
                f"  OPEN {inc['hazard']}: nodes [{nodes_s}] "
                f"peak={inc['peak_strength']:.2f} "
                f"obs={inc['n_observations']} "
                f"t={inc['start']:.0f}..{inc['end']:.0f}"
            )
        worst = [
            n for n in nodes
            if n["hazard"] is not None and not n["exception"]
        ]
        for n in sorted(
            worst, key=lambda n: -(n["strength"] or 0.0)
        )[:5]:
            print(
                f"  last-hazard node {n['node_id']}: {n['hazard']} "
                f"(strength {n['strength']:.2f})"
            )
    return 0


def _cmd_model_info(args: argparse.Namespace) -> int:
    tool = _load_model(args.model, "model info")
    if tool is None:
        return 1
    meta = tool._sidecar_meta()
    norm = meta.get("normalizer") or {}
    stats = (
        f"mean/std over {tool._train_mean.shape[0]} metrics, "
        f"max_eps={tool._train_max_eps:.4f}"
    )
    print(f"model: {args.model}")
    print(f"  model_version: {tool.model_version}")
    print(f"  rank: {meta['rank']}")
    print(
        f"  normalizer: {norm.get('method')} "
        f"(robust_quantile={norm.get('robust_quantile')})"
    )
    print(f"  train stats: {stats}")
    print(
        f"  W: {tool.nmf_.W.shape}  Psi: {tool.nmf_.Psi.shape}  "
        f"W_sparse: {tool.sparsify_.W_sparse.shape}"
    )
    for label in tool.labels:
        flag = " [baseline]" if label.is_baseline else ""
        print(f"  Ψ{label.index + 1}: {label.primary_hazard or label.family}{flag}")
    return 0


def _cmd_model_diff(args: argparse.Namespace) -> int:
    import numpy as np

    a = _load_model(args.model_a, "model diff")
    b = _load_model(args.model_b, "model diff")
    if a is None or b is None:
        return 1
    print(f"a: {args.model_a} ({a.model_version})")
    print(f"b: {args.model_b} ({b.model_version})")
    if a.model_version == b.model_version:
        print("identical (same model_version)")
        return 0

    def flatten(doc, prefix=""):
        flat = {}
        for key, value in doc.items():
            name = f"{prefix}{key}"
            if isinstance(value, dict):
                flat.update(flatten(value, f"{name}."))
            else:
                flat[name] = value
        return flat

    meta_a, meta_b = flatten(a._sidecar_meta()), flatten(b._sidecar_meta())
    for key in sorted(set(meta_a) | set(meta_b)):
        va, vb = meta_a.get(key), meta_b.get(key)
        if va != vb:
            print(f"  meta {key}: {va!r} -> {vb!r}")
    arrays_a, arrays_b = a._payload_arrays(), b._payload_arrays()
    for name in sorted(arrays_a):
        arr_a, arr_b = arrays_a[name], arrays_b[name]
        if arr_a.shape != arr_b.shape:
            print(f"  array {name}: shape {arr_a.shape} -> {arr_b.shape}")
        elif not np.array_equal(arr_a, arr_b):
            delta = float(np.max(np.abs(arr_a - arr_b)))
            print(f"  array {name}: max |delta| = {delta:.3e}")
    return 1


def _cmd_model_rotate(args: argparse.Namespace) -> int:
    import os

    from repro.service.client import http_post_json

    path = os.path.abspath(args.model)
    try:
        result = http_post_json(
            args.host, args.http_port, "/model", {"path": path},
            timeout=args.timeout,
        )
    except (ConnectionError, OSError) as exc:
        print(f"vn2 model rotate: {exc}", file=sys.stderr)
        return 1
    print(f"rotated {result['previous']} -> {result['model_version']}")
    for name, boundary in sorted((result.get("boundaries") or {}).items()):
        print(
            f"  {name}: boundary at {boundary['packets']} packets / "
            f"{boundary['states']} states"
        )
    return 0


def _cmd_incidents(args: argparse.Namespace) -> int:
    from repro.analysis.performance import estimate_cause_costs
    from repro.core.incidents import incidents_from_frame
    from repro.core.pipeline import VN2, VN2Config
    from repro.traces.io import load_frame

    trace = load_frame(args.trace, fmt=args.format)
    tool = VN2(VN2Config(rank=args.rank)).fit(trace)
    incidents = incidents_from_frame(
        tool, trace, min_observations=args.min_observations
    )
    if not incidents:
        print("no incidents found")
    for rank, incident in enumerate(incidents[: args.limit], start=1):
        print(f"{rank}. {incident.describe()}")
    if args.costs:
        try:
            model = estimate_cause_costs(tool, trace)
            print()
            print(model.to_text())
        except ValueError as exc:
            print(f"(cost model unavailable: {exc})")
    return 0


def _cmd_node_report(args: argparse.Namespace) -> int:
    from repro.analysis.node_report import node_health_report
    from repro.core.pipeline import VN2, VN2Config
    from repro.traces.io import load_frame

    trace = load_frame(args.trace, fmt=args.format)
    tool = VN2(VN2Config(rank=args.rank)).fit(trace)
    report = node_health_report(tool, trace)
    print(report.to_text(limit=args.limit))
    unhealthy = [h.node_id for h in report.nodes if not h.healthy]
    print(
        f"\n{len(report.nodes)} nodes; "
        f"{len(unhealthy)} need attention: {unhealthy[:20]}"
    )
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.analysis.evaluation import evaluate_diagnoses, threshold_sweep
    from repro.core.pipeline import VN2, VN2Config

    trace = _resolve_trace(args.trace, args.format, jobs=args.jobs)
    if not trace.ground_truth:
        print("trace has no ground-truth fault schedule; nothing to score",
              file=sys.stderr)
        return 1
    tool = VN2(VN2Config(rank=args.rank)).fit(trace)
    result = evaluate_diagnoses(tool, trace, min_strength=args.min_strength)
    print(result.to_text())
    if args.sweep:
        print("\nthreshold sweep (threshold, precision, recall):")
        for threshold, precision, recall in threshold_sweep(tool, trace):
            print(f"  {threshold:.2f}  P={precision:.2f}  R={recall:.2f}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    name = args.name
    if name == "table1":
        from repro.analysis.table1 import exp_table1

        result = exp_table1(quick=args.quick)
        print(result.to_text())
        return 0 if result.all_passed else 1
    if name == "baselines":
        from repro.analysis.baseline_comparison import exp_baselines

        print(exp_baselines().to_text())
        return 0
    if name in ("fig5b", "fig5g", "fig5h", "fig5i", "fig5hi"):
        from repro.analysis.testbed_experiments import (
            exp_fig5b,
            exp_fig5g,
            exp_fig5hi,
            exp_fig5hi_both,
            generate_scenario_frames,
        )
        from repro.traces.testbed import TestbedScenario

        if name in ("fig5b", "fig5g"):
            trace = generate_scenario_frames(
                [TestbedScenario.EXPANSIVE], seed=args.seed, jobs=args.jobs
            )[TestbedScenario.EXPANSIVE]
            fig5b = exp_fig5b(trace)
            if name == "fig5b":
                print(fig5b.to_text())
            else:
                print(exp_fig5g(fig5b.tool, trace).to_text())
        elif name == "fig5hi":
            results = exp_fig5hi_both(seed=args.seed, jobs=args.jobs)
            for result in results.values():
                print(result.to_text(), "\n")
        else:
            scenario = (
                TestbedScenario.LOCAL if name == "fig5h" else TestbedScenario.EXPANSIVE
            )
            print(exp_fig5hi(scenario, seed=args.seed, jobs=args.jobs).to_text())
        return 0
    if name in ("fig3a", "fig3b", "fig3c", "fig4", "fig6", "ablation-filter",
                "ablation-sparsify", "ablation-suite"):
        from repro.traces.citysee import CitySeeProfile, generate_citysee_frame

        profile = {
            "tiny": CitySeeProfile.tiny,
            "small": CitySeeProfile.small,
            "medium": CitySeeProfile.medium,
            "full": CitySeeProfile.full,
        }[args.profile](seed=args.seed)
        if name == "fig6":
            from repro.analysis.citysee_experiments import run_citysee_study

            _tool, _trace, f6a, f6b, f6c = run_citysee_study(
                profile, jobs=args.jobs
            )
            print(f6a.to_text(), "\n")
            print(f6b.to_text(), "\n")
            print(f6c.to_text())
            return 0
        if name == "ablation-suite":
            from repro.analysis.ablations import exp_ablation_suite

            print(
                exp_ablation_suite(
                    profile, n_seeds=args.n_seeds, jobs=args.jobs
                ).to_text()
            )
            return 0
        trace = generate_citysee_frame(profile, episode=False)
        if name == "fig3a":
            from repro.analysis.figures34 import exp_fig3a

            print(exp_fig3a(trace).to_text())
        elif name == "fig3b":
            from repro.analysis.figures34 import exp_fig3b

            print(exp_fig3b(trace).to_text())
        elif name == "fig3c":
            from repro.analysis.figures34 import exp_fig3c

            print(exp_fig3c(trace).to_text())
        elif name == "fig4":
            from repro.analysis.figures34 import exp_fig3c, exp_fig4

            fig3c = exp_fig3c(trace)
            print(exp_fig4(fig3c.tool).to_text())
        elif name == "ablation-filter":
            from repro.analysis.ablations import exp_ablation_filter

            print(exp_ablation_filter(trace).to_text())
        elif name == "ablation-sparsify":
            from repro.analysis.ablations import exp_ablation_sparsify

            print(exp_ablation_sparsify(trace).to_text())
        return 0
    print(f"unknown experiment {name!r}", file=sys.stderr)
    return 2


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.analysis.evaluation import evaluate_seed_sweep
    from repro.traces.citysee import CitySeeProfile

    if args.suite == "chaos":
        from repro.analysis.scorecard import run_chaos_suite

        suite = run_chaos_suite(
            seed=args.seed,
            scale=args.profile,
            jobs=args.jobs,
            use_cache=not args.no_cache,
            min_strength=args.min_strength,
        )
        if suite.run_report is not None:
            print(suite.run_report.to_text())
            print()
            if args.timings:
                suite.run_report.write_timings(args.timings)
        print(suite.to_text())
        return 0 if suite.ok else 1

    profile = {
        "tiny": CitySeeProfile.tiny,
        "small": CitySeeProfile.small,
        "medium": CitySeeProfile.medium,
        "full": CitySeeProfile.full,
    }[args.profile](seed=args.seed)
    result = evaluate_seed_sweep(
        profile,
        n_seeds=args.n_seeds,
        rank=args.rank,
        min_strength=args.min_strength,
        jobs=args.jobs,
        use_cache=not args.no_cache,
    )
    if result.run_report is not None:
        print(result.run_report.to_text())
        print()
        if args.timings:
            result.run_report.write_timings(args.timings)
    print(result.to_text())
    return 0


def _chaos_preset_names(arg: str) -> List[str]:
    from repro.chaos.presets import PRESET_NAMES, PRESETS

    if arg == "all":
        return list(PRESET_NAMES)
    names = [n.strip() for n in arg.split(",") if n.strip()]
    for name in names:
        if name not in PRESETS:
            raise SystemExit(
                f"unknown preset {name!r}; available: "
                f"{', '.join(PRESET_NAMES)} (or 'all')"
            )
    return names


def _cmd_chaos_list(args: argparse.Namespace) -> int:
    from repro.analysis.reporting import format_table
    from repro.chaos.presets import PRESETS

    rows = []
    for info in PRESETS.values():
        scenario = info.build(seed=args.seed, scale=args.scale)
        floors = ", ".join(
            f"{family}>={floor:.2f}"
            for family, floor in sorted(info.gate_floors.items())
        )
        rows.append(
            (
                info.name,
                info.description,
                ",".join(scenario.families()),
                len(scenario.faults),
                floors,
            )
        )
    print(format_table(
        ["preset", "description", "families", "faults", "gate floors"], rows
    ))
    return 0


def _cmd_chaos_run(args: argparse.Namespace) -> int:
    from repro.runner import chaos_preset_jobs, run_jobs
    from repro.traces.io import save_frame

    names = _chaos_preset_names(args.preset)
    jobs = chaos_preset_jobs(names, seed=args.seed, scale=args.scale)
    report = run_jobs(jobs, n_workers=args.jobs, use_cache=not args.no_cache)
    print(report.to_text())
    if not report.ok:
        for result in report.errors():
            print(result.error, file=sys.stderr)
        return 1
    for job, result in zip(jobs, report.results):
        frame = result.frame()
        print(
            f"{job.scenario.name}: {len(frame)} snapshots, "
            f"delivery {frame.delivery_ratio():.3f}, "
            f"{len(frame.ground_truth)} ground-truth episodes"
        )
    if args.output:
        if len(jobs) != 1:
            print("--output needs exactly one preset", file=sys.stderr)
            return 2
        save_frame(report.results[0].frame(), args.output, fmt=args.format)
        print(f"trace -> {args.output}")
    return 0


def _cmd_chaos_score(args: argparse.Namespace) -> int:
    import json as _json
    from pathlib import Path

    from repro.analysis.scorecard import run_chaos_suite

    names = _chaos_preset_names(args.preset)
    suite = run_chaos_suite(
        names,
        seed=args.seed,
        scale=args.scale,
        jobs=args.jobs,
        use_cache=not args.no_cache,
        min_strength=args.min_strength,
        gate=args.gate,
    )
    if suite.run_report is not None:
        print(suite.run_report.to_text())
        print()
    print(suite.to_text())
    if args.json:
        path = Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(_json.dumps(suite.to_json_dict(), indent=2) + "\n")
        print(f"scorecard -> {path}")
    return 0 if (suite.ok or not args.gate) else 1


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs import Tracer, set_tracer

    command = list(args.cmd)
    if command and command[0] == "--":
        command = command[1:]
    if not command:
        print("vn2 profile: give a subcommand to run, e.g. "
              "vn2 profile train citysee:tiny", file=sys.stderr)
        return 2
    if command[0] == "profile":
        print("vn2 profile: cannot profile itself", file=sys.stderr)
        return 2

    tracer = Tracer(enabled=True, capture_alloc=args.alloc)
    previous = set_tracer(tracer)
    try:
        try:
            with tracer.span("vn2 " + command[0], argv=command[1:]):
                code = main(command)
        except SystemExit as exc:  # argparse errors inside the subcommand
            code = exc.code if isinstance(exc.code, int) else 1
    finally:
        set_tracer(previous)

    print()
    print(f"profile: vn2 {' '.join(command)}")
    print(tracer.render(max_depth=args.max_depth))
    print()
    print(tracer.top_table(args.top))
    if args.output:
        tracer.export_jsonl(args.output)
        print(f"spans -> {args.output}")
    return code


def _cmd_stats(args: argparse.Namespace) -> int:
    import json as _json
    from urllib.request import urlopen

    url = f"http://{args.host}:{args.port}/metrics"
    if args.prometheus:
        url += "?format=prometheus"
    try:
        with urlopen(url, timeout=args.timeout) as response:
            body = response.read().decode("utf-8")
    except OSError as exc:
        print(f"vn2 stats: cannot reach {url}: {exc}", file=sys.stderr)
        return 1
    if args.prometheus or args.as_json:
        print(body, end="" if body.endswith("\n") else "\n")
        return 0
    doc = _json.loads(body)
    server = doc["server"]
    print(
        f"server: {server['deployments']} deployments, "
        f"uptime {server['uptime_s']}s, "
        f"queue_size {server['queue_size']}, "
        f"protocol v{server['protocol_version']}"
    )
    print("totals:")
    for key, value in doc["totals"].items():
        print(f"  {key:<22s} {value}")
    for name, shard in doc["deployments"].items():
        latency = shard.get("ingest_latency") or {}
        print(
            f"deployment {name}: "
            f"packets={shard['packets']} states={shard['states']} "
            f"exceptions={shard['exceptions']} "
            f"open={shard['incidents_open']} "
            f"closed={shard['incidents_closed']} "
            f"queue={shard['queue_depth_packets']} "
            f"p50={latency.get('p50_ms')}ms p99={latency.get('p99_ms')}ms"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests)."""
    import repro

    parser = argparse.ArgumentParser(
        prog="vn2",
        description="VN2: NMF-based root-cause diagnosis for sensor networks",
    )
    parser.add_argument(
        "--version", action="version", version=f"vn2 {repro.__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format_option(p: argparse.ArgumentParser, verb: str) -> None:
        p.add_argument(
            "--format", choices=["jsonl", "npz"], default=None,
            help=f"trace codec to {verb} (default: inferred from extension)",
        )

    def add_jobs_option(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--jobs", type=int, default=1, metavar="N",
            help="process-pool workers for independent simulator runs "
                 "(1 = serial; output is bit-identical either way)",
        )

    p = sub.add_parser("simulate-testbed", help="run the 45-node testbed experiment")
    p.add_argument("--scenario", choices=["local", "expansive"], default="expansive")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--duration", type=float, default=7200.0)
    p.add_argument("--output", default="testbed_trace.jsonl")
    add_format_option(p, "save with")
    p.set_defaults(func=_cmd_simulate_testbed)

    p = sub.add_parser("simulate-citysee", help="run a CitySee-like deployment")
    p.add_argument("--profile", choices=["tiny", "small", "medium", "full"],
                   default="small")
    p.add_argument("--days", type=float, default=3.0)
    p.add_argument("--seed", type=int, default=2011)
    p.add_argument("--episode", action="store_true",
                   help="include the PRR-degradation episode")
    p.add_argument("--no-cache", action="store_true")
    p.add_argument("--output", default="citysee_trace.jsonl")
    add_format_option(p, "save with")
    p.set_defaults(func=_cmd_simulate_citysee)

    p = sub.add_parser("train", help="fit a VN2 model from a saved trace")
    p.add_argument("trace",
                   help="trace path, or a generator spec such as "
                        "citysee:small, citysee:small:episode, "
                        "testbed:expansive")
    p.add_argument("--rank", type=int, default=None,
                   help="compression factor r (default: automatic)")
    p.add_argument("--no-filter", action="store_true",
                   help="skip the exception filter (testbed-style training)")
    p.add_argument("--retention", type=float, default=0.9)
    p.add_argument("--output", default="vn2_model")
    p.add_argument("--profile", action="store_true",
                   help="print per-stage wall-clock "
                        "(states/exceptions/NMF/sparsify/NNLS)")
    add_format_option(p, "load")
    add_jobs_option(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("diagnose", help="diagnose a saved trace with a model")
    p.add_argument("model")
    p.add_argument("trace")
    p.add_argument("--start", type=float, default=None)
    p.add_argument("--end", type=float, default=None)
    p.add_argument("--limit", type=int, default=20)
    add_format_option(p, "load")
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser(
        "watch",
        help="tail a growing JSONL trace with a saved model, streaming "
             "incident open/update/close events",
    )
    p.add_argument("trace", help="JSONL trace file (may still be growing)")
    p.add_argument("--model", required=True,
                   help="saved model path (from vn2 train)")
    p.add_argument("--follow", dest="follow", action="store_true", default=True,
                   help="keep polling for growth after EOF (default)")
    p.add_argument("--no-follow", dest="follow", action="store_false",
                   help="read what is there and exit")
    p.add_argument("--poll", type=float, default=0.5, metavar="SECONDS",
                   help="poll interval while waiting for new data")
    p.add_argument("--idle-timeout", type=float, default=None, metavar="SECONDS",
                   help="exit after this long without new data "
                        "(default: follow forever)")
    p.add_argument("--output", default=None, metavar="FILE",
                   help="append incident events as JSON lines "
                        "(default: $VN2_WATCH_LOG if set)")
    p.add_argument("--threshold", type=float, default=None,
                   help="exception-screen ratio (default: model config)")
    p.add_argument("--min-strength", type=float, default=0.2)
    p.add_argument("--time-gap", type=float, default=600.0, metavar="SECONDS",
                   help="incident gap expiry")
    p.add_argument("--radius", type=float, default=60.0, metavar="METERS",
                   help="incident spatial merge radius")
    p.add_argument("--stats-every", type=float, default=None, metavar="SECONDS",
                   help="print a one-line counters snapshot to stderr every "
                        "N seconds (stdout event format is unchanged)")
    p.set_defaults(func=_cmd_watch)

    p = sub.add_parser(
        "serve",
        help="run the diagnosis sink server: packets in over TCP, "
             "incident events and operator metrics out",
    )
    p.add_argument("model", help="saved model path (from vn2 train)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7433,
                   help="TCP ingest/subscribe port (0 = ephemeral)")
    p.add_argument("--http-port", type=int, default=7434,
                   help="operator HTTP port for /health /metrics /incidents "
                        "(0 = ephemeral)")
    p.add_argument("--queue-size", type=int, default=8192, metavar="PACKETS",
                   help="per-deployment ingest queue bound; a batch that "
                        "would exceed it is backpressured, never dropped")
    p.add_argument("--retry-after", type=float, default=0.05, metavar="SECONDS",
                   help="retry hint sent with a backpressure ack")
    p.add_argument("--threshold", type=float, default=None,
                   help="exception-screen ratio (default: model config)")
    p.add_argument("--min-strength", type=float, default=0.2)
    p.add_argument("--time-gap", type=float, default=600.0, metavar="SECONDS",
                   help="incident gap expiry")
    p.add_argument("--radius", type=float, default=60.0, metavar="METERS",
                   help="incident spatial merge radius")
    p.add_argument("--max-closed", type=int, default=10000, metavar="N",
                   help="closed incidents retained per deployment "
                        "(-1 = unlimited)")
    p.add_argument("--positions-from", default=None, metavar="TRACE",
                   help="trace file whose header supplies node positions "
                        "for spatial incident clustering")
    p.add_argument("--workers", type=int, default=0, metavar="N",
                   help="shard worker processes; 0 (default) diagnoses "
                        "on the server's event loop, N>=1 forks N workers "
                        "and routes deployments over them by consistent "
                        "hashing (--workers 1 forks one worker)")
    p.add_argument("--ready-file", default=None, metavar="FILE",
                   help="write the bound ports as JSON once listening and "
                        "every shard worker is heartbeating "
                        "(for supervisors using --port 0)")
    p.add_argument("--refit-every", type=float, default=None,
                   metavar="SECONDS",
                   help="arm background refits: every N seconds drain the "
                        "shards' retained exception states and, when the "
                        "trigger fires, absorb them into a refitted model "
                        "and rotate it in with zero downtime")
    p.add_argument("--drift-threshold", type=float, default=None,
                   help="only refit once some shard's drift score (mean "
                        "relative NNLS residual) reaches this value "
                        "(default: refit whenever enough states retained)")
    p.add_argument("--refit-min-states", type=int, default=32, metavar="N",
                   help="minimum retained exception states before a "
                        "scheduled refit is attempted")
    p.add_argument("--dashboard", action="store_true",
                   help="serve the live dashboard: GET /dashboard (HTML), "
                        "/api/topology, /api/series and the "
                        "/api/incidents/stream SSE feed")
    p.add_argument("--dashboard-queue", type=int, default=256,
                   metavar="FRAMES",
                   help="SSE frames buffered per dashboard client; a "
                        "client that falls this far behind is evicted so "
                        "it can never backpressure ingest")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "dashboard",
        help="fetch a running sink's /api/topology and print a terminal "
             "summary (the browser view lives at http://host:port/dashboard)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--http-port", type=int, default=7434,
                   help="the sink's operator HTTP port")
    p.add_argument("--deployment", default=None,
                   help="limit the view to one deployment")
    p.add_argument("--json", action="store_true",
                   help="print the raw /api/topology JSON document")
    p.add_argument("--timeout", type=float, default=10.0, metavar="SECONDS")
    p.set_defaults(func=_cmd_dashboard)

    p = sub.add_parser(
        "model",
        help="inspect, compare and rotate saved VN2 models",
    )
    model_sub = p.add_subparsers(dest="model_command", required=True)
    q = model_sub.add_parser(
        "info",
        help="print a saved model's version hash, rank, train stats and "
             "root-cause labels",
    )
    q.add_argument("model", help="saved model path (from vn2 train)")
    q.set_defaults(func=_cmd_model_info)
    q = model_sub.add_parser(
        "diff",
        help="compare two saved models; exit 1 (after printing the "
             "differing meta/arrays) when they differ",
    )
    q.add_argument("model_a")
    q.add_argument("model_b")
    q.set_defaults(func=_cmd_model_diff)
    q = model_sub.add_parser(
        "rotate",
        help="rotate a running sink to a saved model with zero downtime "
             "(POST /model on the operator port)",
    )
    q.add_argument("model", help="saved model path, resolved server-side")
    q.add_argument("--host", default="127.0.0.1")
    q.add_argument("--http-port", type=int, default=7434,
                   help="the sink's operator HTTP port")
    q.add_argument("--timeout", type=float, default=60.0, metavar="SECONDS")
    q.set_defaults(func=_cmd_model_rotate)

    p = sub.add_parser(
        "incidents",
        help="train on a trace and print network-level incidents",
    )
    p.add_argument("trace")
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--min-observations", type=int, default=2)
    p.add_argument("--limit", type=int, default=10)
    p.add_argument("--costs", action="store_true",
                   help="also fit and print the per-cause PRR cost model")
    add_format_option(p, "load")
    p.set_defaults(func=_cmd_incidents)

    p = sub.add_parser(
        "node-report",
        help="per-node health summary of a trace",
    )
    p.add_argument("trace")
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--limit", type=int, default=10)
    add_format_option(p, "load")
    p.set_defaults(func=_cmd_node_report)

    p = sub.add_parser(
        "evaluate",
        help="score a trace's diagnoses against its fault schedule",
    )
    p.add_argument("trace")
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--min-strength", type=float, default=0.2)
    p.add_argument("--sweep", action="store_true",
                   help="also print the threshold operating curve")
    add_format_option(p, "load")
    add_jobs_option(p)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("experiment", help="run one of the paper's harnesses")
    p.add_argument(
        "name",
        choices=[
            "table1", "fig3a", "fig3b", "fig3c", "fig4", "fig5b", "fig5g",
            "fig5h", "fig5i", "fig5hi", "fig6", "ablation-filter",
            "ablation-sparsify", "ablation-suite", "baselines",
        ],
    )
    p.add_argument("--profile", choices=["tiny", "small", "medium", "full"],
                   default="small")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--quick", action="store_true")
    p.add_argument("--n-seeds", type=int, default=2,
                   help="seed-sweep width for ablation-suite")
    add_jobs_option(p)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser(
        "sweep",
        help="multi-seed CitySee sweep through the parallel runner, "
             "scored against ground truth",
    )
    p.add_argument("--suite", choices=["seeds", "chaos"], default="seeds",
                   help="'seeds': multi-seed CitySee sweep; 'chaos': the "
                        "chaos preset suite with per-family gates")
    p.add_argument("--profile", choices=["tiny", "small", "medium", "full"],
                   default="small")
    p.add_argument("--seed", type=int, default=2011)
    p.add_argument("--n-seeds", type=int, default=4)
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--min-strength", type=float, default=0.2)
    p.add_argument("--no-cache", action="store_true")
    p.add_argument("--timings", default=None, metavar="FILE",
                   help="write per-job timing JSON (CI artifact format)")
    add_jobs_option(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "chaos",
        help="chaos scenario engine: composable fault presets and the "
             "per-fault-family accuracy scorecard",
    )
    chaos_sub = p.add_subparsers(dest="chaos_command", required=True)

    def add_chaos_selection(q: argparse.ArgumentParser) -> None:
        q.add_argument("--preset", default="all", metavar="NAME",
                       help="preset name, comma list, or 'all' "
                            "(see 'vn2 chaos list')")
        q.add_argument("--seed", type=int, default=2011)
        q.add_argument("--scale", choices=["tiny", "small", "medium", "full"],
                       default="tiny")

    q = chaos_sub.add_parser("list", help="show the preset library")
    q.add_argument("--seed", type=int, default=2011)
    q.add_argument("--scale", choices=["tiny", "small", "medium", "full"],
                   default="tiny")
    q.set_defaults(func=_cmd_chaos_list)

    q = chaos_sub.add_parser(
        "run", help="run chaos presets through the process pool"
    )
    add_chaos_selection(q)
    q.add_argument("--no-cache", action="store_true")
    q.add_argument("--output", default=None, metavar="FILE",
                   help="save the trace (single preset only)")
    add_format_option(q, "save with")
    add_jobs_option(q)
    q.set_defaults(func=_cmd_chaos_run)

    q = chaos_sub.add_parser(
        "score",
        help="fit + score presets with the per-family scorecard",
    )
    add_chaos_selection(q)
    q.add_argument("--min-strength", type=float, default=0.2)
    q.add_argument("--no-cache", action="store_true")
    q.add_argument("--json", default=None, metavar="FILE",
                   help="write the scorecard JSON (CI artifact format)")
    q.add_argument("--gate", action="store_true",
                   help="exit non-zero if any preset's family detection "
                        "rate is below its floor")
    add_jobs_option(q)
    q.set_defaults(func=_cmd_chaos_score)

    p = sub.add_parser(
        "profile",
        help="run any vn2 subcommand under the span tracer; print its "
             "span tree and hot-spot table",
    )
    p.add_argument("cmd", nargs=argparse.REMAINDER, metavar="command...",
                   help="the subcommand to run, e.g. train citysee:tiny "
                        "(profile options must come before it)")
    p.add_argument("--top", type=int, default=15, metavar="N",
                   help="rows in the hot-spot table")
    p.add_argument("--max-depth", type=int, default=None, metavar="D",
                   help="truncate the span tree below this depth")
    p.add_argument("--alloc", action="store_true",
                   help="also capture tracemalloc peak allocations (slower)")
    p.add_argument("--output", default=None, metavar="FILE",
                   help="write the spans as JSONL (one span per line)")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser(
        "stats",
        help="fetch and print a running service's /metrics",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7434,
                   help="the service's operator HTTP port")
    p.add_argument("--prometheus", action="store_true",
                   help="print the raw Prometheus text exposition")
    p.add_argument("--json", dest="as_json", action="store_true",
                   help="print the raw JSON document")
    p.add_argument("--timeout", type=float, default=5.0, metavar="SECONDS")
    p.set_defaults(func=_cmd_stats)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
