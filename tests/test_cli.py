"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


def test_parser_builds():
    parser = build_parser()
    args = parser.parse_args(["simulate-testbed", "--seed", "3"])
    assert args.seed == 3


def test_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_version_flag(capsys):
    import repro

    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == f"vn2 {repro.__version__}"
    # Single-sourced: the CLI reports exactly the package's version.
    assert repro.__version__.count(".") == 2


def test_serve_parser_defaults():
    args = build_parser().parse_args(["serve", "model"])
    assert args.model == "model"
    assert (args.host, args.port, args.http_port) == ("127.0.0.1", 7433, 7434)
    assert args.queue_size == 8192
    assert args.retry_after == pytest.approx(0.05)
    assert args.max_closed == 10000
    assert args.ready_file is None


def test_serve_parser_accepts_tuned_knobs():
    args = build_parser().parse_args([
        "serve", "model", "--port", "0", "--http-port", "0",
        "--queue-size", "128", "--retry-after", "0.01",
        "--time-gap", "300", "--radius", "45", "--max-closed", "-1",
        "--ready-file", "ports.json",
    ])
    assert args.queue_size == 128
    assert args.max_closed == -1  # mapped to unlimited by _cmd_serve
    assert args.ready_file == "ports.json"


def _model_argv(verb, model, good):
    """``vn2 <verb>`` argv loading ``model`` (``good`` is a loadable save
    for the verbs that take two)."""
    return {
        "watch": ["watch", "trace.jsonl", "--model", model, "--no-follow"],
        "serve": ["serve", model, "--port", "0", "--http-port", "0"],
        "diagnose": ["diagnose", model, "trace.jsonl"],
        "model info": ["model", "info", model],
        "model diff": ["model", "diff", good, model],
    }[verb]


@pytest.mark.parametrize("defect", ["missing", "tampered"])
@pytest.mark.parametrize(
    "verb", ["watch", "serve", "diagnose", "model info", "model diff"]
)
def test_model_load_refusal_is_one_line(tmp_path, capsys, testbed_tool,
                                        verb, defect):
    """Every verb that loads a model turns a refused load into one line
    on stderr, ``vn2 <verb>: <reason>``, and exit code 1, before it
    touches a trace or a socket."""
    import numpy as np

    good = tmp_path / "good"
    testbed_tool.save(good)
    model = tmp_path / "model"
    if defect == "tampered":
        testbed_tool.save(model)
        with np.load(model.with_suffix(".npz")) as arrays:
            payload = {name: arrays[name] for name in arrays.files}
        payload["W"] = payload["W"] * 1.5
        np.savez_compressed(model.with_suffix(".npz"), **payload)
    assert main(_model_argv(verb, str(model), str(good))) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"vn2 {verb}: ")
    assert captured.err.count("\n") == 1
    assert ("No such file" if defect == "missing" else "hashes to") in captured.err
    assert str(model) in captured.err


def test_simulate_train_diagnose_flow(tmp_path, capsys):
    trace_path = tmp_path / "trace.jsonl"
    rc = main([
        "simulate-testbed", "--seed", "3", "--duration", "2400",
        "--output", str(trace_path),
    ])
    assert rc == 0
    assert trace_path.exists()

    model_path = tmp_path / "model"
    rc = main([
        "train", str(trace_path), "--rank", "6", "--no-filter",
        "--output", str(model_path),
    ])
    assert rc == 0
    assert model_path.with_suffix(".npz").exists()
    assert model_path.with_suffix(".json").exists()
    sidecar = json.loads(model_path.with_suffix(".json").read_text())
    assert sidecar["rank"] == 6

    rc = main([
        "diagnose", str(model_path), str(trace_path), "--limit", "5",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "diagnoses shown" in out


def test_incidents_command(tmp_path, capsys):
    from repro.analysis.baseline_comparison import build_multicause_frame
    from repro.traces.io import save_frame_jsonl

    trace_path = tmp_path / "mc.jsonl"
    save_frame_jsonl(build_multicause_frame(seed=21), trace_path)
    rc = main(["incidents", str(trace_path), "--rank", "10", "--limit", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "nodes" in out or "no incidents" in out


def test_evaluate_command(tmp_path, capsys):
    from repro.analysis.baseline_comparison import build_multicause_frame
    from repro.traces.io import save_frame_jsonl

    trace_path = tmp_path / "mc.jsonl"
    save_frame_jsonl(build_multicause_frame(seed=21), trace_path)
    rc = main(["evaluate", str(trace_path), "--rank", "10"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "micro:" in out


def test_evaluate_rejects_gt_free_trace(tmp_path, capsys):
    from repro.simnet.network import Network, NetworkConfig
    from repro.simnet.topology import grid_topology
    from repro.traces.frame import frame_from_network
    from repro.traces.io import save_frame_jsonl

    net = Network(grid_topology(rows=3, cols=3, spacing=9.0),
                  NetworkConfig(report_period_s=60.0, seed=1,
                                max_range_m=40.0))
    net.run(600.0)
    trace_path = tmp_path / "clean.jsonl"
    save_frame_jsonl(frame_from_network(net), trace_path)
    rc = main(["evaluate", str(trace_path)])
    assert rc == 1


def test_experiment_table1_quick(capsys):
    rc = main(["experiment", "table1", "--quick"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "routing_loop" in out


def test_experiment_unknown_rejected():
    with pytest.raises(SystemExit):
        main(["experiment", "not-a-thing"])


def test_experiment_fig3a_tiny(capsys):
    rc = main(["experiment", "fig3a", "--profile", "tiny"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "exceptions" in out


def test_experiment_ablation_sparsify_tiny(capsys):
    rc = main(["experiment", "ablation-sparsify", "--profile", "tiny"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "retention" in out


def test_experiment_baselines(capsys):
    rc = main(["experiment", "baselines"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Sympathy" in out
