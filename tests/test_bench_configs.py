"""The benchmark runs the CLI on configs it generates; this keeps those
configs in step with the CLI's keys and value checks."""
import importlib.util
import json
import random
from pathlib import Path

import pytest

from flatlimit import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def workloads(monkeypatch):
    """``WORKLOADS`` of perfbench/run.py, which imports its siblings by
    bare name."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run.WORKLOADS


@pytest.mark.parametrize("workload", ["sweep_box", "sweep_normal", "optimize_box"])
def test_benchmark_configs_pass_the_cli_parse_step(workload, tmp_path, monkeypatch):
    """Every config a workload generates passes the CLI's key check and its
    command's parse step, so removing or renaming a config key the
    benchmark sets fails here instead of as a failed benchmark run.  The
    run step, and with it every numerical computation, is not called."""
    generated = workloads(monkeypatch)
    assert set(generated) == {"sweep_box", "sweep_normal", "optimize_box"}
    commands = generated[workload](random.Random(0))
    assert commands
    for j, (command, config) in enumerate(commands):
        path = tmp_path / f"config{j}.yaml"
        path.write_text(json.dumps(config))  # JSON is YAML, as the benchmark writes it
        args = cli.build_parser().parse_args([command, "--config", str(path)])
        _, required, optional, parse, _ = cli._COMMANDS[command]
        parse(cli._load(args, required, optional))
