"""The benchmark's unseeded commands, run once through ``cli.main``.

Each command must exit 0, print the stdout whose sha256 the benchmark
recorded in ``perfbench/reference.json``, and pass the workload's known
answer, so a change of output fails here and not only in a benchmark run.
Only reads ``perfbench/``.
"""
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from selfaffine.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    # no bytecode cache is written into perfbench/
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


WORKLOADS = _load_workloads()
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))
COMMANDS = [
    cmd for name in WORKLOADS.WORKLOADS for cmd in WORKLOADS.workload(name, seed=0)
    if not cmd.seeded
]


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    # the commands name their pair files relative to the work directory
    (tmp_path / "pairs").mkdir()
    for filename, text in WORKLOADS.PAIRS.items():
        (tmp_path / "pairs" / filename).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("cmd", COMMANDS, ids=[cmd.key for cmd in COMMANDS])
def test_benchmark_command_output(cmd, workdir, capsysbinary):
    assert main(list(cmd.argv)) == 0
    out = capsysbinary.readouterr().out
    assert hashlib.sha256(out).hexdigest() == REFERENCE[cmd.key]
    if cmd.answer is not None:
        cmd.answer(out.decode())
