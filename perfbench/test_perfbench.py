"""Self-test of the benchmark at tiny sizes.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def session_members(sid: int) -> list:
    """Live processes of session ``sid``, orphans included (Linux)."""
    found = []
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/stat") as handle:
                state, _ppid, _pgrp, session = handle.read().rsplit(")", 1)[1].split()[:4]
        except (OSError, ValueError):
            continue
        if int(session) == sid and state != "Z":
            found.append(int(entry))
    return found


def bench(name: str, trace: int) -> subprocess.CompletedProcess:
    """One tiny run in a session of its own; ``left`` lists the processes
    of that session still alive after it exited."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "5",
           "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        stdout, _ = proc.communicate(timeout=300)
    done = subprocess.CompletedProcess(cmd, proc.returncode, stdout)
    done.left = session_members(proc.pid) if os.path.isdir("/proc") else []
    return done


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_workload_emits_each_metric_with_its_unit(name, trace):
    proc = bench(name, trace)
    assert proc.returncode == 0
    assert proc.left == [], "the run left processes behind"
    *rows, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = spans.PER_LAYER_UNITS if trace else run.END_TO_END
    assert {m: v["unit"] for m, v in result["metrics"].items()} == expected
    for row in map(json.loads, rows):
        assert set(row) == {"workload", "layer", "metric", "value", "unit", "sha", "hardware"}
        assert row["workload"] == name
        assert {"nproc", "cpu", "python", "numpy", "calibration_s"} <= set(row["hardware"])


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.PER_LAYER_UNITS
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_answer_checks_catch_bad_answers():
    query = {"type": "boost", "algorithm": "prr_boost", "seeds": [0, 1], "k": 3, "rng_seed": 7}
    good = {"selected": [2, 3, 4], "estimates": {"boost": 2.0, "mu": 1.0}}
    assert workloads.check_answer(workloads.Answer(query, 0.1, good), 10) == []
    for bad in ({"selected": [2, 2, 4]}, {"selected": [1, 3, 4]}, {"selected": [2, 3, 40]},
                {"estimates": {"boost": 0.5, "mu": 1.0}},
                {"estimates": {"boost": float("nan"), "mu": 1.0}},
                {"extra": {"degraded": True}}, {"extra": {"error": "timeout"}}):
        assert workloads.check_answer(workloads.Answer(query, 0.1, {**good, **bad}), 10)


def test_a_failed_answer_check_fails_the_command(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(workloads, "check_answer", lambda ans, n: ["planted failure"])
    args = types.SimpleNamespace(workload="prr-digg-w1", seed=5, seconds=0.1, trace=0,
                                 scale="tiny")
    assert run.main_one(args) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] == result["attempted"] > 0


def traced_rounds(name: str, tmp_path, rounds: int = 2) -> spans.Tracer:
    tracer = spans.Tracer()
    tracer.install()
    workload = workloads.WORKLOADS[name](5, "tiny", str(tmp_path), run.Client(tracer))
    try:
        workload.generate()
        workload.open()
        with tracer.traced():
            for _ in range(rounds):
                workload.play()
    finally:
        workload.close()
        tracer.uninstall()
    tracer.link()
    return tracer


@pytest.mark.parametrize("name", ["prr-digg-w1", "lbimm-10k-w1"])
def test_self_times_add_up_to_each_serial_query(name, tmp_path):
    tracer = traced_rounds(name, tmp_path)
    roots = [span for span in tracer.spans if span.name == "query"]
    assert roots

    def subtree(span):
        yield span
        for child in span.children:
            yield from subtree(child)

    for root in roots:
        total = sum(span.self_time() for span in subtree(root))
        assert total == pytest.approx(root.duration, rel=1e-9, abs=1e-12)
    orphans = [s for s in tracer.spans if s.query is not None and s.parent is None
               and s.name != "query"]
    assert not orphans


def test_layers_are_separated(tmp_path):
    prr = traced_rounds("prr-digg-w1", tmp_path).metrics()
    assert prr["engine.prr_phase1_lanes_s"] > 0 and prr["core.prr.compress_s"] > 0
    lb = traced_rounds("lbimm-10k-w1", tmp_path).metrics()
    assert lb["core.prr.compress_s"] == 0
    assert lb["engine.critical_lane_csr_s"] > 0 and lb["engine.rr_lane_csr_s"] > 0
    assert lb["engine.coverage.greedy_s"] > 0


# What the oracle-retirement roadmap item deletes; the benchmark must not
# depend on any of it.  Spelled in pieces so this file does not trip its
# own source scan.
_DOOMED_WORDS = ("leg" + "acy", "refer" + "ence", "REPRO_RUNTIME_" + "SUPERVISION")
_DOOMED_MODULES = ("repro.engine." + _DOOMED_WORDS[1], "repro.trees." + _DOOMED_WORDS[1])


def test_sources_avoid_code_slated_for_deletion():
    for path in HERE.glob("*.py"):
        if path.name == Path(__file__).name:
            continue
        text = path.read_text()
        for word in _DOOMED_WORDS:
            assert word not in text, f"{path.name} mentions {word!r}"


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workloads_call_no_code_slated_for_deletion(name, monkeypatch):
    import importlib.util

    for module in _DOOMED_MODULES:
        if importlib.util.find_spec(module) is not None:  # absent once deleted
            importlib.import_module(module)
    calls = []

    def guard(fn):
        def guarded(*args, **kwargs):
            calls.append(fn.__qualname__)
            return fn(*args, **kwargs)
        return guarded

    for module in [m for key, m in sys.modules.items() if key.startswith("repro")]:
        for attr, value in list(vars(module).items()):
            doomed = isinstance(value, types.FunctionType) and (
                attr.startswith(_DOOMED_WORDS[0] + "_") or value.__module__ in _DOOMED_MODULES)
            if doomed:
                monkeypatch.setattr(module, attr, guard(value))
    monkeypatch.chdir(ROOT)
    # The whole run: set-up, rounds, answer checks and quality estimates.
    _metrics, attempted, failures, problems = run.run_workload(name, 5, 0.5, False, "tiny")
    assert attempted and not failures and not problems
    assert not calls
