"""Tests of the benchmark itself (not of the program).

    python3 -m pytest bench/tests -q

The runner test executes one operation of every workload, plain and traced,
and takes about a minute.
"""

import copy
import json
import subprocess
import sys

import numpy as np
import pytest

import gates
import spans
import workloads
from paths import BENCH, ROOT


def _benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smallest_run_emits_every_metric_with_its_unit(workload, trace):
    # --seconds 0: a single operation (a plain and a traced one with --trace 1).
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    spec = _benchmark_spec()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: value["unit"] for name, value in result["metrics"].items()}
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))
    if not trace:
        assert all(value["value"] > 0 for value in result["metrics"].values())


def _write_csv(path, rows):
    path.write_text("# columns\n" + "\n".join(
        ",".join(repr(float(v)) for v in row) for row in rows) + "\n")


@pytest.mark.parametrize("workload", ["fixture-fluid", "fixture-porous"])
def test_seismogram_perturbed_by_1e4_of_peak_fails_the_gate(workload, tmp_path):
    op = workloads.generate(workload)[0]
    ref = gates.load_reference(workload)
    _write_csv(tmp_path / "green_001.csv", ref["green"])
    _write_csv(tmp_path / "receiver_001.csv", ref["seismogram"])
    assert gates.check_fixture(op, tmp_path, ref) == []

    seis = ref["seismogram"].copy()
    column = 1 + int(np.argmax(np.max(np.abs(seis[:, 1:]), axis=0)))
    peak_row = int(np.argmax(np.abs(seis[:, column])))
    seis[peak_row, column] += 1e-4 * abs(seis[peak_row, column])
    _write_csv(tmp_path / "receiver_001.csv", seis)
    problems = gates.check_fixture(op, tmp_path, ref)
    assert len(problems) == 1 and f"column {column}" in problems[0]


def test_nonzero_sample_before_the_onset_fails_the_gate(tmp_path):
    op = workloads.generate("fixture-fluid")[0]
    ref = gates.load_reference("fixture-fluid")
    green = ref["green"].copy()
    green[1, 1] = 1e-300
    _write_csv(tmp_path / "green_001.csv", green)
    _write_csv(tmp_path / "receiver_001.csv", ref["seismogram"])
    assert gates.check_fixture(op, tmp_path, ref) == [
        f"green: nonzero value before t={op['onsets'][0]:.6f} s"]


def test_oracle_gate_is_relative_1e4():
    ref = gates.load_reference("oracle")
    values = list(ref["values"])
    assert gates.check_oracle(values, ref) == []
    values[3] *= 1.0 + 2e-4
    assert len(gates.check_oracle(values, ref)) == 1


def test_live_sample_count_ignores_the_quadrature_order():
    op = workloads.generate("fixture-porous")[0]
    cfg = copy.deepcopy(op["config"])
    cfg["quadrature"]["n"] = 64
    assert workloads._op(cfg)["live_samples"] == op["live_samples"] > 0


def test_tracer_wraps_every_namespace_and_reports_absent_names():
    workloads.generate("fixture-fluid")  # puts the checkout's src first
    import poroseis
    from poroseis import cli, green

    tracer = spans.Tracer()
    tracer.install()
    try:
        assert "cagniard._xi_zero" in tracer.wrapped
        assert not any(name.startswith("branch_math.") for name in tracer.wrapped)
        # The same wrapper replaces a function in every namespace holding it.
        assert cli.green_trace is green.green_trace is poroseis.green_trace
        assert cli.green_trace.__wrapped__ is not None
        metrics, absent = spans.layer_metrics(tracer, live_samples=1)
        assert absent == []
        tracer.wrapped.discard("cagniard._plane_search")
        _, absent = spans.layer_metrics(tracer, live_samples=1)
        assert absent == ["cagniard._plane_search"]
        assert metrics["cagniard.plane_search.calls"] == 0
    finally:
        for name in [n for n in sys.modules if n.split(".")[0] == "poroseis"]:
            del sys.modules[name]
