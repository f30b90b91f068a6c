"""Configuration validation, the compute pipeline, and verify exit codes."""

import copy
import json
import math
import os
import platform
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import poroseis
from poroseis import cli
from poroseis.cagniard import WaveKind
from poroseis.cli import (ConfigError, fixture_config, load_config, main,
                          run_compute, run_verify, verify_rows, _media_hash,
                          _time_grid)
from poroseis.errors import DomainError, NotConverged, SingularSystem
from poroseis.green import (CHANNELS, ReflectedChannels, branch_arrivals,
                            green_trace, receiver_branches, reflected_trace,
                            transmitted_trace)
from poroseis.oracle import laplace_nodes


def small_config(out_dir, **overrides):
    """Fast single-receiver configuration for pipeline tests."""
    cfg = fixture_config()
    cfg["source"] = {"height_m": 100.0, "f0_hz": 50.0, "gain": 1.0}
    cfg["receivers"] = [[50.0, 0.0, 30.0]]
    cfg["time"] = {"t_end_s": 0.3, "dt_s": 5e-4}
    cfg["quadrature"] = {"n": 400, "sin_substitution": True}
    cfg["output"] = {"directory": str(out_dir), "format": "csv",
                     "emit_green": False}
    cfg.update(copy.deepcopy(overrides))
    return cfg


def test_fixture_command_prints_loadable_config(capsys):
    assert main(["fixture"]) == 0
    cfg = json.loads(capsys.readouterr().out)
    setup = load_config(cfg)
    assert len(setup.receivers) == 2
    assert setup.model.acoustic.v_plus == 1500.0


@pytest.mark.parametrize("mutate, fragment", [
    (lambda c: c.update(bogus={}), "unknown top-level"),
    (lambda c: c.pop("acoustic"), "missing section"),
    (lambda c: c["acoustic"].update(extra=1.0), "unknown keys"),
    (lambda c: c["poroelastic"].update(eta_pa_s=1e-3), "inviscid"),
    (lambda c: c["source"].update(f0_hz=-2.0), "f0_hz"),
    (lambda c: c["time"].update(dt_s=0.5), "dt_s"),
    (lambda c: c["receivers"].append([1.0, 2.0]), "receiver 2"),
    (lambda c: c["receivers"].__setitem__(0, [400.0, 0.0, 0.0]), "interface"),
    (lambda c: c["quadrature"].update(n=2), "quadrature.n"),
    (lambda c: c["output"].update(format="hdf5"), "format"),
    (lambda c: c["poroelastic"].update(phi=1.4), "porosity"),
    (lambda c: c["verify"].update(s_values_per_s=[0]), "positive, got 0"),
    (lambda c: c["verify"].update(s_values_per_s=[-5]), "positive, got -5"),
    (lambda c: c["verify"].update(grid_n=7), "grid_n must be an integer"),
    # Above MAX_GRID_N, the radial order's input bound.
    (lambda c: c["verify"].update(grid_n=5793), r"grid_n .* got 5793"),
    (lambda c: c["verify"].update(grid_n=100000), r"grid_n .* got 100000"),
    # A transform span 34/s over which the fastest wave travels past the
    # largest accepted length.
    (lambda c: c["verify"].update(s_values_per_s=[1e-300]),
     "lets the transform run past"),
    (lambda c: c["acoustic"].update(v_m_s=10 ** 400), "v_m_s is too large"),
    (lambda c: c["receivers"].__setitem__(0, [float("nan"), 0.0, -533.0]),
     "receiver 0 coordinate must be a finite number, got nan"),
    (lambda c: c["source"].update(height_m=float("inf")),
     "height_m must be a finite number"),
    (lambda c: c["time"].update(t_end_s=float("inf")),
     "t_end_s must be a finite number"),
    (lambda c: c["receivers"].__setitem__(0, [float("inf"), 0.0, 533.0]),
     "receiver 0 coordinate must be a finite number, got inf"),
    # Lengths whose squares would overflow in the contour solves.
    (lambda c: c["source"].update(height_m=1e200),
     "source height_m must not exceed 1e\\+100 m, got 1e\\+200"),
    (lambda c: c["receivers"].__setitem__(1, [400.0, 0.0, -1e101]),
     "receiver 1 coordinate must not exceed 1e\\+100 m"),
    (lambda c: c["receivers"].__setitem__(0, [0.0, -1e200, 533.0]),
     "receiver 0 coordinate must not exceed"),
    (lambda c: c["receivers"].__setitem__(0, [1e100, 1e100, 533.0]),
     "receiver 0 offset must not exceed"),
])
def test_config_rejections(mutate, fragment, tmp_path):
    cfg = fixture_config()
    mutate(cfg)
    with pytest.raises(ConfigError, match=fragment):
        load_config(cfg)
    # The same file through the command line, where JSON spells non-finite
    # numbers NaN and Infinity, is a configuration error too.
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["compute", "--config", str(path)]) == 2


def test_number_fields_reject_booleans():
    cfg = fixture_config()
    cfg["acoustic"]["v_m_s"] = True
    with pytest.raises(ConfigError, match="must be a number"):
        load_config(cfg)


def test_main_flags_broken_config_file(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    assert main(["compute", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err

    assert main(["compute", "--config", str(tmp_path / "absent.json")]) == 2

    path.write_text("[" + "1" * 5000 + "]")  # past Python's digit limit
    assert main(["compute", "--config", str(path)]) == 2


def test_main_flags_inadmissible_medium(tmp_path, capsys):
    """A medium that passes the field checks but has no real Biot speeds is
    a configuration error (exit 2), not a traceback."""
    cfg = fixture_config()
    cfg["poroelastic"].update(phi=0.9, k_s_pa=1e9, k_f_pa=1e10, k_b_pa=0.99e9)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["compute", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_time_grid_counts():
    cfg = small_config("unused")
    setup = load_config(cfg)
    t = _time_grid(setup)
    assert t.size == 601
    assert t[0] == 0.0
    np.testing.assert_allclose(np.diff(t), 5e-4, rtol=1e-12)


def test_media_hash_covers_only_physics():
    cfg = fixture_config()
    base = _media_hash(cfg)
    cfg["output"]["directory"] = "elsewhere"
    assert _media_hash(cfg) == base
    cfg["source"]["f0_hz"] = 20.0
    assert _media_hash(cfg) != base
    assert len(base) == 12


def test_compute_writes_csv_trace(tmp_path, capsys):
    out = tmp_path / "run"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_config(out)))
    assert main(["compute", "--config", str(cfg_path), "--quiet"]) == 0

    trace = (out / "receiver_001.csv").read_text().splitlines()
    assert trace[0].startswith("# media_hash=")
    assert trace[2] == "# columns=t_s,p_pa,u_x_m,u_y_m,u_z_m"
    data = np.array([[float(v) for v in line.split(",")]
                     for line in trace[3:]])
    assert data.shape == (601, 5)
    assert np.any(data[:, 1] != 0.0)
    assert not np.any(data[:, 3])


@pytest.mark.parametrize("blocked", ["directory", "trace file"])
def test_compute_reports_an_unwritable_output_path(blocked, tmp_path, capsys):
    """A file where the output directory should be, or a directory where
    the trace file should be, is a file problem: exit 2 with one line
    naming the path, and no trace file written."""
    out = tmp_path / "run"
    if blocked == "directory":
        out.write_text("not a directory")
        path = out
    else:
        path = out / "receiver_001.csv"
        path.mkdir(parents=True)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_config(out)))
    assert main(["compute", "--config", str(cfg_path), "--quiet"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"file error: cannot write "
                                               f"{path}: ")
    if blocked == "directory":
        assert out.read_text() == "not a directory"
    else:
        assert [p.name for p in out.iterdir()] == ["receiver_001.csv"]
        assert not any(path.iterdir())


def test_compute_is_deterministic(tmp_path):
    out = tmp_path / "run"
    cfg = small_config(out)
    cfg["receivers"] = [[50.0, 0.0, 30.0], [0.0, 60.0, 40.0]]
    setup = load_config(cfg)

    assert run_compute(setup, quiet=True) == 0
    first = [(out / f"receiver_{i:03d}.csv").read_bytes() for i in (1, 2)]
    assert run_compute(setup, quiet=True) == 0
    second = [(out / f"receiver_{i:03d}.csv").read_bytes() for i in (1, 2)]
    assert first == second


@pytest.mark.parametrize("threads, fragment", [
    ("0", "must be at least 1, got 0"),
    ("-1", "must be at least 1, got -1"),
    ("two", "must be an integer, got 'two'"),
])
def test_compute_rejects_bad_thread_counts(threads, fragment, tmp_path,
                                           capsys):
    """compute has no --threads option: every value the option once checked
    is now refused whole as an unknown argument, before anything is written."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_config(tmp_path / "run")))
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--config", str(cfg_path), "--threads", threads])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: --threads {threads}" in err
    assert fragment not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("threads", [-8, 0, 2])
def test_run_compute_rejects_fewer_than_one_thread(threads, tmp_path):
    """threads is accepted only as 1; anything else, more threads included,
    is rejected before anything is written."""
    setup = load_config(small_config(tmp_path / "run"))
    with pytest.raises(ValueError, match=f"threads must be 1, got {threads}"):
        run_compute(setup, threads=threads, quiet=True)
    assert not (tmp_path / "run").exists()


# One child process: run_compute on the fixture porous receiver up to
# t_end_s, printing the minor page faults the call took.
_FAULT_PROBE = """
import resource, sys
from poroseis.cli import fixture_config, load_config, run_compute
cfg = fixture_config()
cfg["receivers"] = [[400.0, 0.0, -533.0]]
cfg["time"]["t_end_s"] = float(sys.argv[1])
cfg["output"]["directory"] = sys.argv[2]
setup = load_config(cfg)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
assert run_compute(setup, quiet=True) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the fault policy is set through glibc's mallopt")
def test_compute_keeps_freed_memory(tmp_path):
    """Windows reuse the memory freed by the window before them.

    Without the policy glibc hands each n = 2000 window's temporaries back
    to the kernel and the next window faults them in again, hundreds of
    faults per window.  With it the whole call takes a few hundred.
    """
    t_end = 0.52  # 55 live P-fast windows, no other branch live yet
    cfg = fixture_config()
    cfg["receivers"] = [[400.0, 0.0, -533.0]]
    cfg["time"]["t_end_s"] = t_end
    setup = load_config(cfg)
    t = _time_grid(setup)
    live = sum(int(np.count_nonzero(t > (a.t_h1 if a.head_exists else a.t0)))
               for a in branch_arrivals(setup.model, setup.receivers[0])
               .values())
    assert live > 0

    # A fresh process, so that neither the suite's own allocator settings
    # nor the caller's MALLOC_* variables decide the outcome.
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    src = str(Path(poroseis.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _FAULT_PROBE, repr(t_end), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    faults = int(proc.stdout.split()[-1])
    assert faults < 20 * live, f"{faults} minor faults for {live} windows"


def test_compute_and_verify_set_the_memory_policy(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "_keep_freed_memory", lambda: calls.append(1))
    setup = load_config(small_config(tmp_path / "run"))
    assert run_compute(setup, quiet=True) == 0
    assert calls == [1]
    setup = _verify_setup(tmp_path, monkeypatch)
    monkeypatch.setattr("poroseis.cli.laplace_reference",
                        lambda probe, model, name, **kw: 1.0)
    assert run_verify(setup) == 0
    assert calls == [1, 1]


def test_memory_policy_is_a_no_op_without_mallopt(monkeypatch, capsys):
    class NoMallopt:
        def __init__(self, name):
            pass

    monkeypatch.setattr(cli.ctypes, "CDLL", NoMallopt)
    cli._keep_freed_memory()
    assert capsys.readouterr() == ("", "")


def test_compute_json_and_green_outputs(tmp_path):
    out = tmp_path / "run"
    cfg = small_config(out)
    cfg["output"] = {"directory": str(out), "format": "json",
                     "emit_green": True}
    setup = load_config(cfg)
    assert run_compute(setup, quiet=True) == 0

    doc = json.loads((out / "receiver_001.json").read_text())
    assert doc["columns"] == ["t_s", "p_pa", "u_x_m", "u_y_m", "u_z_m"]
    assert len(doc["data"]["p_pa"]) == 601
    assert doc["media_hash"] == _media_hash(cfg)

    green = (out / "green_001.csv").read_text().splitlines()
    assert green[1].startswith("# incident_dirac_time_s=")


def test_compute_reports_numerical_failure(tmp_path, monkeypatch, capsys):
    def explode(*args, **kwargs):
        raise DomainError("synthetic failure")

    monkeypatch.setattr("poroseis.cli.green_trace", explode)
    setup = load_config(small_config(tmp_path / "run"))
    assert run_compute(setup, quiet=True) == 3
    assert "synthetic failure" in capsys.readouterr().err


def test_compute_writes_nothing_when_a_later_receiver_fails(tmp_path,
                                                            monkeypatch,
                                                            capsys):
    """Every receiver is computed before any file is written, so a failure
    at the second receiver leaves no trace or Green file of the first."""
    out = tmp_path / "run"
    cfg = small_config(out)
    cfg["receivers"] = [[50.0, 0.0, 30.0], [0.0, 60.0, 40.0]]
    cfg["output"]["emit_green"] = True
    setup = load_config(cfg)
    seen = []

    def fail_second(model, rec, t, quad):
        seen.append(rec)
        if len(seen) == 2:
            raise DomainError("synthetic failure at receiver 2")
        return green_trace(model, rec, t, quad)

    monkeypatch.setattr("poroseis.cli.green_trace", fail_second)
    assert run_compute(setup, quiet=True) == 3
    assert seen == setup.receivers
    assert "numerical failure: receiver 2: synthetic failure at receiver 2" \
        in capsys.readouterr().err
    assert not list(out.glob("receiver_*")) + list(out.glob("green_*"))


def _verify_setup(tmp_path, monkeypatch, trace_value=1.0):
    cfg = small_config(tmp_path / "run")
    cfg["receivers"] = [[400.0, 0.0, 533.0]]
    cfg["verify"] = {"s_values_per_s": [20.0], "grid_n": 16}
    setup = load_config(cfg)

    def fake_trace(model, receiver, grid, quad):
        fill = np.full(np.asarray(grid).size, trace_value)
        return ReflectedChannels(xi=fill, u_x=fill, u_z=fill)

    monkeypatch.setattr("poroseis.cli.reflected_trace", fake_trace)
    monkeypatch.setattr("poroseis.cli.laplace_nodes",
                        lambda model, receiver, kind, s: (np.ones(1),
                                                          np.ones(1)))
    return setup


def test_verify_passes_when_transforms_agree(tmp_path, monkeypatch, capsys):
    setup = _verify_setup(tmp_path, monkeypatch)
    monkeypatch.setattr("poroseis.cli.laplace_reference",
                        lambda probe, model, name, **kw: 1.0)
    assert run_verify(setup) == 0
    assert "verification passed" in capsys.readouterr().out


def test_verify_fails_past_tolerance(tmp_path, monkeypatch, capsys):
    setup = _verify_setup(tmp_path, monkeypatch)
    monkeypatch.setattr("poroseis.cli.laplace_reference",
                        lambda probe, model, name, **kw: 1.0011)
    assert run_verify(setup) == 1
    assert "FAILED" in capsys.readouterr().err


def test_verify_fails_a_nan_row(tmp_path, monkeypatch, capsys):
    setup = _verify_setup(tmp_path, monkeypatch)
    monkeypatch.setattr("poroseis.cli.laplace_nodes",
                        lambda *a: (np.ones(1), np.full(1, math.nan)))
    monkeypatch.setattr("poroseis.cli.laplace_reference", lambda *a: 1.0)
    assert run_verify(setup) == 1
    assert "worst relative error nan > 1e-3" in capsys.readouterr().err


def test_verify_traces_each_branch_once(monkeypatch):
    """Each (receiver, s, branch) is traced once, at the times laplace_nodes
    gives; each (receiver, s) builds one oracle probe, and the rows equal,
    bit for bit, those of each s run alone."""
    cfg = fixture_config()
    cfg["quadrature"]["n"] = 16
    cfg["verify"]["s_values_per_s"] = [40.0, 20.0]
    setup = load_config(cfg)
    probes, nodes, calls = [], [], []

    def oracle(probe, model, name):
        probes.append(probe)
        return probe.s

    def spy_nodes(model, rec, kind, s):
        t, w = laplace_nodes(model, rec, kind, s)
        nodes.append((rec, kind, s, t))
        return t, w

    monkeypatch.setattr(cli, "laplace_reference", oracle)
    monkeypatch.setattr(cli, "laplace_nodes", spy_nodes)
    own = {s: verify_rows(replace(setup, verify_s=[s]))[0]
           for s in (40.0, 20.0)}
    probes.clear()
    nodes.clear()

    def spy(trace):
        def traced(model, rec, *args):
            kind = args[0] if len(args) == 3 else WaveKind.REFLECTED
            calls.append((rec, kind, args[-2]))
            return trace(model, rec, *args)
        return traced

    monkeypatch.setattr(cli, "reflected_trace", spy(reflected_trace))
    monkeypatch.setattr(cli, "transmitted_trace", spy(transmitted_trace))
    rows, unconverged = verify_rows(setup)
    fluid, porous = setup.receivers
    branches = {fluid: [WaveKind.REFLECTED],
                porous: [WaveKind.TRANSMITTED_PF, WaveKind.TRANSMITTED_PS,
                         WaveKind.TRANSMITTED_S]}
    assert [node[:3] for node in nodes] == [
        (rec, kind, s) for rec in (fluid, porous) for s in (40.0, 20.0)
        for kind in branches[rec]]
    assert len(calls) == len(nodes)
    for (rec, kind, t), node in zip(calls, nodes):
        assert (rec, kind) == node[:2]
        assert t.tobytes() == node[3].tobytes()
    assert sorted({id(probe): (probe.receiver.z, probe.s)
                   for probe in probes}.values()) == [
        (-533.0, 20.0), (-533.0, 40.0), (533.0, 20.0), (533.0, 40.0)]
    assert not unconverged
    assert [row[0] for row in rows] == [
        name for rec in (fluid, porous) for s in (40.0, 20.0)
        for kind in receiver_branches(setup.model, rec)
        for name in CHANNELS[kind]]
    assert rows == [row for i in (1, 2) for s in (40.0, 20.0)
                    for row in own[s] if row[1] == i]


def test_verify_rows_do_not_read_the_time_step(monkeypatch):
    """The transform nodes come from the arrivals and s alone, so the rows
    are bit-identical for two values of time.dt_s."""
    monkeypatch.setattr(cli, "laplace_reference",
                        lambda probe, model, name: probe.s)
    cfg = fixture_config()
    cfg["quadrature"]["n"] = 16
    rows = []
    for dt in (2.5e-4, 5e-4):
        cfg["time"]["dt_s"] = dt
        rows.append(verify_rows(load_config(cfg))[0])
    assert len(rows[0]) == 18
    assert rows[0] == rows[1]


def test_verify_passes_at_a_small_s():
    """s = 0.1, whose transform runs 340 s past the onset, verifies at
    n = 64."""
    cfg = fixture_config()
    cfg["quadrature"]["n"] = 64
    cfg["verify"]["s_values_per_s"] = [0.1]
    rows, unconverged = verify_rows(load_config(cfg))
    assert not unconverged
    assert len(rows) == 9
    assert max(row[5] for row in rows) <= 1e-3, rows


def test_verify_reports_unconverged_oracle(tmp_path, monkeypatch, capsys):
    setup = _verify_setup(tmp_path, monkeypatch)

    def diverge(probe, model, name, **kw):
        raise NotConverged("synthetic")

    monkeypatch.setattr("poroseis.cli.laplace_reference", diverge)
    assert run_verify(setup) == 4
    assert "did not converge" in capsys.readouterr().err


def test_verify_reports_trace_failure(tmp_path, monkeypatch, capsys):
    setup = _verify_setup(tmp_path, monkeypatch)

    def explode(model, receiver, grid, quad):
        raise DomainError("synthetic trace failure")

    monkeypatch.setattr("poroseis.cli.reflected_trace", explode)
    assert run_verify(setup) == 3
    assert "synthetic trace failure" in capsys.readouterr().err


def test_verify_rows_keeps_the_trace_error(tmp_path, monkeypatch):
    """A trace failure reaches the caller of verify_rows as the error it
    was, with its attributes, and names the receiver."""
    setup = _verify_setup(tmp_path, monkeypatch)

    def singular(model, receiver, grid, quad):
        raise SingularSystem(1e-4 - 2e-5j, 3e-5, "synthetic")

    monkeypatch.setattr("poroseis.cli.reflected_trace", singular)
    with pytest.raises(SingularSystem,
                       match="^receiver 1: interface system singular") as info:
        verify_rows(setup)
    assert info.value.q_x == 1e-4 - 2e-5j and info.value.q_y == 3e-5


def test_verify_needs_s_values(tmp_path, monkeypatch, capsys):
    """With no s value, verify_rows raises ConfigError and verify exits 2
    with the same message."""
    cfg = small_config(tmp_path / "run")
    cfg.pop("verify", None)
    setup = load_config(cfg)
    with pytest.raises(ConfigError, match="^verify.s_values_per_s is empty$"):
        verify_rows(setup)
    assert run_verify(setup) == 2
    assert capsys.readouterr().err == \
        "config error: verify.s_values_per_s is empty\n"
