"""Configuration validation, the compute pipeline, and verify exit codes."""

import copy
import json

import numpy as np
import pytest

from poroseis.cli import (ConfigError, fixture_config, load_config, main,
                          run_compute, run_verify, verify_grid, _media_hash,
                          _time_grid)
from poroseis.errors import DomainError, NotConverged
from poroseis.green import ReflectedChannels


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
    # More than 1e6 verify samples past onset at the fixture dt = 2.5e-4 s.
    (lambda c: c["verify"].update(s_values_per_s=[1e-300]),
     "smallest accepted s is 0.136"),
    (lambda c: c["verify"].update(s_values_per_s=[20.0, 0.1]),
     "entry 0.1 needs more than 1000000 samples"),
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


def test_compute_is_deterministic_and_thread_safe(tmp_path):
    out = tmp_path / "run"
    cfg = small_config(out)
    cfg["receivers"] = [[50.0, 0.0, 30.0], [0.0, 60.0, 40.0]]
    setup = load_config(cfg)

    assert run_compute(setup, quiet=True) == 0
    first = [(out / f"receiver_{i:03d}.csv").read_bytes() for i in (1, 2)]
    assert run_compute(setup, threads=2, quiet=True) == 0
    second = [(out / f"receiver_{i:03d}.csv").read_bytes() for i in (1, 2)]
    assert first == second


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


def test_verify_grid_centres_the_onset(model, fluid_receiver):
    from poroseis.cagniard import WaveKind
    from poroseis.green import branch_arrivals

    dt = 2.5e-4
    s = 20.0
    grid = verify_grid(model, fluid_receiver, WaveKind.REFLECTED, s, dt)
    arr = branch_arrivals(model, fluid_receiver)[WaveKind.REFLECTED]
    offset = (arr.t0 - grid[0]) / dt
    assert offset == pytest.approx(round(offset) + 0.5, abs=1e-9) \
        or offset == pytest.approx(round(offset) - 0.5, abs=1e-9)
    assert grid[-1] - arr.t0 >= 34.0 / s
    np.testing.assert_allclose(np.diff(grid), dt, atol=1e-12)


def _verify_setup(tmp_path, monkeypatch, trace_value=1.0):
    cfg = small_config(tmp_path / "run")
    cfg["receivers"] = [[400.0, 0.0, 533.0]]
    cfg["verify"] = {"s_values_per_s": [20.0], "grid_n": 16}
    setup = load_config(cfg)

    def fake_trace(model, receiver, grid, quad):
        fill = np.full(np.asarray(grid).size, trace_value)
        return ReflectedChannels(xi=fill, u_x=fill, u_z=fill)

    monkeypatch.setattr("poroseis.cli.reflected_trace", fake_trace)
    monkeypatch.setattr("poroseis.cli.laplace_of_trace",
                        lambda values, grid, s: 1.0)
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


def test_verify_needs_s_values(tmp_path, monkeypatch, capsys):
    cfg = small_config(tmp_path / "run")
    cfg.pop("verify", None)
    setup = load_config(cfg)
    assert run_verify(setup) == 2
