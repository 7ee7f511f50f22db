"""End-to-end CLI checks: subcommands, artifacts, overrides, exit codes."""

import ast
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fieldest import cli, estimators, experiments, network
from fieldest.cli import build_parser, main

ANALOG_CFG = """
channel.kind = analog
network.k = 6
trials.count = 3
crlb.enabled = false
report.tau_count = 5
"""

QUANTIZED_CFG = """
channel.kind = quantized
channel.m = 4
network.k = 8
trials.count = 2
crlb.enabled = false
report.tau_count = 5
"""


def _cfg_file(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parser_requires_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([])
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("fieldest ")


def test_simulate_prints_trace_and_writes_csv(tmp_path, capsys):
    cfg = _cfg_file(tmp_path, ANALOG_CFG)
    out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert text.startswith("trial 0  seed ")
    assert "init: h=" in text
    assert "iter" in text and "loglik" in text
    assert " SE = " in text
    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0] == "iteration,h,rho_x,rho_y,x_c,y_c,loglik"
    assert len(trace) > 2


def test_simulate_trial_flag_changes_data(tmp_path, capsys):
    cfg = _cfg_file(tmp_path, ANALOG_CFG)
    main(["simulate", "--config", cfg, "--trial", "0"])
    first = capsys.readouterr().out.splitlines()[0]
    main(["simulate", "--config", cfg, "--trial", "1"])
    second = capsys.readouterr().out.splitlines()[0]
    assert first != second


def test_campaign_writes_artifacts_and_echoes_overrides(tmp_path, capsys):
    cfg = _cfg_file(tmp_path, ANALOG_CFG)
    out = tmp_path / "camp"
    code = main(
        ["campaign", "--config", cfg, "--out", str(out), "--seed", "7", "--trials", "2"]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    for name in ("report.json", "cells.csv", "po_curve.csv"):
        assert (out / name).exists()
        assert name in stdout
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["trials.base_seed"] == 7
    assert report["config"]["trials.count"] == 2
    assert report["cells"][0]["n_trials"] == 2


def test_campaign_format_selects_artifacts(tmp_path):
    cfg = _cfg_file(tmp_path, ANALOG_CFG)
    jdir, cdir = tmp_path / "j", tmp_path / "c"
    assert main(["campaign", "--config", cfg, "--out", str(jdir), "--format", "json"]) == 0
    assert (jdir / "report.json").exists()
    assert not (jdir / "cells.csv").exists()
    assert main(["campaign", "--config", cfg, "--out", str(cdir), "--format", "csv"]) == 0
    assert not (cdir / "report.json").exists()
    assert (cdir / "cells.csv").exists()
    assert (cdir / "po_curve.csv").exists()


def test_campaign_reruns_are_byte_identical(tmp_path):
    cfg = _cfg_file(tmp_path, ANALOG_CFG)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["campaign", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["campaign", "--config", cfg, "--out", str(out2)]) == 0
    for name in ("report.json", "cells.csv", "po_curve.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_campaign_all_diverged_exit_code(tmp_path, capsys):
    text = QUANTIZED_CFG + "solver.max_outer = 1\n"
    cfg = _cfg_file(tmp_path, text)
    out = tmp_path / "dead"
    assert main(["campaign", "--config", cfg, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert "had no converged trial" in captured.err
    # the report is still written for post-mortems
    assert (out / "report.json").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["cells"][0]["all_diverged"] is True


def test_crlb_analog(tmp_path, capsys):
    cfg = _cfg_file(tmp_path, ANALOG_CFG)
    out = tmp_path / "bound"
    assert main(["crlb", "--config", cfg, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    payload = json.loads(stdout[: stdout.index("wrote")])
    assert payload["channel"] == "analog"
    assert list(payload["crlb"]) == ["analog"]
    diag = payload["crlb"]["analog"]
    assert len(diag) == 5 and all(v > 0 for v in diag)
    assert payload["sigma2"] > 0 and payload["eta2"] > 0
    assert json.loads((out / "crlb.json").read_text()) == payload


def test_crlb_quantized_prints_both_routes(tmp_path, capsys):
    cfg = _cfg_file(tmp_path, QUANTIZED_CFG)
    code = main(["crlb", "--config", cfg, "--zeta", "4", "--nodes", "21"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert sorted(payload["crlb"]) == ["quadrature(nodes=21)", "series(zeta=4)"]
    for diag in payload["crlb"].values():
        assert len(diag) == 5 and all(v > 0 for v in diag)


def test_crlb_needs_single_cell(tmp_path, capsys):
    cfg = _cfg_file(tmp_path, ANALOG_CFG.replace("network.k = 6", "network.k = 6,12"))
    assert main(["crlb", "--config", cfg]) == 2
    assert "error:" in capsys.readouterr().err


def test_crlb_singular_fisher_exit_code(tmp_path, capsys):
    cfg = _cfg_file(tmp_path, ANALOG_CFG.replace("network.k = 6", "network.k = 1"))
    assert main(["crlb", "--config", cfg]) == 2
    assert "error: Fisher matrix is numerically singular" in capsys.readouterr().err


def test_crlb_composition_guard_exit_code(tmp_path, capsys):
    # an intractable series order, then an intractable Simpson grid
    for m, flags in (("8", ["--zeta", "40"]), ("16", ["--zeta", "0", "--nodes", "81"])):
        cfg = _cfg_file(tmp_path, QUANTIZED_CFG.replace("channel.m = 4", f"channel.m = {m}"))
        assert main(["crlb", "--config", cfg, *flags]) == 2
        assert "(guard: " in capsys.readouterr().err


def test_crlb_series_order_limit_exit_code(tmp_path, capsys):
    # the series coefficients reach zeta!, which overflows float64 above
    # zeta = 170: refused up front, not ended by an OverflowError
    text = QUANTIZED_CFG.replace("channel.m = 4", "channel.m = 2").replace("k = 8", "k = 10")
    cfg = _cfg_file(tmp_path, text)
    assert main(["crlb", "--config", cfg, "--zeta", "171", "--nodes", "21"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: series with zeta=171") and err.count("\n") == 1
    assert "(limit: zeta <= 170)" in err


def test_crlb_refuses_before_computing_any_route(tmp_path, capsys, monkeypatch):
    # the series order passes its guard, the Simpson grid does not: no route runs
    def no_series(*args, **kwargs):
        raise AssertionError("a series bound was computed for a refused cell")

    monkeypatch.setattr(experiments, "fisher_quantized_series", no_series)
    cfg = _cfg_file(tmp_path, QUANTIZED_CFG.replace("channel.m = 4", "channel.m = 16"))
    assert main(["crlb", "--config", cfg, "--zeta", "6", "--nodes", "81"]) == 2
    assert "crlb.nodes <= " in capsys.readouterr().err


def test_crlb_calibrates_once(tmp_path, capsys, calibration_calls):
    cfg = _cfg_file(tmp_path, QUANTIZED_CFG)
    assert main(["crlb", "--config", cfg, "--zeta", "4", "--nodes", "21"]) == 0
    assert len(calibration_calls) == 1


def test_override_flags_map_to_config_keys():
    args = build_parser().parse_args(
        ["crlb", "--seed", "5", "--trials", "3", "--workers", "2", "--zeta", "4", "--nodes", "23"]
    )
    assert cli._overrides(args) == {
        "trials.count": "3",
        "trials.base_seed": "5",
        "crlb.zeta": "4",
        "crlb.nodes": "23",
        "run.workers": "2",
    }
    assert cli._overrides(build_parser().parse_args(["crlb"])) == {}


def _imports(module):
    """{imported module: [imported names]} of a module's source, by AST."""
    imported = {}
    for node in ast.walk(ast.parse(Path(module.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            name = "." * node.level + (node.module or "")
            imported.setdefault(name, []).extend(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                imported.setdefault(alias.name, [])
    return imported


def test_cli_imports_no_private_experiments_names():
    imported = _imports(cli)
    names = imported.get(".experiments", []) + imported.get("fieldest.experiments", [])
    assert names and not [n for n in names if n.startswith("_")]
    # the CLI reaches the numerics only through experiments
    numerics = {"numpy", "math"} | {
        prefix + name for prefix in (".", "fieldest.") for name in ("crlb", "channel", "network")
    }
    assert not numerics & set(imported)
    # the estimators take the level derivatives from channel, not from crlb
    assert not {".crlb", "fieldest.crlb"} & set(_imports(estimators))


def test_bad_config_key_exit_code(tmp_path, capsys):
    for line in ("network.kk = 6\n", "solver.ridge = 1e-8\n"):
        cfg = _cfg_file(tmp_path, line)
        assert main(["campaign", "--config", cfg]) == 2
        assert "unknown configuration keys" in capsys.readouterr().err


class _Integrated(Exception):
    """Raised in place of the field's mean-square integral."""


@pytest.mark.parametrize(
    "key, limit, first_refused",
    [("quadrature.grid", 2001, 2003), ("report.tau_count", 10_000, 10_001)],
)
def test_oversized_grid_exit_code(tmp_path, capsys, monkeypatch, key, limit, first_refused):
    # the first value above each limit is refused before the configuration
    # integrates anything; the limit itself reaches the integral
    def integrate(*args):
        raise _Integrated

    monkeypatch.setattr(experiments, "_config_mean_square", integrate)
    cfg = _cfg_file(tmp_path, f"{key} = {first_refused}\n")
    assert main(["campaign", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert f"error: {key} must" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    with pytest.raises(_Integrated):
        main(["campaign", "--config", _cfg_file(tmp_path, f"{key} = {limit}\n")])


@pytest.mark.parametrize(
    "key, value",
    [
        pytest.param("snr.observation_db", "15, nan", id="snr.observation_db-nan"),
        pytest.param("snr.channel_db", "15, inf", id="snr.channel_db-inf"),
        pytest.param("init.theta", "9, 1.5, inf, 3, 3", id="init.theta-inf"),
        pytest.param("field.x_c", "nan", id="field.x_c-nan"),
        pytest.param("channel.quantizer_lo", "-inf", id="channel.quantizer_lo--inf"),
        pytest.param("report.tau_max", "inf", id="report.tau_max-inf"),
    ],
)
def test_non_finite_snr_exit_code(tmp_path, capsys, key, value):
    # every float key is checked up front, and the refusal names the key
    cfg = _cfg_file(tmp_path, ANALOG_CFG + f"{key} = {value}\n")
    assert main(["campaign", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert f"{key} must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["campaign", "crlb"])
@pytest.mark.parametrize(
    "base, key, value",
    [
        pytest.param(ANALOG_CFG, "snr.channel_db", "4000", id="analog-channel-4000"),
        pytest.param(ANALOG_CFG, "snr.channel_db", "-3300", id="analog-channel--3300"),
        pytest.param(ANALOG_CFG, "snr.observation_db", "15, 4000", id="observation-4000"),
        pytest.param(ANALOG_CFG, "snr.observation_db", "-3080", id="observation--3080"),
        pytest.param(QUANTIZED_CFG, "snr.channel_db", "4000", id="quantized-channel-4000"),
        pytest.param(QUANTIZED_CFG, "snr.channel_db", "-3300", id="quantized-channel--3300"),
    ],
)
def test_extreme_snr_exit_code(tmp_path, capsys, command, base, key, value):
    # an SNR whose noise variance overflows, underflows to 0 or is infinite
    # (-3080 dB: the field's mean square times 10^308) is refused up front
    cfg = _cfg_file(tmp_path, base + f"{key} = {value}\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert f"{key} = " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "args, line, message",
    [
        pytest.param(["simulate", "--seed", "-5"], "", "trials.base_seed", id="simulate-seed"),
        pytest.param(["campaign", "--seed", "-5"], "", "trials.base_seed", id="campaign-seed"),
        pytest.param(["crlb", "--seed", "-5"], "", "trials.base_seed", id="crlb-seed"),
        pytest.param(["campaign"], "trials.base_seed = -5\n", "trials.base_seed", id="config-seed"),
        pytest.param(["simulate", "--trial", "-1"], "", "trial", id="simulate-trial"),
    ],
)
def test_negative_seed_or_trial_exit_code(tmp_path, capsys, args, line, message):
    # a seed sequence takes non-negative integers only
    cfg = _cfg_file(tmp_path, ANALOG_CFG + line)
    assert main([*args, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert f"error: {message} must be >= 0, got -" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


_COLD_START = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import fieldest.cli as cli
analog, quantized, out = sys.argv[2:]
watched = {"scipy.special", "concurrent.futures.process"}
cli.load_config(analog, {})
cli.load_config(quantized, {})
with contextlib.redirect_stdout(io.StringIO()):
    analog_exit = cli.main(["campaign", "--config", analog, "--out", out])
    after_analog = sorted(watched & set(sys.modules))
    crlb_exit = cli.main(["crlb", "--config", quantized])
print(json.dumps([analog_exit, after_analog, crlb_exit, "scipy.special" in sys.modules]))
"""


def test_analog_commands_load_neither_scipy_special_nor_the_pool(tmp_path):
    # a fresh interpreter, since this suite imports SciPy itself (conftest.py)
    analog = _cfg_file(
        tmp_path,
        "channel.kind = analog\nnetwork.k = 10\ntrials.count = 3\ncrlb.enabled = true\n",
        "analog.cfg",
    )
    quantized = _cfg_file(
        tmp_path, "channel.kind = quantized\nchannel.m = 2\nnetwork.k = 10\n", "quantized.cfg"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    child = subprocess.run(
        [sys.executable, "-s", "-c", _COLD_START, src, analog, quantized, str(tmp_path / "out")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout.splitlines()[-1]) == [0, [], 0, True]


def _die(*args):
    """A batch whose worker process ends at once, as one the OS kills would."""
    os._exit(9)


@pytest.mark.parametrize(
    "command, text",
    [
        pytest.param(
            "campaign", "channel.kind = analog\nnetwork.k = 6, 7\ntrials.count = 2\n", id="campaign"
        ),
        pytest.param(
            "compare",
            "channel.kind = quantized\nnetwork.k = 6\nchannel.m = 2, 4\ntrials.count = 1\n",
            id="compare",
        ),
    ],
)
def test_a_dead_worker_exit_code(tmp_path, capfd, monkeypatch, command, text):
    # two cells run as two or more batches in a pool of two processes; a
    # worker that dies ends the command with one error line and exit code
    # 5, writes nothing, and leaves no worker process behind
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(experiments, "_run_trials", _die)
    cfg = _cfg_file(tmp_path, text + "crlb.enabled = false\nrun.workers = 2\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 5
    err = capfd.readouterr().err
    assert err.startswith("error: a worker process died") and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize(
    "command, text",
    [
        pytest.param(
            "campaign",
            ANALOG_CFG.replace("crlb.enabled = false", "crlb.enabled = true"),
            id="campaign",
        ),
        pytest.param(
            "crlb",
            "channel.kind = quantized\nchannel.m = 2\nnetwork.k = 10\ncrlb.nodes = 21\n",
            id="crlb",
        ),
        pytest.param(
            "compare", QUANTIZED_CFG.replace("channel.m = 4", "channel.m = 2, 4"), id="compare"
        ),
    ],
)
def test_a_command_integrates_the_area_once(tmp_path, capsys, monkeypatch, command, text):
    # the configuration, every replace of it and every cell's calibration
    # read one mean square of the field over the area
    calls = []
    real = network.field_squared_integral

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(network, "field_squared_integral", counting)
    experiments._config_mean_square.cache_clear()
    cfg = _cfg_file(tmp_path, text + "run.workers = 1\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) in (0, 3)
    assert len(calls) == 1


def test_out_collision_exit_code(tmp_path, capsys):
    cfg = _cfg_file(tmp_path, ANALOG_CFG)
    blocker = tmp_path / "occupied"
    blocker.write_text("not a directory")
    assert main(["simulate", "--config", cfg, "--out", str(blocker)]) == 4
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command, artifact", [("campaign", "cells.csv"), ("crlb", "crlb.json")])
def test_unwritable_artifact_exit_code(tmp_path, capsys, command, artifact):
    cfg = _cfg_file(tmp_path, ANALOG_CFG)
    out = tmp_path / "out"
    (out / artifact).mkdir(parents=True)
    assert main([command, "--config", cfg, "--out", str(out)]) == 4
    assert f"error: cannot write report to {out / artifact}: " in capsys.readouterr().err


def test_compare_writes_report(tmp_path, capsys):
    cfg = _cfg_file(tmp_path, QUANTIZED_CFG)
    out = tmp_path / "cmp"
    code = main(["compare", "--config", cfg, "--out", str(out)])
    stdout = capsys.readouterr().out
    assert code in (0, 3)  # tiny sample; divergence is data-dependent
    assert "jointly converged" in stdout
    assert "median SE:" in stdout
    report = json.loads((out / "compare.json").read_text())
    row = report["cells"][0]
    assert row["em"]["estimator"] == "em"
    assert row["nr"]["estimator"] == "nr"
    assert row["n_trials"] == 2


def test_compare_rejects_analog(tmp_path, capsys):
    cfg = _cfg_file(tmp_path, ANALOG_CFG)
    assert main(["compare", "--config", cfg]) == 2
    assert "error:" in capsys.readouterr().err
