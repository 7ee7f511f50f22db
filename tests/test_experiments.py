"""Campaign machinery: metrics, sweep resolution, trials, aggregation, config."""

import gc
import json
import multiprocessing
import os
import re
import weakref
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldest.experiments import (
    CONFIG_SCHEMA,
    Cell,
    ConfigError,
    ExperimentConfig,
    TrialRecord,
    aggregate_cell,
    box_stats,
    compare_em_nr,
    config_from_mapping,
    export_po_csv,
    export_report,
    export_trace_csv,
    initial_region_sample,
    load_config,
    outlier_probability,
    paired_snrs,
    parse_config_text,
    resolve_cells,
    run_campaign,
    run_trial,
    squared_error,
)
from fieldest import cli
from fieldest import (
    FieldParams,
    GAUSSIAN_BELL,
    SolverConfig,
    calibrate_eta_analog,
    calibrate_eta_quantized,
    calibrate_sigma,
    em_estimate,
    estimators,
    experiments,
    make_uniform_quantizer,
    network,
    newton_ml_analog,
    nr_estimate_quantized,
)

from conftest import assert_same_outcome


def test_squared_error_basic():
    a = FieldParams(8.0, 2.0, 2.0, 4.0, 4.0)
    b = FieldParams(7.0, 2.0, 2.5, 4.0, 2.0)
    assert squared_error(a, b) == pytest.approx(1.0 + 0.25 + 4.0)
    assert squared_error(a, a) == 0.0


def test_initial_region_sample_bands():
    truth = FieldParams(8.0, 2.0, 2.0, 4.0, 4.0)
    t = truth.as_array()
    for region in range(1, 9):
        draw = initial_region_sample(region, truth, seed=region * 7).as_array()
        lo = np.minimum(t * (1 - region / 8), t * (1 - (region - 1) / 8))
        hi = np.maximum(t * (1 - region / 8), t * (1 - (region - 1) / 8))
        # spreads are floored away from zero
        lo = lo.copy()
        assert np.all(draw <= hi + 1e-12)
        assert np.all(draw >= np.minimum(lo, draw))
        assert draw[1] >= 1e-3 and draw[2] >= 1e-3
    # region 1 sits within 1/8 of the truth, region 8 near the origin
    near = initial_region_sample(1, truth, seed=3).as_array()
    far = initial_region_sample(8, truth, seed=3).as_array()
    assert np.max(np.abs(near - t)) <= np.max(t) / 8 + 1e-12
    assert np.linalg.norm(far - t) > np.linalg.norm(near - t)


def test_initial_region_sample_is_deterministic_and_validates():
    truth = FieldParams(8.0, 2.0, 2.0, 4.0, 4.0)
    a = initial_region_sample(4, truth, seed=11).as_array()
    b = initial_region_sample(4, truth, seed=11).as_array()
    np.testing.assert_array_equal(a, b)
    for bad in (0, 9, -1):
        with pytest.raises(ValueError):
            initial_region_sample(bad, truth, seed=0)


def test_box_stats_against_percentile():
    rng = np.random.default_rng(77)
    samples = rng.exponential(2.0, size=400)
    box = box_stats(samples)
    q1, med, q3 = np.percentile(samples, [25, 50, 75])
    assert box["q1"] == pytest.approx(q1)
    assert box["median"] == pytest.approx(med)
    assert box["q3"] == pytest.approx(q3)
    fence_hi = q3 + 1.5 * (q3 - q1)
    assert box["whisker_high"] == pytest.approx(samples[samples <= fence_hi].max())
    assert box["outliers"] == sorted(v for v in samples if v > fence_hi)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=60,
    )
)
def test_box_stats_invariants(samples):
    box = box_stats(samples)
    assert box["q1"] <= box["median"] <= box["q3"]
    iqr = box["q3"] - box["q1"]
    lo, hi = box["q1"] - 1.5 * iqr, box["q3"] + 1.5 * iqr
    assert lo <= box["whisker_low"] <= box["whisker_high"] <= hi
    assert all(v < lo or v > hi for v in box["outliers"])
    inside = [v for v in samples if lo <= v <= hi]
    assert len(inside) + len(box["outliers"]) == len(samples)


def test_box_stats_empty_rejected():
    with pytest.raises(ValueError):
        box_stats([])


def test_outlier_probability_curve():
    se = [0.1, 0.5, 2.0, 10.0]
    tau = np.array([0.2, 1.0, 5.0])
    np.testing.assert_allclose(outlier_probability(se, tau), [0.75, 0.5, 0.25])
    with pytest.raises(ValueError):
        outlier_probability([], tau)
    with pytest.raises(ValueError):
        outlier_probability(se, np.array([1.0, 0.5]))
    with pytest.raises(ValueError):
        outlier_probability(se, np.array([-1.0, 2.0]))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(min_value=0, max_value=1e4, allow_nan=False), min_size=1, max_size=40)
)
def test_outlier_probability_monotone(se):
    tau = np.geomspace(1e-3, 1e5, 25)
    po = outlier_probability(se, tau)
    assert np.all(po >= 0) and np.all(po <= 1)
    assert np.all(np.diff(po) <= 1e-15)


# a few values, so that samples and thresholds tie
_SE_VALUES = st.sampled_from([0.0, 1e-3, 0.5, 1.0, 2.5, 1e4, float("inf"), float("nan")])


@settings(max_examples=200, deadline=None)
@given(
    st.lists(_SE_VALUES | st.floats(min_value=0.0), min_size=1, max_size=60),
    st.sets(_SE_VALUES | st.floats(min_value=1e-300), min_size=1, max_size=20),
)
def test_outlier_probability_is_the_comparison_table_mean(se, tau):
    """The sorted count equals the mean of the tau x samples comparison table
    bit for bit, with ties, inf and NaN (a NaN sample exceeds no threshold)."""
    tau = np.sort([t for t in tau if t > 0])  # NaN and 0 leave the grid
    if tau.size == 0:
        return
    se = np.asarray(se, dtype=float)
    table = (se[None, :] > tau[:, None]).mean(axis=1)
    got = outlier_probability(se, tau)
    assert got.dtype == table.dtype and got.tobytes() == table.tobytes()


def test_paired_snrs():
    assert paired_snrs([10, 20], [20, 10]) == [(10.0, 20.0), (20.0, 10.0)]
    assert paired_snrs([15], [5, 10, 20]) == [(15.0, 5.0), (15.0, 10.0), (15.0, 20.0)]
    assert paired_snrs([5, 10], [15]) == [(5.0, 15.0), (10.0, 15.0)]
    with pytest.raises(ConfigError):
        paired_snrs([1, 2, 3], [1, 2])


def test_config_estimator_resolution_and_guards():
    assert ExperimentConfig(channel="analog").estimator == "newton"
    assert ExperimentConfig(channel="quantized").estimator == "em"
    with pytest.raises(ConfigError):
        ExperimentConfig(channel="smoke")
    with pytest.raises(ConfigError):
        ExperimentConfig(channel="analog", estimator="em")
    with pytest.raises(ConfigError):
        ExperimentConfig(channel="quantized", estimator="newton")
    with pytest.raises(ConfigError):
        ExperimentConfig(estimator="bogus")


@pytest.mark.parametrize(
    "kwargs",
    [
        {"k_values": ()},
        {"k_values": (0,)},
        {"snr_o_db": (10, 20), "snr_c_db": (1, 2, 3)},
        {"channel": "quantized", "m_values": (6,)},
        {"channel": "quantized", "m_values": (1,)},
        {"channel": "quantized", "quantizer_lo": 5.0, "quantizer_hi": 5.0},
        {"init_policy": "everywhere"},
        {"init_policy": "region", "init_regions": (0,)},
        {"init_policy": "region", "init_regions": (9,)},
        {"trials": 0},
        {"crlb_method": "exact"},
        {"crlb_zeta": -1},
        {"crlb_nodes": 80},
        {"crlb_nodes": 19},
        {"tau_min": 0.0},
        {"tau_min": 2.0, "tau_max": 1.0},
        {"tau_count": 1},
        {"grid": 100},
        {"grid": 9},
        {"workers": -1},
        {"truth": (1.0, 2.0)},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ConfigError):
        ExperimentConfig(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"crlb_zeta": 4.5},
        {"crlb_nodes": 21.0},
        {"trials": 3.0},
        {"trials": True},
        {"base_seed": 7.5},
        {"tau_count": 5.5},
        {"grid": 201.0},
        {"workers": 1.0},
        {"solver": SolverConfig(max_outer=200.5)},
    ],
)
def test_config_refuses_non_integers_for_integer_keys(kwargs):
    # accepted as given, crlb.zeta = 4.5 ran the series at order 4 and keyed
    # its bound series(zeta=4.5)
    with pytest.raises(ConfigError, match="must be an integer"):
        ExperimentConfig(channel="quantized", k_values=(10,), m_values=(2,), **kwargs)
    # an integer of any NumPy width is an integer
    assert ExperimentConfig(trials=np.int64(3)).trials == 3


def test_resolve_cells_order_and_pairing():
    cfg = ExperimentConfig(
        channel="quantized",
        k_values=(10, 20),
        m_values=(2, 4),
        snr_o_db=(10.0, 20.0),
        snr_c_db=(20.0, 10.0),
        trials=1,
    )
    cells, ids = resolve_cells(cfg)
    assert len(cells) == 8  # 2 K x 2 M x 2 paired SNR points, never 2x2 crossed
    assert ids == list(range(8))
    assert [c.k for c in cells] == [10, 10, 10, 10, 20, 20, 20, 20]
    assert [c.m for c in cells] == [2, 2, 4, 4, 2, 2, 4, 4]
    assert [(c.snr_o_db, c.snr_c_db) for c in cells[:2]] == [(10.0, 20.0), (20.0, 10.0)]
    assert all(c.region is None for c in cells)


def test_resolve_cells_regions_share_data():
    cfg = ExperimentConfig(
        channel="quantized",
        init_policy="region",
        init_regions=(1, 2, 3),
        trials=1,
    )
    cells, ids = resolve_cells(cfg)
    assert [c.region for c in cells] == [1, 2, 3]
    assert ids == [0, 0, 0]  # same data, different starting points


def test_resolve_cells_snr_broadcast():
    cfg = ExperimentConfig(snr_o_db=(15.0,), snr_c_db=(5.0, 10.0, 20.0), trials=1)
    cells, _ = resolve_cells(cfg)
    assert [(c.snr_o_db, c.snr_c_db) for c in cells] == [
        (15.0, 5.0),
        (15.0, 10.0),
        (15.0, 20.0),
    ]
    assert all(c.m is None for c in cells)  # analog sweep has no quantizer axis


def _tiny_analog_cfg(**kw):
    base = dict(
        channel="analog",
        k_values=(6,),
        trials=3,
        crlb_enabled=False,
        tau_count=5,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_run_trial_is_deterministic():
    cfg = _tiny_analog_cfg()
    a = run_trial(cfg, 0)
    b = run_trial(cfg, 0)
    assert a.seed == b.seed
    assert a.network_digest == b.network_digest
    assert a.se == b.se
    assert a.converged == b.converged
    c = run_trial(cfg, 1)
    assert c.network_digest != a.network_digest


def test_run_trial_rejects_multicell():
    cfg = _tiny_analog_cfg(k_values=(6, 12))
    with pytest.raises(ConfigError):
        run_trial(cfg, 0)


def test_matched_data_across_estimators():
    kw = dict(
        channel="quantized",
        k_values=(8,),
        m_values=(4,),
        trials=2,
        crlb_enabled=False,
        tau_count=5,
    )
    em = run_trial(ExperimentConfig(estimator="em", **kw), 0)
    nr = run_trial(ExperimentConfig(estimator="nr", **kw), 0)
    # the estimator is not part of the data seeding, so both see the same draw
    assert em.seed == nr.seed
    assert em.network_digest == nr.network_digest
    np.testing.assert_array_equal(em.init.as_array(), nr.init.as_array())


def test_run_trial_region_init_stays_in_band():
    cfg = ExperimentConfig(
        channel="quantized",
        k_values=(8,),
        m_values=(4,),
        trials=1,
        init_policy="region",
        init_regions=(3,),
        crlb_enabled=False,
        tau_count=5,
    )
    rec = run_trial(cfg, 0)
    t = cfg.truth.as_array()
    draw = rec.init.as_array()
    assert np.all(draw >= t * (1 - 3 / 8) - 1e-12)
    assert np.all(draw <= t * (1 - 2 / 8) + 1e-12)


def _stub_record(trial, se, converged, theta=None, iterations=5, failed=False):
    """A record as ``_run_trials`` makes it: a trial that did not converge
    carries its end reason, one that raised the error's name and message."""
    result = None
    error = None if converged else "max_iterations"
    if failed:
        error = "EstimationError: a received word has zero mixture mass at every level"
    else:
        result = SimpleNamespace(
            theta_hat=FieldParams.from_array(np.asarray(theta, dtype=float)),
            iterations=iterations,
            converged=converged,
        )
    return TrialRecord(
        trial=trial,
        seed=trial,
        network_digest="d",
        init=FieldParams(9.0, 1.5, 1.5, 3.0, 3.0),
        result=result,
        se=None if failed else se,
        converged=converged,
        error=error,
    )


def test_aggregate_cell_hand_built():
    cfg = _tiny_analog_cfg()
    cell = Cell(k=6, m=None, snr_o_db=15.0, snr_c_db=15.0, region=None)
    thetas = [
        [8.0, 2.0, 2.0, 4.0, 4.0],
        [8.5, 2.1, 1.9, 4.2, 3.8],
        [7.5, 1.8, 2.2, 3.9, 4.1],
        [12.0, 3.0, 3.0, 6.0, 6.0],
    ]
    records = [
        _stub_record(0, 0.10, True, thetas[0], iterations=4),
        _stub_record(1, 0.30, True, thetas[1], iterations=6),
        _stub_record(2, 0.20, True, thetas[2], iterations=8),
        _stub_record(3, 9.00, False, thetas[3]),
        _stub_record(4, None, False, failed=True),
    ]
    tau = np.array([0.15, 1.0, 20.0])
    row = aggregate_cell(cfg, cell, records[::-1], tau)  # order must not matter
    assert row["n_trials"] == 5
    assert row["n_estimated"] == 4
    assert row["n_converged"] == 3
    assert not row["all_diverged"]
    # every trial counted once by how it ended, keys in sorted order
    assert row["ends"] == {"EstimationError": 1, "converged": 3, "max_iterations": 1}
    assert list(row["ends"]) == sorted(row["ends"])
    assert row["mse"] == pytest.approx(np.mean([0.1, 0.3, 0.2, 9.0]))
    assert row["mse_converged"] == pytest.approx(0.2)
    assert row["box"]["median"] == pytest.approx(0.25)
    assert row["box_converged"]["median"] == pytest.approx(0.2)
    conv = np.array(thetas[:3])
    np.testing.assert_allclose(row["variance_converged"], conv.var(axis=0, ddof=1))
    np.testing.assert_allclose(row["mean_converged"], conv.mean(axis=0))
    assert row["mean_iterations_converged"] == pytest.approx(6.0)
    np.testing.assert_allclose(row["po"], [0.75, 0.25, 0.0])
    assert row["crlb_diag"] is None and row["crlb_error"] is None


def test_aggregate_cell_all_diverged():
    cfg = _tiny_analog_cfg()
    cell = Cell(k=6, m=None, snr_o_db=15.0, snr_c_db=15.0, region=None)
    records = [_stub_record(t, None, False, failed=True) for t in range(3)]
    row = aggregate_cell(cfg, cell, records, np.array([1.0, 2.0]))
    assert row["all_diverged"]
    assert row["n_estimated"] == 0
    assert row["ends"] == {"EstimationError": 3}
    assert row["mse"] is None and row["box"] is None and row["po"] is None
    assert row["variance_converged"] is None
    assert row["mean_iterations_converged"] is None


def test_run_campaign_structure_and_determinism():
    cfg = _tiny_analog_cfg(k_values=(5, 9), crlb_enabled=True)
    rep1 = run_campaign(cfg)
    rep2 = run_campaign(cfg)
    assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)
    assert [row["k"] for row in rep1["cells"]] == [5, 9]
    assert rep1["param_names"] == ["h", "rho_x", "rho_y", "x_c", "y_c"]
    assert len(rep1["tau_grid"]) == cfg.tau_count
    row = rep1["cells"][0]
    assert row["channel"] == "analog" and row["estimator"] == "newton"
    assert row["n_trials"] == 3
    assert row["crlb_diag"] is not None and len(row["crlb_diag"]) == 5
    assert all(v > 0 for v in row["crlb_diag"])
    assert rep1["config"]["network.k"] == [5, 9]


def test_run_campaign_crlb_failure_is_reported_not_raised():
    # a single sensor cannot identify five parameters: Fisher is singular
    cfg = _tiny_analog_cfg(k_values=(1,), trials=1, crlb_enabled=True)
    row = run_campaign(cfg)["cells"][0]
    assert row["crlb_diag"] is None
    assert "SingularFisherError" in row["crlb_error"]


def test_export_report_roundtrip_and_csv(tmp_path):
    cfg = _tiny_analog_cfg()
    rep = run_campaign(cfg)
    jpath = export_report(rep, tmp_path / "report.json", fmt="json")
    assert json.loads(jpath.read_text(encoding="utf-8")) == rep
    cpath = export_report(rep, tmp_path / "cells.csv", fmt="csv")
    lines = cpath.read_text().splitlines()
    assert lines[0] == "k,channel,m,snr_o_db,snr_c_db,estimator,region,statistic,value"
    # 7 scalar stats + 2 boxes x 6 + 3 vectors x 5 = 34 rows per cell
    assert len(lines) == 1 + 34 * len(rep["cells"])
    with pytest.raises(ValueError):
        export_report(rep, tmp_path / "x.bin", fmt="parquet")


def test_export_po_csv(tmp_path):
    cfg = _tiny_analog_cfg()
    rep = run_campaign(cfg)
    path = export_po_csv(rep, tmp_path / "po.csv")
    lines = path.read_text().splitlines()
    assert lines[0].endswith("tau,po")
    assert len(lines) == 1 + cfg.tau_count * len(rep["cells"])


def test_export_trace_csv(tmp_path):
    cfg = _tiny_analog_cfg()
    rec = run_trial(cfg, 0)
    path = export_trace_csv(rec, tmp_path / "trace.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration,h,rho_x,rho_y,x_c,y_c,loglik"
    assert len(lines) == 1 + rec.result.trace.shape[0]
    assert lines[1].startswith("0,")


def test_export_failures_name_the_artifact(tmp_path):
    cfg = _tiny_analog_cfg()
    rep, rec = run_campaign(cfg), run_trial(cfg, 0)
    writers = {
        "report.json": ("report", lambda path: export_report(rep, path, fmt="json")),
        "cells.csv": ("report", lambda path: export_report(rep, path, fmt="csv")),
        "po_curve.csv": ("outlier curves", lambda path: export_po_csv(rep, path)),
        "trace.csv": ("trace", lambda path: export_trace_csv(rec, path)),
    }
    for name, (what, write) in writers.items():
        target = tmp_path / name
        target.mkdir()  # a directory where the file should go
        with pytest.raises(OSError, match=re.escape(f"cannot write {what} to {target}: ")):
            write(target)


def test_parse_config_text():
    text = """
    # campaign shape
    network.k = 10,20
    trials.count = 4   # inline comment
    channel.kind = analog
    """
    mapping = parse_config_text(text)
    assert mapping == {
        "network.k": "10,20",
        "trials.count": "4",
        "channel.kind": "analog",
    }
    with pytest.raises(ConfigError):
        parse_config_text("network.k 10")
    with pytest.raises(ConfigError):
        parse_config_text("= 5")
    with pytest.raises(ConfigError):
        parse_config_text("a = 1\na = 2")


def test_config_from_mapping_defaults_and_lists():
    cfg = config_from_mapping({})
    assert cfg == ExperimentConfig()
    cfg = config_from_mapping(
        {
            "network.k": "10, 20",
            "channel.kind": "quantized",
            "channel.m": [2, 8],
            "snr.observation_db": "15",
            "trials.count": "6",
            "crlb.enabled": "no",
            "init.theta": "9, 1.5, 1.5, 3, 3",
        }
    )
    assert cfg.k_values == (10, 20)
    assert cfg.m_values == (2, 8)
    assert cfg.estimator == "em"
    assert cfg.crlb_enabled is False
    with pytest.raises(ConfigError):
        config_from_mapping({"network.kk": "10"})
    with pytest.raises(ConfigError):
        config_from_mapping({"trials.count": "many"})
    with pytest.raises(ConfigError):
        config_from_mapping({"init.theta": "1,2,3"})
    with pytest.raises(ConfigError):
        config_from_mapping({"crlb.enabled": "maybe"})
    # list items given as Python values are parsed like the text form
    with pytest.raises(ConfigError):
        config_from_mapping({"network.k": [10.7]})
    with pytest.raises(ConfigError):
        config_from_mapping({"init.theta": ["a", 1, 1, 1, 1]})
    # the truth, area and solver check their own values
    with pytest.raises(ConfigError):
        config_from_mapping({"solver.tol": "-1"})
    with pytest.raises(ConfigError):
        config_from_mapping({"area.x_max": "-1"})


def test_dataclass_sweeps_are_parsed_like_the_config_file(tmp_path):
    # a fractional sensor count is refused, not truncated
    with pytest.raises(ConfigError):
        ExperimentConfig(k_values=(10.7,))
    # NumPy scalars become plain values, so the report still serializes
    cfg = ExperimentConfig(k_values=(np.int64(6),), trials=2, crlb_enabled=False)
    path = tmp_path / "report.json"
    export_report(run_campaign(cfg), path)
    assert json.loads(path.read_text())["config"]["network.k"] == [6]


def test_config_echo_roundtrip():
    from fieldest.experiments import _config_dict

    cfg = ExperimentConfig(
        channel="quantized",
        k_values=(12,),
        m_values=(4,),
        trials=9,
        init_policy="region",
        init_regions=(2, 5),
    )
    assert config_from_mapping(_config_dict(cfg)) == cfg


def _readme_config_table():
    """(keys, defaults) of each row of the README's configuration key table."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = []
    for line in text.split("| Key | Default | Meaning |", 1)[1].splitlines()[2:]:
        if not line.startswith("|"):
            break
        key_cell, default_cell = line.split("|")[1:3]
        rows.append((re.findall(r"`([^`]+)`", key_cell), re.findall(r"`([^`]+)`", default_cell)))
    return rows


def test_readme_key_table_matches_schema():
    rows = _readme_config_table()
    keys = [key for row_keys, _ in rows for key in row_keys]
    assert keys == [row.key for row in CONFIG_SCHEMA]
    default = ExperimentConfig()
    for row_keys, defaults in rows:
        assert len(row_keys) == len(defaults)
        for key, text in zip(row_keys, defaults):
            assert config_from_mapping({key: text}) == default, key


def test_load_config_file_and_overrides(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("network.k = 12\ntrials.count = 7\n")
    cfg = load_config(path, overrides={"trials.count": "9"})
    assert cfg.k_values == (12,)
    assert cfg.trials == 9
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.cfg")


def test_compare_em_nr_structure():
    cfg = ExperimentConfig(
        channel="quantized",
        k_values=(8,),
        m_values=(4,),
        trials=2,
        crlb_enabled=False,
        tau_count=5,
    )
    comp = compare_em_nr(cfg)
    row = comp["cells"][0]
    assert row["n_trials"] == 2
    assert "estimator" not in row["cell"]
    assert row["em"]["estimator"] == "em"
    assert row["nr"]["estimator"] == "nr"
    assert 0 <= row["n_jointly_converged"] <= 2
    assert np.isfinite(row["em_median_se"]) or row["em_median_se"] == np.inf
    with pytest.raises(ConfigError):
        compare_em_nr(_tiny_analog_cfg())


def test_compare_requires_quantized_before_running_anything():
    cfg = replace(_tiny_analog_cfg(), trials=10_000)  # would be slow if it ran
    with pytest.raises(ConfigError):
        compare_em_nr(cfg)


def _report_bytes(report, path):
    """report.json as exported."""
    return export_report(report, path, fmt="json").read_bytes()


def _split_by(size):
    """A ``_trial_chunks`` that cuts every cell into ranges of ``size`` trials."""

    def chunks(cfg, cells, processes, runs):
        cut = [range(s, min(s + size, cfg.trials)) for s in range(0, cfg.trials, size)]
        return [cut for _ in cells]

    return chunks


def _same_record(got, want):
    assert (got.trial, got.seed, got.network_digest, got.init, got.se, got.converged, got.error) == (
        want.trial, want.seed, want.network_digest, want.init, want.se, want.converged, want.error
    )
    assert_same_outcome(got.result, want.result)


def test_reports_identical_across_worker_counts(monkeypatch, tmp_path):
    # the analog trials of a cell run as one batch per contiguous chunk; the
    # report is byte-identical for any worker count and any split
    cfg = _tiny_analog_cfg(k_values=(5, 9), trials=15, crlb_enabled=True)
    serial = _report_bytes(run_campaign(replace(cfg, workers=1)), tmp_path / "serial.json")
    # the bytes compared hold each cell's end histogram, here with converged
    # and unidentified rows in every cell
    ends = [row["ends"] for row in json.loads(serial)["cells"]]
    assert all({"converged", "unidentified"} <= set(e) for e in ends)
    for workers in (0, 2):
        path = tmp_path / f"w{workers}.json"
        assert _report_bytes(run_campaign(replace(cfg, workers=workers)), path) == serial
    for size in (1, 7, cfg.trials):
        monkeypatch.setattr(experiments, "_trial_chunks", _split_by(size))
        for workers in (1, 2):
            report = run_campaign(replace(cfg, workers=workers))
            assert _report_bytes(report, tmp_path / f"{size}_{workers}.json") == serial
    monkeypatch.undo()
    # run_trial is a batch of one and gives the campaign's record of that trial
    single = replace(cfg, k_values=(9,))
    cells, ids = resolve_cells(single)
    calib = experiments._cell_calibration(single, cells[0])
    records = experiments._run_trials(single, cells[0], ids[0], calib, range(single.trials))
    for t in (0, 6, 14):
        _same_record(run_trial(single, t), records[t])
    qcfg = ExperimentConfig(
        channel="quantized", k_values=(8,), m_values=(2, 4), trials=3,
        crlb_enabled=False, tau_count=5, workers=1,
    )
    serial = _report_bytes(compare_em_nr(qcfg), tmp_path / "compare.json")
    for workers in (0, 2):
        path = tmp_path / f"compare_{workers}.json"
        assert _report_bytes(compare_em_nr(replace(qcfg, workers=workers)), path) == serial
    # the quantized trials of a cell run as one EM or NR batch per chunk too
    for estimator in ("em", "nr"):
        ecfg = replace(qcfg, estimator=estimator, k_values=(30,), m_values=(4, 16), trials=9)
        serial = _report_bytes(run_campaign(ecfg), tmp_path / f"{estimator}.json")
        for size in (1, 7, ecfg.trials):
            monkeypatch.setattr(experiments, "_trial_chunks", _split_by(size))
            for workers in (1, 2):
                report = run_campaign(replace(ecfg, workers=workers))
                path = tmp_path / f"{estimator}_{size}_{workers}.json"
                assert _report_bytes(report, path) == serial
        monkeypatch.undo()


@pytest.fixture
def pool_calls(monkeypatch):
    """The processes the pool starts and the trial ranges it is sent, on a
    host with the given number of usable CPUs; a test never starts more than
    two real processes."""
    calls = SimpleNamespace(spawned=[], chunks=[], futures=[])
    real_spawn, real_submit = ProcessPoolExecutor._spawn_process, ProcessPoolExecutor.submit

    def spawning(self):
        calls.spawned.append(self)
        if len(calls.spawned) <= 2:
            real_spawn(self)

    def submitting(self, fn, *args):
        calls.chunks.append(args[-1])
        calls.futures.append(real_submit(self, fn, *args))
        return calls.futures[-1]

    def with_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: n)

    monkeypatch.setattr(ProcessPoolExecutor, "_spawn_process", spawning)
    monkeypatch.setattr(ProcessPoolExecutor, "submit", submitting)
    calls.with_cpus = with_cpus
    return calls


def test_the_pool_starts_no_more_processes_than_the_sweep_has_batches(pool_calls, tmp_path):
    # four usable CPUs and run.workers = 0: a 6-trial cell is cut into three
    # 2-trial batches and starts three processes, two 1-trial cells start
    # two, and a 3-trial cell stays one batch, run in-process; every report
    # is the serial one
    pool_calls.with_cpus(4)
    for k_values, trials, chunks in (
        ((6,), 6, [range(0, 2), range(2, 4), range(4, 6)]),
        ((6, 7), 1, [range(1), range(1)]),
        ((6,), 3, []),
    ):
        cfg = _tiny_analog_cfg(k_values=k_values, trials=trials)
        serial = _report_bytes(run_campaign(replace(cfg, workers=1)), tmp_path / "serial.json")
        pool_calls.spawned.clear()
        pool_calls.chunks.clear()
        assert _report_bytes(run_campaign(cfg), tmp_path / "pool.json") == serial
        assert pool_calls.chunks == chunks
        assert len(pool_calls.spawned) == len(chunks)


def test_a_sweep_runs_each_cell_as_one_batch_per_estimator(pool_calls, tmp_path):
    # a 4-cell analog campaign and a one-trial-per-cell compare over four M:
    # every (cell, estimator) is one batch of all its trials, every batch
    # goes to one pool of two processes on two CPUs, and the reports are the
    # serial ones
    pool_calls.with_cpus(2)
    analog = _tiny_analog_cfg(k_values=(10, 20, 40, 100), trials=4)
    race = ExperimentConfig(
        channel="quantized", k_values=(20,), m_values=(2, 4, 8, 16), trials=1,
        crlb_enabled=False, tau_count=5,
    )
    for run, cfg, batches in ((run_campaign, analog, 4), (compare_em_nr, race, 8)):
        serial = _report_bytes(run(replace(cfg, workers=1)), tmp_path / "serial.json")
        pool_calls.spawned.clear()
        pool_calls.chunks.clear()
        assert _report_bytes(run(cfg), tmp_path / "pool.json") == serial
        assert pool_calls.chunks == [range(cfg.trials)] * batches
        assert len(pool_calls.spawned) == 2


def test_a_cell_is_cut_only_by_its_size_or_for_idle_processes():
    def chunks(cfg, processes, runs):
        return experiments._trial_chunks(cfg, resolve_cells(cfg)[0], processes, runs)

    cfg = ExperimentConfig(k_values=(20,), trials=1000)
    # one cell of 1000 x 20 trial-sensor pairs is one batch, cut in two for
    # two processes unless a second estimator already fills the second
    assert chunks(cfg, 1, 1) == [[range(1000)]]
    assert chunks(cfg, 2, 1) == [[range(0, 500), range(500, 1000)]]
    assert chunks(cfg, 2, 2) == [[range(1000)]]
    # _BATCH_POINTS cuts a cell of K = 100 into ranges of at most 327 trials
    wide = replace(cfg, k_values=(10, 100))
    assert chunks(wide, 2, 1) == [
        [range(1000)], [range(0, 250), range(250, 500), range(500, 750), range(750, 1000)]
    ]
    # never into batches of fewer than two trials
    assert chunks(replace(cfg, trials=3), 2, 1) == [[range(3)]]
    assert chunks(replace(cfg, trials=5), 8, 1) == [[range(0, 2), range(2, 5)]]


def test_closing_the_sweep_cancels_its_queued_batches(pool_calls):
    # the generator closes after its first cell: the pool cancels the
    # batches still queued, and no worker process outlives it
    pool_calls.with_cpus(2)
    cfg = _tiny_analog_cfg(k_values=tuple(range(6, 22)), trials=8)
    sweep = experiments._sweep(cfg, ("newton",))
    cell, (records,), _ = next(sweep)
    assert cell.k == 6 and [r.trial for r in records] == list(range(8))
    sweep.close()
    assert len(pool_calls.futures) == 16 and len(pool_calls.spawned) == 2
    assert all(f.done() for f in pool_calls.futures)
    assert any(f.cancelled() for f in pool_calls.futures)
    assert multiprocessing.active_children() == []


def test_a_read_cell_lets_go_of_its_records(pool_calls):
    # the pool holds every batch of the sweep from the start, but once a
    # cell is read and the next one yielded, no future keeps its records
    pool_calls.with_cpus(2)
    cfg = _tiny_analog_cfg(k_values=(6, 7, 8), trials=4)
    sweep = experiments._sweep(cfg, ("newton",))
    _, (records,), _ = next(sweep)
    pool_calls.futures.clear()  # the fixture's own references
    first = weakref.ref(records[0])
    del records
    next(sweep)
    gc.collect()
    assert first() is None
    sweep.close()
    assert multiprocessing.active_children() == []


def test_the_pool_starts_no_more_processes_than_this_process_has_cpus(
    pool_calls, tmp_path, capsys
):
    # run.workers = 6 with 2 usable CPUs: a cell of 8 trials runs in 2
    # processes, the report is the serial one, and one warning names both
    pool_calls.with_cpus(2)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "channel.kind = analog\nnetwork.k = 6\ncrlb.enabled = false\nreport.tau_count = 5\n"
    )
    reports = {}
    for workers in (1, 6):
        out = tmp_path / f"w{workers}"
        argv = ["campaign", "--config", str(cfg), "--out", str(out), "--format", "json"]
        assert cli.main(argv + ["--trials", "8", "--workers", str(workers)]) == 0
        reports[workers] = (out / "report.json").read_bytes()
    assert len(pool_calls.spawned) == 2
    assert reports[6] == reports[1]
    warnings = [line for line in capsys.readouterr().err.splitlines() if "run.workers" in line]
    assert warnings == [
        "warning: run.workers = 6 exceeds the 2 CPUs this process may use; "
        "the pool starts at most 2 processes"
    ]
    # one batch already runs in-process: the CPU cap lowers nothing, no warning
    pool_calls.spawned.clear()
    argv = ["campaign", "--config", str(cfg), "--out", str(tmp_path / "one"), "--format", "json"]
    # exit 3: this cell's one trial does not converge, which is not under test
    assert cli.main(argv + ["--trials", "1", "--workers", "6"]) in (0, 3)
    assert pool_calls.spawned == []
    assert "run.workers" not in capsys.readouterr().err


def test_a_batch_equals_its_rows_run_alone():
    # every trial of the four analog-sweep cells, estimated in the cell's
    # batch, equals newton_ml_analog on that trial alone, bit for bit
    reasons = {}
    for seed in (20240901, 7919):
        cfg = ExperimentConfig(
            channel="analog", k_values=(10, 20, 40, 100), trials=40, base_seed=seed,
            crlb_enabled=False,
        )
        cells, ids = resolve_cells(cfg)
        for cell, data_id in zip(cells, ids):
            calib = experiments._cell_calibration(cfg, cell)
            records = experiments._run_trials(cfg, cell, data_id, calib, range(cfg.trials))
            for trial, record in enumerate(records):
                net, z, init, _ = experiments._trial_inputs(cfg, cell, data_id, trial, calib)
                alone = newton_ml_analog(z, net, GAUSSIAN_BELL, calib[1], init, cfg.solver)
                assert_same_outcome(record.result, alone)
                reasons[seed, record.error] = reasons.get((seed, record.error), 0) + 1
    # the default seed's cells include rows that fail, hit the cap, or run
    # away and end unidentified
    assert reasons[20240901, "line_search_failed"] > 0
    assert reasons[20240901, "max_iterations"] > 0
    assert reasons[20240901, "unidentified"] > 0
    # likewise EM and NR on the em-nr-race cells, 6 trials each
    for estimator, alone in (("em", em_estimate), ("nr", nr_estimate_quantized)):
        mixed = 0  # batches with rows that converge and rows at the cap
        for seed in (20240901, 7919):
            cfg = ExperimentConfig(
                channel="quantized", k_values=(40,), m_values=(2, 4, 8, 16), trials=6,
                base_seed=seed, estimator=estimator, crlb_enabled=False,
            )
            cells, ids = resolve_cells(cfg)
            for cell, data_id in zip(cells, ids):
                calib = experiments._cell_calibration(cfg, cell)
                quantizer, bm = experiments._quantizer(cfg, cell)
                records = experiments._run_trials(cfg, cell, data_id, calib, range(cfg.trials))
                for trial, record in enumerate(records):
                    net, z, init, _ = experiments._trial_inputs(cfg, cell, data_id, trial, calib)
                    assert_same_outcome(
                        record.result,
                        alone(z, net, quantizer, bm, GAUSSIAN_BELL, calib[1], init, cfg.solver),
                    )
                errors = {r.error for r in records}
                mixed += None in errors and "max_iterations" in errors
        assert mixed > 0, estimator


def test_a_raising_row_is_recorded_and_the_others_estimated(monkeypatch):
    def broken(grad, hess):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    for cfg in (
        _tiny_analog_cfg(k_values=(10,), trials=12),
        _tiny_analog_cfg(k_values=(10,), trials=12, channel="quantized", m_values=(4,),
                         estimator="em"),
    ):
        cells, ids = resolve_cells(cfg)
        calib = experiments._cell_calibration(cfg, cells[0])
        healthy = experiments._run_trials(cfg, cells[0], ids[0], calib, range(cfg.trials))
        monkeypatch.setattr(estimators, "_modified_steps", broken)
        records = experiments._run_trials(cfg, cells[0], ids[0], calib, range(cfg.trials))
        monkeypatch.undo()
        failed = [r for r in records if r.result is None]
        assert failed and len(failed) < len(records)
        for record, before in zip(records, healthy):
            if record.result is None:
                assert record.error == "LinAlgError: Eigenvalues did not converge"
                assert record.se is None and not record.converged
            else:
                _same_record(record, before)


def test_each_cell_is_calibrated_once(calibration_calls):
    cfg = _tiny_analog_cfg(k_values=(5, 9), crlb_enabled=True)
    cells, _ = resolve_cells(cfg)
    run_campaign(cfg)
    assert calibration_calls == cells
    calibration_calls.clear()
    qcfg = ExperimentConfig(
        channel="quantized", k_values=(8,), m_values=(2, 4), trials=2,
        crlb_method="series", tau_count=5,
    )
    cells, _ = resolve_cells(qcfg)
    compare_em_nr(qcfg)
    assert calibration_calls == cells


@pytest.mark.parametrize("channel", ["analog", "quantized"])
def test_cell_calibration_integrates_the_area_once(channel, monkeypatch):
    """A cell's noise variances come from one area integral of G^2 and equal,
    bit for bit, the public calibrations, each of which integrates it."""
    cfg = ExperimentConfig(
        channel=channel, k_values=(10,), m_values=(2, 16),
        snr_o_db=(5.0, 15.0, 25.0), snr_c_db=(25.0, 10.0, 15.0),
    )
    cells, _ = resolve_cells(cfg)
    calls = []
    real = network.field_squared_integral

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(network, "field_squared_integral", counting)
    got = [experiments._cell_calibration(cfg, cell) for cell in cells]
    assert len(calls) == len(cells) == len(got)
    monkeypatch.undo()
    for cell, (sigma2, eta2) in zip(cells, got):
        want_sigma2 = calibrate_sigma(GAUSSIAN_BELL, cfg.truth, cfg.area, cell.snr_o_db)
        if channel == "analog":
            want_eta2 = calibrate_eta_analog(
                GAUSSIAN_BELL, cfg.truth, cfg.area, want_sigma2, cell.snr_c_db
            )
        else:
            quantizer = make_uniform_quantizer(cell.m, cfg.quantizer_lo, cfg.quantizer_hi)
            want_eta2 = calibrate_eta_quantized(
                GAUSSIAN_BELL, cfg.truth, cfg.area, quantizer, want_sigma2, cell.snr_c_db
            )
        assert (sigma2.hex(), eta2.hex()) == (float(want_sigma2).hex(), float(want_eta2).hex())
