import csv
import textwrap
import tracemalloc

import numpy as np
import pytest

from isaacslab import cli, engine, pde
from isaacslab.config import (
    ConfigError,
    format_value,
    load_config,
    parse_config_text,
)
from isaacslab.csvio import format_cell, write_csv

seed = 0

BILINEAR_CFG = """
# benchmark game
problem.coefficients.family = bilinear
problem.coefficients.params = 4.0, 1.4142135623730951
problem.payoff.family = cosine
problem.payoff.params = 1.0, 1.0
problem.priority.family = constant
problem.priority.params = 0.5
problem.actions.u = -1, 1
problem.actions.v = -1, 1
problem.horizon = 0.5
discretization.grid.lower = -8
discretization.grid.upper = 8
discretization.grid.nodes = 161
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(textwrap.dedent(text), encoding="utf-8")
    return str(p)


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# --- config text ---------------------------------------------------------------


def test_parse_config_basics():
    cfg = parse_config_text(
        "a.b = 3\n# comment\n\nrun.paths = 100  # trailing comment\nx.list = 1, 2, 3\ns.name = heat\n"
    )
    assert cfg.get_int("a.b") == 3
    assert cfg.get_int("run.paths") == 100
    assert cfg.get_floats("x.list") == (1.0, 2.0, 3.0)
    assert cfg.get_ints("x.list") == (1, 2, 3)
    assert cfg.get_str("s.name") == "heat"
    assert cfg.has("a.b") and not cfg.has("a.c")
    assert cfg.get_float("missing", 0.25) == 0.25
    with pytest.raises(ConfigError):
        cfg.get_float("missing", required=True)
    with pytest.raises(ConfigError):
        cfg.get_int("s.name")
    with pytest.raises(ConfigError):
        parse_config_text("k = 2.5").get_int("k")


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "1e400"])
def test_non_finite_integers_are_config_errors(raw):
    cfg = parse_config_text(f"k = {raw}\nks = 1, {raw}\n")
    with pytest.raises(ConfigError):
        cfg.get_int("k")
    with pytest.raises(ConfigError):
        cfg.get_ints("ks")


@pytest.mark.parametrize("raw", ["nan", "inf"])
def test_cli_non_finite_node_count_exits_2(tmp_path, raw):
    text = BILINEAR_CFG.replace("grid.nodes = 161", f"grid.nodes = {raw}")
    cfg = write_cfg(tmp_path, text)
    assert cli.main(["pde", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_parse_config_errors():
    with pytest.raises(ConfigError):
        parse_config_text("a.b = 1\na.b = 2\n")  # duplicate key
    with pytest.raises(ConfigError):
        parse_config_text("A.B = 1\n")  # keys are lowercase
    with pytest.raises(ConfigError):
        parse_config_text("just words\n")
    with pytest.raises(ConfigError):
        load_config("/nonexistent/path.cfg")


def test_float_round_trip():
    x = 0.1 + 0.2
    cfg = parse_config_text(f"a.x = {format_value(x)}")
    assert cfg.get_float("a.x") == x


def test_with_overrides():
    cfg = parse_config_text("run.noise_seed = 1\n")
    over = cfg.with_overrides(run__noise_seed=7, run__levels=(25, 50), run__flag=True)
    assert over.entries["run.noise_seed"] == "7"
    assert over.entries["run.levels"] == "25, 50"
    assert over.entries["run.flag"] == "1"
    assert cfg.entries["run.noise_seed"] == "1"  # original untouched


def test_write_csv_quoting(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [['has,comma and "quote"', True], [0.5, 2]])
    header, rows = read_rows(path)
    assert header == ["a", "b"]
    assert rows[0] == ['has,comma and "quote"', "1"]
    assert rows[1] == ["0.5", "2"]


def _oracle_write_csv(path, header, rows):
    """write_csv as one csv.writer row of format_cell strings per row."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_cell(cell) for cell in row])


def test_write_csv_matches_csv_writer_oracle_bytes(tmp_path):
    rows = [
        [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e22],
        [0, -7, 2**70, 1.5, -2.25e-300],
        [True, False, 3, 0.1],
        ["has,comma", 'a "quote"', "two\nlines", 1.0, 2],
        ["", 0.5, -1],
        [""],
        [],
        [np.float64(0.1), np.int64(-3), 4.0],
        [np.float64(-0.0), 7],
        [1e16, 123456789.125, -1e-7, 2**53 + 1],
    ]
    header = ["a", "b,c", "d"]
    write_csv(tmp_path / "got.csv", header, rows)
    _oracle_write_csv(tmp_path / "want.csv", header, rows)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def _oracle_field_rows(field, row_indices):
    """A value CSV's rows as lists of Python floats, all built before writing."""
    return [
        [float(field.times[k])] + [float(v) for v in field.values[k]]
        for k in row_indices
    ]


def test_field_csv_streams_its_rows(tmp_path):
    # the marks_long shape: 1600 intervals on 641 nodes
    grid = pde.SpatialGrid(-8.0, 8.0, 641)
    times = np.linspace(0.0, 0.5, 1601)
    values = np.cos(grid.xs)[None, :] * np.exp(-times)[:, None]
    field = pde.ValueField(grid=grid, times=times, values=values)
    tracemalloc.start()
    try:
        cli._field_csv(tmp_path / "streamed.csv", field, range(times.size))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the rows held as Python lists take about 33 MB
    assert peak < 2 * 2**20
    # each cell is formatted on its own, so every 8th row (first and last
    # included) shows a formatting difference as well as all rows would
    rows = range(0, times.size, 8)
    cli._field_csv(tmp_path / "streamed.csv", field, rows)
    header = ["time"] + [repr(float(x)) for x in grid.xs]
    write_csv(tmp_path / "listed.csv", header, _oracle_field_rows(field, rows))
    assert (tmp_path / "streamed.csv").read_bytes() == (tmp_path / "listed.csv").read_bytes()


# --- cli ---------------------------------------------------------------


def test_cli_static_frozen_table(tmp_path):
    cfg = write_cfg(tmp_path, "static.matrix = 1,2;3,0\nstatic.prio = 0.25\n")
    assert cli.main(["static", "--config", cfg, "--out", str(tmp_path)]) == 0
    header, rows = read_rows(tmp_path / "static_static.csv")
    assert header == ["quantity", "index", "value"]
    scalars = {r[0]: r[2] for r in rows if r[1] == ""}
    assert float(scalars["lower"]) == 1.0
    assert float(scalars["upper"]) == 2.0
    assert float(scalars["mixed"]) == 1.75
    assert float(scalars["residual"]) == 0.0
    assert float(scalars["supinf"]) == 1.75
    assert int(scalars["u_star"]) == 0 and int(scalars["v_star"]) == 1
    beta = {int(r[1]): int(r[2]) for r in rows if r[0] == "beta_star"}
    alpha = {int(r[1]): int(r[2]) for r in rows if r[0] == "alpha_star"}
    assert beta == {0: 0, 1: 1}
    assert alpha == {0: 1, 1: 0}
    manifest = tmp_path / "static_static_manifest.txt"
    assert manifest.exists()
    entries = load_config(manifest)
    assert entries.get_str("meta.command") == "static"
    assert "static_static.csv" in entries.get_str("meta.outputs")


def test_cli_schedule_pass(tmp_path):
    text = BILINEAR_CFG.replace("problem.horizon = 0.5", "problem.horizon = 1.0")
    text += "discretization.partition.n = 20\ndiscretization.block = 5\nrun.epsilon = 0.3\n"
    cfg = write_cfg(tmp_path, text)
    assert cli.main(["schedule", "--config", cfg, "--out", str(tmp_path)]) == 0
    header, rows = read_rows(tmp_path / "schedule_schedule.csv")
    assert header == ["interval", "t_left", "t_right", "step", "mark", "block"]
    assert len(rows) == 20
    assert set(r[4] for r in rows) == {"0", "1"}
    dheader, drows = read_rows(tmp_path / "schedule_density.csv")
    assert dheader == ["block", "t_start", "length", "target", "deviation"]
    assert len(drows) == 4
    for r in drows:
        assert abs(float(r[3]) - 0.5) == 0.0
        assert float(r[4]) <= 0.3


def test_cli_schedule_density_failure(tmp_path):
    # one block spanning the whole horizon cannot beat epsilon = 0.3
    text = BILINEAR_CFG.replace("problem.horizon = 0.5", "problem.horizon = 1.0")
    text += "discretization.partition.n = 20\ndiscretization.block = 20\nrun.epsilon = 0.3\n"
    cfg = write_cfg(tmp_path, text)
    assert cli.main(["schedule", "--config", cfg, "--out", str(tmp_path)]) == 4
    assert not (tmp_path / "schedule_schedule_manifest.txt").exists()


def test_cli_pde_cfl_exit(tmp_path):
    cfg = write_cfg(tmp_path, BILINEAR_CFG + "run.dt_safety = 5.0\n")
    assert cli.main(["pde", "--config", cfg, "--out", str(tmp_path)]) == 3


def test_cli_pde_nan_step_exits_2(tmp_path, capsys):
    # a NaN step passes the CFL comparison, so the solver's own check must catch it
    cfg = write_cfg(tmp_path, BILINEAR_CFG + "run.dt_safety = nan\n")
    assert cli.main(["pde", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "dt must be positive" in capsys.readouterr().err


def test_cli_schedule_nan_epsilon_exits_2(tmp_path, capsys):
    text = BILINEAR_CFG + "discretization.partition.n = 20\ndiscretization.block = 5\nrun.epsilon = nan\n"
    cfg = write_cfg(tmp_path, text)
    assert cli.main(["schedule", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "epsilon must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("stride", [0, -3])
def test_cli_pde_rejects_output_stride_below_one(tmp_path, capsys, monkeypatch, stride):
    def no_march(*args, **kwargs):
        raise AssertionError("a configured stride must be checked before the march")

    monkeypatch.setattr(cli.pde, "solve", no_march)
    cfg = write_cfg(tmp_path, BILINEAR_CFG + f"pde.output_stride = {stride}\n")
    assert cli.main(["pde", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "pde.output_stride must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "pde_pde.csv").exists()


def test_cli_blowup_exit(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise pde.BlowupError("values left the terminal bounds")

    monkeypatch.setattr(cli.pde, "solve", boom)
    cfg = write_cfg(tmp_path, BILINEAR_CFG)
    assert cli.main(["pde", "--config", cfg, "--out", str(tmp_path)]) == 5



def test_cli_dp_exits_5_when_the_sweep_leaves_the_terminal_bounds(tmp_path, monkeypatch, capsys):
    expect = engine.TransitionModel.expect

    def nan_expect(self, k, values):
        f = expect(self, k, values)
        f[..., 80] = np.nan
        return f

    monkeypatch.setattr(engine.TransitionModel, "expect", nan_expect)
    cfg = write_cfg(tmp_path, BILINEAR_CFG + "discretization.partition.n = 10\n")
    assert cli.main(["dp", "--config", cfg, "--out", str(tmp_path)]) == 5
    assert "left the terminal bounds" in capsys.readouterr().err

def test_cli_config_error_exits(tmp_path):
    missing = str(tmp_path / "nope.cfg")
    assert cli.main(["pde", "--config", missing, "--out", str(tmp_path)]) == 2

    bad_family = write_cfg(
        tmp_path,
        BILINEAR_CFG.replace("family = bilinear", "family = quartic"),
        name="fam.cfg",
    )
    assert cli.main(["pde", "--config", bad_family, "--out", str(tmp_path)]) == 2

    dup = write_cfg(tmp_path, "a.b = 1\na.b = 2\n", name="dup.cfg")
    assert cli.main(["static", "--config", dup, "--out", str(tmp_path)]) == 2

    single = write_cfg(
        tmp_path, BILINEAR_CFG + "run.levels = 25\nrun.paths = 10\n", name="one.cfg"
    )
    assert cli.main(["converge", "--config", single, "--out", str(tmp_path)]) == 2


def test_cli_pde_outputs(tmp_path):
    cfg = write_cfg(tmp_path, BILINEAR_CFG)
    out = tmp_path / "o"
    assert cli.main(["pde", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_rows(out / "pde_pde.csv")
    assert header[0] == "time"
    assert len(header) == 162
    # terminal slice is the payoff at the nodes
    xs = np.array([float(tok) for tok in header[1:]])
    last = np.array([float(tok) for tok in rows[-1][1:]])
    assert np.allclose(last, np.cos(xs), atol=1e-15)
    sheader, srows = read_rows(out / "pde_pde_summary.csv")
    assert sheader == ["hamiltonian", "dt", "steps", "value_at_start"]
    assert srows[0][0] == "mixed"
    assert abs(float(srows[0][3])) <= 1.0


def test_cli_hamiltonian_rows_ordered(tmp_path):
    text = BILINEAR_CFG.replace("discretization.grid.nodes = 161", "discretization.grid.nodes = 11")
    cfg = write_cfg(tmp_path, text)
    assert cli.main(["hamiltonian", "--config", cfg, "--out", str(tmp_path)]) == 0
    header, rows = read_rows(tmp_path / "hamiltonian_hamiltonian.csv")
    assert header == ["x", "grad", "hess", "lower", "upper", "mixed"]
    assert len(rows) == 11 * 9
    for r in rows:
        low, up, mid = float(r[3]), float(r[4]), float(r[5])
        assert low <= mid + 1e-12
        assert mid <= up + 1e-12


@pytest.mark.parametrize("raw", ["nan", "inf"])
@pytest.mark.parametrize("key", ["hamiltonian.grads", "hamiltonian.hessians"])
def test_cli_hamiltonian_rejects_non_finite_derivatives(tmp_path, capsys, key, raw):
    cfg = write_cfg(tmp_path, BILINEAR_CFG + f"{key} = {raw}, 1\n")
    assert cli.main(["hamiltonian", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "hamiltonian_hamiltonian.csv").exists()


def test_cli_dp_writes_strategies(tmp_path):
    cfg = write_cfg(
        tmp_path,
        BILINEAR_CFG + "discretization.partition.n = 10\ndp.write_strategies = 1\n",
    )
    assert cli.main(["dp", "--config", cfg, "--out", str(tmp_path)]) == 0
    for name in ["dp_dp_values.csv", "dp_dp_summary.csv", "dp_dp_strategies.csv"]:
        assert (tmp_path / name).exists()
    sheader, srows = read_rows(tmp_path / "dp_dp_summary.csv")
    row = dict(zip(sheader, srows[0]))
    assert row["mode"] == "random"
    assert int(row["intervals"]) == 10
    assert float(row["max_order_violation"]) <= 1e-9
    _, strat_rows = read_rows(tmp_path / "dp_dp_strategies.csv")
    assert len(strat_rows) == 10 * 161
    assert set(r[2] for r in strat_rows) <= {"0", "1"}


def test_cli_simulate_gap_column(tmp_path):
    cfg = write_cfg(
        tmp_path,
        BILINEAR_CFG
        + "discretization.partition.n = 10\nrun.paths = 200\nrun.substeps = 2\nrun.record_paths = 3\n",
    )
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
    header, rows = read_rows(tmp_path / "simulate_simulate.csv")
    row = dict(zip(header, rows[0]))
    assert row["mode"] == "random"
    assert int(row["paths"]) == 200
    assert float(row["gap"]) == float(row["mean"]) - float(row["dp_value_at_start"])
    pheader, prows = read_rows(tmp_path / "simulate_paths.csv")
    assert pheader[0] == "path"
    assert len(prows) == 3 * 10
    assert set(r[7] for r in prows) <= {"0", "1"}


def test_cli_seed_override(tmp_path):
    base = BILINEAR_CFG + "discretization.partition.n = 10\nrun.paths = 200\n"
    cfg = write_cfg(tmp_path, base)
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert cli.main(["simulate", "--config", cfg, "--out", str(a), "--seed", "5"]) == 0
    assert cli.main(["simulate", "--config", cfg, "--out", str(b), "--seed", "6"]) == 0
    manifest = load_config(a / "simulate_simulate_manifest.txt")
    assert manifest.get_int("run.noise_seed") == 5
    assert manifest.get_int("run.coin_seed") == 6
    _, rows_a = read_rows(a / "simulate_simulate.csv")
    _, rows_b = read_rows(b / "simulate_simulate.csv")
    assert rows_a[0][3] != rows_b[0][3]


def test_cli_custom_prefix(tmp_path):
    cfg = write_cfg(tmp_path, "static.matrix = 0.7\noutput.prefix = bench\n")
    assert cli.main(["static", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert (tmp_path / "bench_static.csv").exists()
    assert (tmp_path / "bench_static_manifest.txt").exists()


def converge_rows(path):
    header, rows = read_rows(path)
    return [dict(zip(header, r)) for r in rows]


def test_cli_converge_gaps_shrink(tmp_path):
    text = BILINEAR_CFG.replace("discretization.grid.nodes = 161", "discretization.grid.nodes = 641")
    text += (
        "run.levels = 25, 50, 100\nrun.mode = both\nrun.paths = 500\n"
        "run.substeps = 2\nrun.window = 2.0\n"
    )
    cfg = write_cfg(tmp_path, text)
    assert cli.main(["converge", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = converge_rows(tmp_path / "converge_converge.csv")
    assert len(rows) == 6
    for mode in ("random", "deterministic"):
        gaps = [float(r["sup_gap_window"]) for r in rows if r["mode"] == mode]
        assert len(gaps) == 3
        for a, b in zip(gaps, gaps[1:]):
            assert b <= 1.1 * a
        assert gaps[-1] <= 5e-2
    for r in rows:
        assert float(r["max_order_violation"]) <= 1e-9
        if r["mode"] == "deterministic":
            assert int(r["block"]) == int(round(np.sqrt(float(r["n"]))))


def test_cli_converge_levels_override(tmp_path):
    text = """
    problem.coefficients.family = constant
    problem.coefficients.params = 0.01, 1.0
    problem.payoff.family = cosine
    problem.payoff.params = 1.0, 1.0
    problem.priority.family = constant
    problem.priority.params = 0.5
    problem.actions.u = 0
    problem.actions.v = 0
    problem.horizon = 0.5
    discretization.grid.lower = -6
    discretization.grid.upper = 6
    discretization.grid.nodes = 161
    run.levels = 2, 3
    run.paths = 50
    run.substeps = 1
    """
    cfg = write_cfg(tmp_path, text)
    assert cli.main(["converge", "--config", cfg, "--out", str(tmp_path), "--levels", "4,8"]) == 0
    rows = converge_rows(tmp_path / "converge_converge.csv")
    assert [int(r["n"]) for r in rows] == [4, 8]
    for r in rows:
        assert float(r["sup_gap_window"]) < 2e-2
    manifest = load_config(tmp_path / "converge_converge_manifest.txt")
    assert manifest.get_ints("run.levels") == (4, 8)


def test_cli_converge_zero_horizon(tmp_path):
    text = BILINEAR_CFG + (
        "problem.start.time = 0.5\nrun.levels = 2, 4\nrun.paths = 10\n"
    )
    cfg = write_cfg(tmp_path, text)
    assert cli.main(["converge", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = converge_rows(tmp_path / "converge_converge.csv")
    for r in rows:
        assert float(r["sup_gap_window"]) == 0.0
        assert float(r["dp_at_start"]) == 1.0
        assert float(r["mc_mean"]) == 1.0


def test_cli_pde_zero_horizon(tmp_path):
    # start time = horizon: no step is taken and the value is g(x0) = cos 0
    cfg = write_cfg(tmp_path, BILINEAR_CFG + "problem.start.time = 0.5\n")
    assert cli.main(["pde", "--config", cfg, "--out", str(tmp_path)]) == 0
    header, rows = read_rows(tmp_path / "pde_pde.csv")
    assert len(rows) == 1
    xs = np.array([float(tok) for tok in header[1:]])
    assert np.array_equal(np.array([float(tok) for tok in rows[0][1:]]), np.cos(xs))
    sheader, srows = read_rows(tmp_path / "pde_pde_summary.csv")
    row = dict(zip(sheader, srows[0]))
    assert int(row["steps"]) == 0
    assert float(row["dt"]) == 0.0
    assert float(row["value_at_start"]) == 1.0
    assert (tmp_path / "pde_pde_manifest.txt").exists()


def test_cli_negative_payoff_cap_exits_2(tmp_path, capsys):
    text = BILINEAR_CFG.replace(
        "problem.payoff.family = cosine\nproblem.payoff.params = 1.0, 1.0",
        "problem.payoff.family = clipped_quadratic\nproblem.payoff.params = -1.0",
    )
    assert "clipped_quadratic" in text
    cfg = write_cfg(tmp_path, text)
    assert cli.main(["pde", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "cap must be non-negative" in capsys.readouterr().err
    assert not (tmp_path / "pde_pde_manifest.txt").exists()


def test_cli_simulate_negative_seed_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BILINEAR_CFG + "discretization.partition.n = 4\nrun.paths = 10\n")
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path), "--seed", "-5"]) == 2
    assert "seed must be non-negative" in capsys.readouterr().err
    assert not (tmp_path / "simulate_simulate_manifest.txt").exists()


def test_cli_converge_negative_coin_seed_exits_2(tmp_path, capsys):
    text = BILINEAR_CFG + "run.levels = 2, 4\nrun.paths = 10\nrun.coin_seed = -1\n"
    cfg = write_cfg(tmp_path, text)
    assert cli.main(["converge", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "seed must be non-negative, got -1" in capsys.readouterr().err
    assert not (tmp_path / "converge_converge_manifest.txt").exists()
