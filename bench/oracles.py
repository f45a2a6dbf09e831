"""Closed forms and output checks for the benchmark game, written apart from isaacslab.

The game is  dX = kappa u v dt + s0 dW  with u, v in {-1, 1}, payoff cos x,
horizon T and priority p = 1/2 on [-8, 8].  Its value is exactly

    v(t, x) = exp(-(T - t)) cos x,

because the mixed Hamiltonian p (-kappa |q| + h) + (1 - p)(kappa |q| + h)
collapses to h = s0^2 / 2 v_xx at p = 1/2.  Every check below compares a
program output with a formula from this file, or with a property the
method must have; none reads a number from an earlier run.

Tolerances are derived, not fitted.  Each one names the error terms it
allows.  Every derivative of the exact value at time t is bounded by
exp(-(T - t)) in absolute value, and the error a step makes is carried
forward by a monotone, sup-norm non-expansive step without growing:

* explicit PDE: the global error is at most the consistency error on the
  exact solution summed over the steps, which is kappa dx / 2 from the
  upwinded drift, s0^2 dx^2 / 24 from the central second difference and
  dt / 2 from the explicit step, per unit time, each times exp(-(T - t))
  at the step's known slice: dt (1 - exp(-T)) / (1 - exp(-dt)) in all;
* lattice DP: without interpolation, one interval of the 3-point
  Gauss-Hermite lattice maps A cos x to A lam(h) cos x exactly, with
  lam(h) = (2/3 + cos(sqrt(3 h) s0) / 3) cos(kappa h); linear
  interpolation of lam^j cos x errs by at most lam^j dx^2 / 8, so the
  intervals add (1 - lam^n) / (1 - lam) dx^2 / 8 in all.  A mark schedule
  plays lower or upper values, whose slices are not multiples of cos x;
  there only |v_xx| <= 1 is used, n dx^2 / 8 in all;
* Monte Carlo play: with exact Gaussian increments and actions frozen per
  interval the discrete game has value exp(-T) cos(kappa h)^n cos x0;
  looking strategies up at the nearest node can pick a wrong action only
  within half a cell of a point where sin x = 0, which costs at most
  kappa dx per unit time; the estimate itself may stray by 4 standard
  errors;
* mark schedules: a block's opposite marks cancel to first order, and at
  most one unpaired interval per block is left, worth kappa h.

EDGE_ALLOWANCE covers what the edges at |x| = 8 (zero-slope ghost nodes,
clamped successors) leak into the window |x| <= 2 within T = 0.5: after
diffusion of variance s0^2 T = 1 and drift of at most kappa T = 2, the edge
lies four standard deviations away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

KAPPA = 4.0
S0 = math.sqrt(2.0)
T = 0.5
P = 0.5
LOWER, UPPER = -8.0, 8.0
WINDOW = 2.0
EDGE_ALLOWANCE = 1e-3
ROUNDING = 1e-12
MC_SIGMAS = 4.0
# ratio of DP errors for n and 2n: 2 for a first-order method, give or take
# a quarter for the interpolation term, which grows with n
HALVING_RANGE = (1.5, 2.5)
# Gauss-Hermite abscissas of a unit normal, 3 points (weights 1/6, 2/3, 1/6)
GH3_NODES = np.array([-math.sqrt(3.0), 0.0, math.sqrt(3.0)])


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def _check(name: str, ok, detail: str) -> Check:
    return Check(name, bool(ok), detail)


# --- closed forms ---------------------------------------------------------------


def exact_value(t: float, x):
    return np.exp(-(T - t)) * np.cos(x)


def lattice_factor(h: float) -> float:
    """One interval of the randomized 3-point lattice applied to cos x, without interpolation."""
    noise = 2.0 / 3.0 + math.cos(math.sqrt(3.0 * h) * S0) / 3.0
    return noise * math.cos(KAPPA * h)


def play_value(n: int, x0: float = 0.0) -> float:
    """Value of the n-interval game with exact Gaussian increments and frozen actions."""
    h = T / n
    return math.exp(-T) * math.cos(KAPPA * h) ** n * math.cos(x0)


def hamiltonians(grad, hess):
    """(lower, upper, mixed) of the benchmark game at gradient g and Hessian h."""
    grad = np.asarray(grad, dtype=float)
    diff = 0.5 * S0 * S0 * np.asarray(hess, dtype=float)
    return -KAPPA * np.abs(grad) + diff, KAPPA * np.abs(grad) + diff, diff


def window_error(xs, values, t: float = 0.0) -> float:
    """sup over |x| <= 2 of |values - exact value at t|."""
    xs = np.asarray(xs, dtype=float)
    w = np.abs(xs) <= WINDOW
    return float(np.max(np.abs(np.asarray(values)[w] - exact_value(t, xs[w]))))


def grid_xs(nodes: int) -> np.ndarray:
    return np.linspace(LOWER, UPPER, nodes)


# --- tolerances -------------------------------------------------------------------


def pde_tolerance(dx: float, dt: float) -> float:
    decay = dt * -math.expm1(-T) / -math.expm1(-dt)  # sum of exp(-(T - t)) dt over steps
    return decay * (KAPPA * dx / 2.0 + S0**2 * dx**2 / 24.0 + dt / 2.0) + EDGE_ALLOWANCE


def dp_tolerance(n: int, dx: float, marks: bool = False) -> float:
    """Allowed distance of the DP start slice from lattice_factor(T/n)^n cos x."""
    if marks:
        return n * dx * dx / 8.0 + EDGE_ALLOWANCE + KAPPA * T / n
    lam = lattice_factor(T / n)
    return (1.0 - lam**n) / (1.0 - lam) * dx * dx / 8.0 + EDGE_ALLOWANCE


def mc_tolerance(n: int, dx: float, std_error: float, marks: bool = False) -> float:
    """Allowed distance of a Monte Carlo mean from play_value(n)."""
    extra = KAPPA * T / n if marks else 0.0
    return MC_SIGMAS * std_error + KAPPA * dx * T + extra


# --- checks on solver outputs -------------------------------------------------------


def check_bounded(name: str, values) -> Check:
    """A monotone scheme never leaves the range of its terminal data, [-1, 1]."""
    lo, hi = float(np.min(values)), float(np.max(values))
    ok = lo >= -1.0 - ROUNDING and hi <= 1.0 + ROUNDING
    return _check(name, ok, f"range [{lo:.15g}, {hi:.15g}] within [-1, 1]")


def check_pde(xs, start_slice, dt: float) -> tuple[Check, float]:
    xs = np.asarray(xs, dtype=float)
    err = window_error(xs, start_slice)
    tol = pde_tolerance(xs[1] - xs[0], dt)
    return _check("pde_vs_closed_form", err <= tol, f"err {err:.6g}, allowed {tol:.6g}"), err


def check_dp(xs, start_slice, n: int, marks: bool = False) -> tuple[Check, float]:
    """DP start slice against the semi-discrete closed form; returns (check, dp_err)."""
    xs = np.asarray(xs, dtype=float)
    w = np.abs(xs) <= WINDOW
    centre = lattice_factor(T / n) ** n * np.cos(xs[w])
    dist = float(np.max(np.abs(np.asarray(start_slice)[w] - centre)))
    tol = dp_tolerance(n, xs[1] - xs[0], marks)
    err = window_error(xs, start_slice)
    return (
        _check("dp_vs_closed_form", dist <= tol,
               f"|dp - lam^n cos x| {dist:.6g}, allowed {tol:.6g} (dp_err {err:.6g})"),
        err,
    )


def check_halving(errors: dict[int, float]) -> Check:
    """DP error against exp(-T) cos x roughly halves per doubling of n."""
    levels = sorted(errors)
    ratios = [errors[a] / errors[b] for a, b in zip(levels, levels[1:]) if b == 2 * a]
    lo, hi = HALVING_RANGE
    ok = bool(ratios) and all(lo <= r <= hi for r in ratios)
    text = ", ".join(f"{r:.3f}" for r in ratios)
    return _check("dp_error_halves", ok, f"ratios [{text}] within [{lo}, {hi}]")


def check_order(max_order_violation: float) -> Check:
    """Lower value <= upper value in every local game."""
    return _check("lower_le_upper", max_order_violation <= ROUNDING,
                  f"max violation {max_order_violation:.3g}")


def check_successors(xs, times, successors) -> Check:
    """Lattice successors x + kappa u v h + s0 sqrt(h) zeta for u, v in {-1, 1}."""
    xs = np.asarray(xs, dtype=float)
    h = np.diff(np.asarray(times, dtype=float))
    uv = np.array([[1.0, -1.0], [-1.0, 1.0]])  # u_a * v_b for actions (-1, 1)
    expect = (
        xs[None, :, None, None, None]
        + KAPPA * uv[None, None, :, :, None] * h[:, None, None, None, None]
        + S0 * np.sqrt(h)[:, None, None, None, None] * GH3_NODES
    )
    if successors.shape != expect.shape:
        return _check("lattice_successors", False,
                      f"shape {successors.shape} != {expect.shape}")
    dev = float(np.max(np.abs(successors - expect)))
    return _check("lattice_successors", dev <= 1e-12 * (1.0 + UPPER),
                  f"max deviation {dev:.3g}")


def check_mc(mean: float, std_error: float, n: int, dx: float,
             marks: bool = False) -> Check:
    centre = play_value(n)
    tol = mc_tolerance(n, dx, std_error, marks)
    return _check("mc_vs_closed_form", abs(mean - centre) <= tol,
                  f"|{mean:.6f} - {centre:.6f}|, allowed {tol:.6f} (se {std_error:.3g})")


def check_mc_vs_dp(mean: float, std_error: float, dp_value: float) -> Check:
    gap = mean - dp_value
    return _check("mc_vs_dp", abs(gap) <= MC_SIGMAS * std_error,
                  f"gap {gap:.6f} = {gap / std_error:.2f} SE, allowed {MC_SIGMAS:g} SE")


def check_challenger(label: str, fixed_side: str, mean: float, se: float,
                     dp_mean: float, dp_se: float) -> Check:
    """No challenger beats dp_best_response by more than 4 combined standard errors.

    With u frozen the challengers play v and push the payoff down; with v
    frozen they play u and push it up.
    """
    combined = math.hypot(se, dp_se)
    gain = (dp_mean - mean) if fixed_side == "u" else (mean - dp_mean)
    return _check(f"challenger_{fixed_side}_{label}", gain <= MC_SIGMAS * combined,
                  f"gain {gain:.5f}, allowed {MC_SIGMAS:g} x {combined:.5f}")


def check_replay(times, substeps: int, substep_states, u_actions, v_actions,
                 noise, payoff: float, actions=(-1.0, 1.0)) -> Check:
    """Rebuild a recorded path from its actions and noise: x += kappa u v h + s0 dW."""
    actions = np.asarray(actions, dtype=float)
    noise = np.asarray(noise, dtype=float).reshape(len(times) - 1, substeps)
    x = float(substep_states[0])
    states = [x]
    for k in range(len(times) - 1):
        h = (float(times[k + 1]) - float(times[k])) / substeps
        drift = KAPPA * actions[int(u_actions[k])] * actions[int(v_actions[k])]
        for s in range(substeps):
            x = x + drift * h + S0 * float(noise[k, s])
            states.append(x)
    states = np.array(states)
    dev = float(np.max(np.abs(states - np.asarray(substep_states, dtype=float))))
    pay = abs(math.cos(x) - payoff)
    ok = dev <= 1e-9 and pay <= 1e-9
    return _check("path_replay", ok, f"state deviation {dev:.3g}, payoff deviation {pay:.3g}")


# --- checks on CLI outputs -----------------------------------------------------------


def check_hamiltonian_rows(rows) -> Check:
    """rows: array with columns x, grad, hess, lower, upper, mixed."""
    rows = np.asarray(rows, dtype=float)
    lower, upper, mixed = hamiltonians(rows[:, 1], rows[:, 2])
    got = rows[:, 3:6]
    want = np.stack([lower, upper, mixed], axis=1)
    dev = float(np.max(np.abs(got - want) / (1.0 + np.abs(want))))
    return _check("hamiltonian_closed_form", dev <= ROUNDING * 10,
                  f"{rows.shape[0]} rows, max relative deviation {dev:.3g}")


def check_schedule_rows(rows, density_rows, epsilon: float, p: float = P) -> Check:
    """Recompute each block's time-weighted mark fraction from the schedule CSV.

    rows: columns interval, t_left, t_right, step, mark, block.
    density_rows: columns block, t_start, length, target, deviation.
    Every block must be shorter than epsilon and its fraction within
    epsilon of p; the CLI's own density table must agree.
    """
    rows = np.asarray(rows, dtype=float)
    density_rows = np.atleast_2d(np.asarray(density_rows, dtype=float))
    marks = rows[:, 4]
    if not np.all((marks == 0.0) | (marks == 1.0)):
        return _check("mark_density", False, "marks other than 0 and 1")
    if not np.allclose(rows[1:, 1], rows[:-1, 2], rtol=0.0, atol=ROUNDING):
        return _check("mark_density", False, "intervals are not contiguous")
    blocks = rows[:, 5].astype(int)
    worst_dev = 0.0
    worst_len = 0.0
    worst_table = 0.0
    ids = np.unique(blocks)
    if ids.size != density_rows.shape[0]:
        return _check("mark_density", False, "density table has a different block count")
    for i, b in enumerate(ids):
        sel = blocks == b
        length = float(np.sum(rows[sel, 3]))
        frac = float(np.sum(rows[sel, 3] * marks[sel])) / length
        dev = abs(frac - p)
        worst_dev = max(worst_dev, dev)
        worst_len = max(worst_len, length)
        worst_table = max(worst_table, abs(dev - density_rows[i, 4]),
                          abs(length - density_rows[i, 2]))
    ok = (worst_dev <= epsilon + ROUNDING and worst_len <= epsilon + ROUNDING
          and worst_table <= 1e-9)
    return _check(
        "mark_density", ok,
        f"{ids.size} blocks, max deviation {worst_dev:.3g}, max length {worst_len:.3g}, "
        f"epsilon {epsilon:g}, table mismatch {worst_table:.3g}",
    )


def check_strategy_rows(rows, nodes: int, block: int, intervals: int) -> Check:
    """rows: columns interval_start, x, u_plain, v_plain; one row per block and node."""
    rows = np.asarray(rows, dtype=float)
    starts = np.unique(rows[:, 0]).astype(int)
    want_starts = np.arange(0, intervals, block)
    acts = rows[:, 2:4]
    ok = (
        rows.shape[0] == want_starts.size * nodes
        and np.array_equal(starts, want_starts)
        and np.all((acts == 0.0) | (acts == 1.0))
    )
    return _check("strategy_table", ok,
                  f"{rows.shape[0]} rows, {starts.size} block starts, actions in {{0, 1}}")
