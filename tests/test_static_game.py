import numpy as np
import pytest

from isaacslab.static_game import (
    LocalGameMatrix,
    StaticGameError,
    local_saddle,
    local_values,
    mix,
    play_one_period,
    representation_residual,
    saddle,
)

seed = 0

# f(u, v) = u * v on U = V = {-1, +1}; rows are u actions
UV = np.array([[1.0, -1.0], [-1.0, 1.0]])
F = np.array([[1.0, 2.0], [3.0, 0.0]])


def test_lower_upper_on_uv_game():
    sad = saddle(UV, 0.5)
    assert sad.lower == -1.0
    assert sad.upper == 1.0
    # the second mover answers with the sign-opposing (resp. matching) action
    assert sad.beta_star.tolist() == [1, 0]
    assert sad.alpha_star.tolist() == [0, 1]
    assert sad.u_star == 0 and sad.v_star == 0  # ties break to the lowest index


def _tied_actions(shape, rng):
    """Entries from {-1, -0.0, +0.0, 1}, so most comparisons tie, zero signs included."""
    return rng.choice(np.array([-1.0, -0.0, 0.0, 1.0]), size=shape)


@pytest.mark.parametrize("batch", [(), (97,)], ids=["single", "batch97"])
@pytest.mark.parametrize("ku, kv", [(1, 1), (2, 2), (3, 2), (2, 4)])
def test_local_kernels_match_reductions_bitwise(ku, kv, batch):
    rng = np.random.default_rng(ku * 10 + kv + len(batch))
    f = _tied_actions((ku, kv) + batch, rng)
    # the last column repeats the first, so a tie spans the whole v axis
    f[:, -1] = f[:, 0]
    row_floor = np.minimum.reduce(f, axis=1)
    col_ceil = np.maximum.reduce(f, axis=0)
    want = (
        np.maximum.reduce(row_floor, axis=0),
        np.minimum.reduce(col_ceil, axis=0),
        np.argmax(row_floor, axis=0),
        np.argmax(f, axis=0),
        np.argmin(col_ceil, axis=0),
        np.argmin(f, axis=1),
    )
    for got, ref in zip(local_saddle(f) + local_values(f), want + want[:2]):
        got, ref = np.asarray(got), np.asarray(ref)
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("ku, kv", [(1, 1), (2, 2), (3, 2), (2, 4)])
def test_local_saddle_out_writes_the_strategies_into_table_rows_bitwise(ku, kv):
    rng = np.random.default_rng(ku * 10 + kv)
    f = _tied_actions((ku, kv, 97), rng)
    want = local_saddle(f)
    # rows of (rows, nodes) and (rows, nodes, opp) tables, as the backward sweep
    # stores them: the counter maps land through transposed views
    tables = (np.full((3, 97), -1), np.full((3, 97, kv), -1),
              np.full((3, 97), -1), np.full((3, 97, ku), -1))
    out = (tables[0][1], tables[1][1].T, tables[2][1], tables[3][1].T)
    got = local_saddle(f, out=out)
    for g, o in zip(got[2:], out):
        assert g is o
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
    for table in tables:
        assert np.all(table[[0, 2]] == -1)


def test_local_saddle_keeps_the_lowest_tied_index():
    rows = np.array([[0.0, -0.0, 0.0], [1.0, 2.0, 2.0], [3.0, 1.0, 3.0], [-1.0, -2.0, -2.0]])
    # as f[u, v] = rows.T, u's counter to column j is the argmax of rows[j]
    assert local_saddle(rows.T)[3].tolist() == [0, 1, 0, 0]
    # as f[u, v] = rows, v's counter to row i is the argmin of rows[i]
    assert local_saddle(rows)[5].tolist() == [0, 0, 1, 1]


def test_lower_upper_on_integer_matrix():
    sad = saddle(F, 0.5)
    assert sad.lower == 1.0 and sad.u_star == 0  # row mins (1, 0)
    assert sad.upper == 2.0 and sad.v_star == 1  # column maxes (3, 2)


def test_constant_matrix_is_its_own_value():
    c = np.full((3, 2), 0.7)
    sad = saddle(c, 0.4)
    assert sad.lower == 0.7 and sad.upper == 0.7
    supinf, infsup, residual = representation_residual(c, 0.4)
    assert supinf == 0.7 and infsup == 0.7 and residual == 0.0


def test_mixed_value_endpoints_and_blend():
    assert saddle(UV, 0.5).mixed == 0.0
    assert saddle(UV, 0.25).mixed == 0.5
    assert saddle(UV, 1.0).mixed == saddle(UV, 1.0).lower
    assert saddle(UV, 0.0).mixed == saddle(UV, 0.0).upper


def test_mixed_value_affine_in_prio():
    rng = np.random.default_rng(seed)
    mat = rng.normal(size=(3, 4))
    a, b, lam = 0.2, 0.9, 0.3
    blend = lam * a + (1 - lam) * b
    direct = saddle(mat, blend).mixed
    split = lam * saddle(mat, a).mixed + (1 - lam) * saddle(mat, b).mixed
    assert abs(direct - split) < 1e-12


def test_mix_exact_endpoints_are_bitwise():
    # a plain blend turns 1 * (-0.0) + 0 * 1 into +0.0, and likewise at p = 0
    assert np.signbit(mix(1.0, -0.0, 1.0))
    assert np.signbit(mix(0.0, 1.0, -0.0))
    rng = np.random.default_rng(seed)
    lower, upper = rng.normal(size=40), rng.normal(size=40)
    lower[::2], upper[1::2] = -0.0, -0.0
    prio = np.tile([1.0, 0.0, 0.3, 1.0], 10)
    out = mix(prio, lower, upper)
    for side, where in ((lower, prio == 1.0), (upper, prio == 0.0)):
        assert np.array_equal(out[where], side[where])
        assert np.array_equal(np.signbit(out[where]), np.signbit(side[where]))
    mid = prio == 0.3
    assert np.array_equal(out[mid], 0.3 * lower[mid] + (1.0 - 0.3) * upper[mid])


@pytest.mark.parametrize("prio", [1.0, 0.0, 0.3, 0.5, 0.7, 1.0 - 2.0**-53])
def test_mix_scalar_priority_matches_equal_array_bitwise(prio):
    # the scalar path skips the selection passes but must give the array path's bits
    rng = np.random.default_rng(seed)
    lower, upper = rng.normal(size=40), rng.normal(size=40)
    lower[::3], upper[1::3] = -0.0, -0.0
    lower[2::5], upper[2::5] = 0.0, -0.0
    for p in (prio, np.float64(prio), np.array(prio)):
        out = mix(p, lower, upper)
        expect = mix(np.full(40, prio), lower, upper)
        assert out.tobytes() == expect.tobytes()
    if prio in (0.0, 1.0):
        assert mix(prio, lower, upper) is (lower if prio == 1.0 else upper)


@pytest.mark.parametrize("prio", [1.0, 0.0, 0.3, 1.0 - 2.0**-53, "array"])
def test_mix_into_out_is_mix_bitwise(prio):
    # the in-place sum p * lower, then += (1 - p) * upper, gives mix's bits
    rng = np.random.default_rng(seed)
    lower, upper = rng.normal(size=40), rng.normal(size=40)
    lower[::3], upper[1::3] = -0.0, -0.0
    lower[2::5], upper[2::5] = 0.0, -0.0
    if prio == "array":
        prio = np.tile([1.0, 0.0, 0.3, 0.7], 10)
    out = np.full(40, np.nan)
    assert mix(prio, lower, upper, out=out) is out
    assert out.tobytes() == mix(prio, lower, upper).tobytes()


def test_mix_scalar_returns_float():
    for prio in (0.25, np.float64(0.25), np.array(0.25)):
        out = mix(prio, -1.0, 1.0)
        assert type(out) is float and out == 0.5
    assert type(mix(1.0, np.float64(-1.0), 1.0)) is float


@pytest.mark.parametrize("bad", [np.nan, -0.1, 1.1, np.inf])
def test_mix_rejects_priorities_outside_unit_interval(bad):
    with pytest.raises(StaticGameError):
        mix(bad, 0.0, 1.0)
    with pytest.raises(StaticGameError):
        mix(np.array([0.5, bad, 1.0]), np.zeros(3), np.ones(3))


def test_lower_never_exceeds_upper():
    rng = np.random.default_rng(seed)
    for _ in range(200):
        mat = rng.normal(size=(rng.integers(1, 5), rng.integers(1, 5)))
        sad = saddle(mat, 0.5)
        assert sad.lower <= sad.upper + 1e-12


def test_input_validation():
    with pytest.raises(StaticGameError):
        LocalGameMatrix(np.array([1.0, 2.0]))  # not a matrix
    with pytest.raises(StaticGameError):
        LocalGameMatrix(np.array([[np.nan, 0.0]]))
    with pytest.raises(StaticGameError):
        saddle(UV, 1.2)
    with pytest.raises(StaticGameError):
        representation_residual(np.zeros((5, 2)), 0.5)  # enumeration cap


def test_saddle_fields_consistent():
    rng = np.random.default_rng(seed)
    for _ in range(50):
        mat = rng.normal(size=(rng.integers(1, 5), rng.integers(1, 5)))
        sad = saddle(mat, 0.25)
        assert sad.lower == mat[sad.u_star, sad.beta_star[sad.u_star]]
        assert sad.upper == mat[sad.alpha_star[sad.v_star], sad.v_star]
        assert sad.lower <= sad.upper + 1e-12
        assert sad.mixed == mix(0.25, sad.lower, sad.upper)


def test_saddle_deterministic_tie_breaks():
    flat = np.ones((3, 3))
    a = saddle(flat, 0.5)
    b = saddle(flat, 0.5)
    assert (a.u_star, a.v_star) == (0, 0) == (b.u_star, b.v_star)
    assert np.array_equal(a.beta_star, np.zeros(3, dtype=int))


def test_representation_identity_uv_game():
    supinf, infsup, residual = representation_residual(UV, 0.3)
    assert residual < 1e-12
    # enumerated saddle: 0.3 * (-1) + 0.7 * (+1)
    assert abs(supinf - 0.4) < 1e-12
    assert abs(infsup - 0.4) < 1e-12


def test_representation_identity_random_sweep():
    rng = np.random.default_rng(seed)
    for _ in range(25):
        mat = rng.normal(size=(3, 3))
        _, _, residual = representation_residual(mat, rng.uniform())
        assert residual < 1e-12


def test_play_one_period_branch_selection():
    sad = saddle(F, 0.5)
    u_choice = (sad.u_star, sad.alpha_star)
    v_choice = (sad.v_star, sad.beta_star)
    heads = play_one_period(F, 0.5, u_choice, v_choice, coin=0.0)
    tails = play_one_period(F, 0.5, u_choice, v_choice, coin=0.9)
    assert heads == F[sad.u_star, sad.beta_star[sad.u_star]]
    assert tails == F[sad.alpha_star[sad.v_star], sad.v_star]
    always_tails = play_one_period(F, 0.0, u_choice, v_choice, coin=0.0)
    assert always_tails == tails


def test_play_one_period_degenerate_needs_no_coin():
    sad = saddle(F, 0.0)
    u_choice = (sad.u_star, sad.alpha_star)
    v_choice = (sad.v_star, sad.beta_star)
    val = play_one_period(F, 0.0, u_choice, v_choice, coin=None)
    assert val == F[sad.alpha_star[sad.v_star], sad.v_star]
    with pytest.raises(StaticGameError):
        play_one_period(F, 0.5, u_choice, v_choice, coin=None)
    with pytest.raises(StaticGameError):
        play_one_period(F, 0.5, u_choice, v_choice, coin=1.0)


def test_play_one_period_rejects_malformed_maps():
    sad = saddle(F, 0.5)
    with pytest.raises(StaticGameError):
        play_one_period(F, 0.5, (5, sad.alpha_star), (sad.v_star, sad.beta_star), 0.3)
    with pytest.raises(StaticGameError):
        play_one_period(F, 0.5, (0, np.array([0, 0, 0])), (sad.v_star, sad.beta_star), 0.3)


def test_play_expectation_tracks_mixed_value():
    # saddle play on u*v: heads pays the lower value, tails the upper one
    prio = 0.3
    game = LocalGameMatrix(UV)
    sad = saddle(game, prio)
    u_choice = (sad.u_star, sad.alpha_star)
    v_choice = (sad.v_star, sad.beta_star)
    rng = np.random.default_rng(seed)
    coins = rng.random(100_000)
    vals = np.fromiter(
        (play_one_period(game, prio, u_choice, v_choice, coin=c) for c in coins),
        dtype=float,
        count=coins.size,
    )
    se = vals.std(ddof=1) / np.sqrt(vals.size)
    assert abs(vals.mean() - sad.mixed) <= 3.0 * se
