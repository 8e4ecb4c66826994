import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcdval import (
    CharacteristicFn,
    CoalitionGame,
    EMPTY_SET,
    PointSet,
    RngStream,
    exact_shapley,
    flat_mcds,
    group_shapley,
    independent_player_estimate,
    leave_one_out,
    make_synthetic,
    monte_carlo_shapley,
    random_values,
)
from hcdval import shapley
from hcdval.shapley import _permutations

from conftest import permutation_average_oracle, random_table_game, reference_permutation


def make_game(K, payoff_fn, bound=1.0):
    return CoalitionGame([PointSet([i]) for i in range(K)], payoff_fn, bound=bound)


def glove_game():
    # player 0 holds the odd glove; a pair forms with either of 1, 2
    def payoff(points):
        ids = set(points.indices.tolist())
        return 1.0 if 0 in ids and (1 in ids or 2 in ids) else 0.0

    return make_game(3, payoff)


def test_exact_shapley_glove_game():
    est = exact_shapley(glove_game())
    assert est.values == pytest.approx([2 / 3, 1 / 6, 1 / 6], abs=1e-12)
    assert est.mode == "exact"
    assert est.T == 0


def test_exact_matches_permutation_average_oracle():
    for seed in range(8):
        game, _ = random_table_game(4, seed)
        want = permutation_average_oracle(game)
        got = exact_shapley(game).values
        assert got == pytest.approx(want, abs=1e-12)


def test_exact_efficiency_on_random_games():
    for seed in range(20):
        game, _ = random_table_game(5, seed)
        est = exact_shapley(game)
        surplus = game.value_of_ids(list(range(5))) - game.value_of_ids([])
        assert abs(est.values.sum() - surplus) <= 1e-9


def test_exact_symmetry_with_planted_pair():
    base, _ = random_table_game(4, 42)

    def swapped(points):
        ids = [3 if i == 2 else 2 if i == 3 else i for i in points.indices.tolist()]
        return base._eval(PointSet(ids))

    # symmetrise players 2 and 3
    def payoff(points):
        return 0.5 * (base._eval(points) + swapped(points))

    est = exact_shapley(make_game(4, payoff))
    assert abs(est.values[2] - est.values[3]) <= 1e-9


def test_exact_dummy_player_gets_zero():
    base, _ = random_table_game(4, 7)

    def payoff(points):
        ids = [i for i in points.indices.tolist() if i != 4]
        return base._eval(PointSet(ids))

    est = exact_shapley(make_game(5, payoff))
    assert abs(est.values[4]) <= 1e-9


def test_exact_additivity_is_linear():
    g1, _ = random_table_game(5, 1)
    g2, _ = random_table_game(5, 2)

    def combined(points):
        return g1._eval(points) + g2._eval(points)

    lhs = exact_shapley(make_game(5, combined, bound=2.0)).values
    rhs = exact_shapley(g1).values + exact_shapley(g2).values
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_game_players_must_be_disjoint():
    with pytest.raises(ValueError, match="disjoint"):
        CoalitionGame([PointSet([0, 1]), PointSet([2]), PointSet([1, 5])], lambda pts: 0.0)
    with pytest.raises(ValueError, match="disjoint"):
        CoalitionGame([PointSet([4]), PointSet([4])], lambda pts: 0.0)
    assert CoalitionGame([PointSet([0, 3]), PointSet([]), PointSet([1, 2])], lambda pts: 0.0).K == 3


def test_exact_player_limit_names_the_alternative():
    game = make_game(13, lambda pts: 0.0)
    with pytest.raises(ValueError, match="monte_carlo_shapley"):
        exact_shapley(game)


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 5_000), K=st.integers(2, 6), T=st.integers(1, 24))
def test_prefix_estimator_is_exactly_efficient(seed, K, T):
    game, _ = random_table_game(K, seed)
    est = monte_carlo_shapley(game, T, RngStream(seed, "eff"))
    surplus = game.value_of_ids(list(range(K))) - game.value_of_ids([])
    assert abs(est.values.sum() - surplus) <= 1e-9


def test_prefix_estimator_converges_to_exact():
    game, _ = random_table_game(5, 11)
    exact = exact_shapley(game).values
    est = monte_carlo_shapley(game, 4000, RngStream(0, "conv"))
    assert est.values == pytest.approx(exact, abs=0.05)


def _sweeps_by_hand(game, log) -> np.ndarray:
    """Prefix sweeps over ``reference_permutation(seed, K)`` for each logged seed."""
    vals = np.zeros(game.K)
    for seed in log:
        prev = game.value_of_ids([])
        picked = []
        for p in reference_permutation(seed, game.K):
            picked.append(p)
            cur = game.value_of_ids(picked)
            vals[p] += cur - prev
            prev = cur
    return vals / len(log)


def test_prefix_log_replays_bit_for_bit():
    game, _ = random_table_game(4, 3)
    est = monte_carlo_shapley(game, 16, RngStream(9, "replay"))
    assert est.permutation_log is not None and len(est.permutation_log) == 16
    assert est.values == pytest.approx(_sweeps_by_hand(game, est.permutation_log), abs=1e-12)


EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**63, 2**64 - 1]


def _reference_rows(seeds, K) -> np.ndarray:
    return np.array([reference_permutation(s, K) for s in seeds], dtype=np.int64).reshape(len(seeds), K)


@settings(deadline=None, max_examples=25)
@given(P=st.integers(1, 3), T=st.integers(0, 5), data=st.data())
def test_permutations_sort_splitmix64_keys(P, T, data):
    drawn = data.draw(st.lists(st.integers(0, 2**64 - 1), min_size=P * T, max_size=P * T))
    for K in range(41):
        want = _reference_rows(EDGE_SEEDS + drawn, K)
        got = _permutations(EDGE_SEEDS + drawn, K)
        assert got.dtype == np.int64 and np.array_equal(got, want)
        # a (P, T) seed array is read in C order
        assert np.array_equal(_permutations(np.array(drawn, dtype=np.uint64).reshape(P, T), K), want[len(EDGE_SEEDS) :])


# The next cases keep the names they had when the reference was NumPy's
# default_rng(seed).permutation(K); the reference is now the splitmix64 key sort.


@settings(deadline=None, max_examples=80)
@given(
    seeds=st.lists(st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**64 - 1)), max_size=12),
    K=st.integers(0, 40),
)
def test_permutations_match_default_rng(seeds, K):
    want = _reference_rows(seeds, K)
    assert np.array_equal(_permutations(seeds, K), want)
    assert np.array_equal(_permutations(np.array(seeds, dtype=np.uint64), K), want)


def test_permutations_match_default_rng_on_edge_seeds_for_every_size():
    for K in range(41):
        assert np.array_equal(_permutations(EDGE_SEEDS, K), _reference_rows(EDGE_SEEDS, K))


@pytest.mark.parametrize("K", [3, 5, 9, 17, 33])
def test_permutations_match_default_rng_just_above_a_power_of_two(K):
    seeds = np.random.default_rng(K).integers(0, 2**64, size=4096, dtype=np.uint64)
    assert np.array_equal(_permutations(seeds, K), _reference_rows(seeds.tolist(), K))


def test_permutations_of_stream_seeds_are_uniform():
    # chi-square over the 24 orders of 4 players; 49.73 is the 0.999 quantile at 23 degrees of freedom
    seeds = RngStream(0, "uniformity").seeds(24_000)
    perms = _permutations(seeds, 4)
    counts = np.bincount(perms @ np.array([64, 16, 4, 1]), minlength=256)
    observed = counts[counts > 0]
    assert observed.size == 24 and observed.sum() == seeds.size
    expected = seeds.size / 24
    assert ((observed - expected) ** 2 / expected).sum() < 49.73


def test_permutations_take_player_gains_seed_arrays_and_empty_ones():
    seeds = np.random.default_rng(4).integers(0, 2**63, size=(3, 7), dtype=np.uint64)
    assert np.array_equal(_permutations(seeds, 6), _reference_rows(seeds.ravel().tolist(), 6))
    for K in (0, 1, 5):
        empty = _permutations(np.zeros(0, dtype=np.uint64), K)
        assert empty.shape == (0, K) and empty.dtype == np.int64
    assert _permutations(np.zeros((2, 0), dtype=np.uint64), 4).shape == (0, 4)


def test_permutations_build_no_generator(monkeypatch):
    seeds = EDGE_SEEDS + list(range(40))
    want = _reference_rows(seeds, 11)

    def forbidden(*args, **kwargs):
        raise AssertionError("_permutations must not build a numpy generator")

    for name in ("default_rng", "Generator", "PCG64", "SeedSequence"):
        monkeypatch.setattr(np.random, name, forbidden)
    assert np.array_equal(_permutations(seeds, 11), want)


@pytest.mark.parametrize("bad", [-1, 1.5, 2**64])
def test_replay_rejects_seeds_that_are_not_uint64(bad):
    game, _ = random_table_game(4, 3)
    with pytest.raises(ValueError, match=r"entry 1 is .*not an integer in \[0, 2\^64\)"):
        monte_carlo_shapley(game, 0, None, permutation_log=[7, bad, 2.5])


def test_replay_accepts_the_largest_uint64_seed():
    game, _ = random_table_game(4, 3)
    log = [2**64 - 1, np.uint64(2**63 + 5)]
    est = monte_carlo_shapley(game, 0, None, permutation_log=log)
    assert est.permutation_log == [2**64 - 1, 2**63 + 5]
    assert est.values.tobytes() == _sweeps_by_hand(game, [2**64 - 1, 2**63 + 5]).tobytes()


def test_same_stream_reproduces_the_same_estimate():
    game, _ = random_table_game(5, 21)
    a = monte_carlo_shapley(game, 32, RngStream(4, "det"))
    b = monte_carlo_shapley(game, 32, RngStream(4, "det"))
    assert np.array_equal(a.values, b.values)
    assert a.permutation_log == b.permutation_log
    c = monte_carlo_shapley(game, 32, RngStream(5, "det"))
    assert not np.array_equal(a.values, c.values)


def test_shared_log_additivity():
    g1, _ = random_table_game(5, 31)
    g2, _ = random_table_game(5, 32)

    def combined(points):
        return g1._eval(points) + g2._eval(points)

    gsum = make_game(5, combined, bound=2.0)
    e1 = monte_carlo_shapley(g1, 20, RngStream(8, "add"))
    e2 = monte_carlo_shapley(g2, 20, RngStream(8, "add"))
    esum = monte_carlo_shapley(gsum, 20, RngStream(8, "add"))
    assert esum.permutation_log == e1.permutation_log == e2.permutation_log
    assert esum.values == pytest.approx(e1.values + e2.values, abs=1e-12)


def test_marginal_range_assertion_fires_on_wrong_bound():
    def payoff(points):
        return 5.0 * len(points)

    game = make_game(3, payoff, bound=0.5)
    with pytest.raises(AssertionError, match="marginal"):
        monte_carlo_shapley(game, 4, RngStream(0, "bound"))


def _recording_payoff(seen: list):
    """A plain payoff that keeps every coalition it is asked for, as a frozenset of points."""

    def payoff(points):
        seen.append(frozenset(points.indices.tolist()))
        return 0.1 * len(points)

    return payoff


def test_prefix_sweep_evaluation_count():
    seen = []
    game = make_game(4, _recording_payoff(seen))
    monte_carlo_shapley(game, 7, RngStream(0, "count"))
    distinct = set()
    for seed in RngStream(0, "count").seeds(7):
        perm = reference_permutation(seed, 4)
        distinct |= {frozenset(perm[:j]) for j in range(5)}
    # each distinct prefix is asked for once, at most K per sweep plus the empty one
    assert len(seen) == len(set(seen))
    assert set(seen) == distinct
    assert len(distinct) <= 7 * 4 + 1


def test_independent_sampling_costs_two_evals_per_draw():
    seen = []
    game = make_game(4, _recording_payoff(seen))
    est = monte_carlo_shapley(game, 6, RngStream(0, "ind"), sampling="independent")
    assert est.permutation_log is None
    assert est.mode == "independent"
    seeds = RngStream(0, "ind").generator().integers(0, 2**63, size=(4, 6), dtype=np.uint64)
    distinct = set()
    for player in range(4):
        for seed in seeds[player]:
            perm = reference_permutation(seed, 4)
            before = perm[: perm.index(player)]
            distinct |= {frozenset(before), frozenset(before + [player])}
    # each distinct coalition is asked for once, at most two per draw
    assert len(seen) == len(set(seen))
    assert set(seen) == distinct
    assert len(distinct) <= 2 * 6 * 4


def test_independent_sampling_converges_too():
    game, _ = random_table_game(4, 17)
    exact = exact_shapley(game).values
    est = monte_carlo_shapley(game, 4000, RngStream(1, "ind-conv"), sampling="independent")
    assert est.values == pytest.approx(exact, abs=0.08)


def test_independent_player_estimate_is_deterministic():
    game, _ = random_table_game(5, 13)
    a = independent_player_estimate(game, 2, 64, RngStream(3, "ipe"))
    b = independent_player_estimate(game, 2, 64, RngStream(3, "ipe"))
    assert a == b
    exact = exact_shapley(game).values
    c = independent_player_estimate(game, 2, 4000, RngStream(3, "ipe"))
    assert c == pytest.approx(exact[2], abs=0.08)


def test_independent_bound_check_reports_the_first_bad_gain_player_by_player():
    # player 1 gains 3 alone and 7 after player 0; player 2 always gains 5
    def payoff(points):
        ids = set(points.indices.tolist())
        return 3.0 * (1 in ids) + 4.0 * (0 in ids and 1 in ids) + 5.0 * (2 in ids)

    game = make_game(3, payoff, bound=1.0)
    seeds = RngStream(6, "first-bad").seeds(5)
    perm = reference_permutation(seeds[0], 3)
    first = 7.0 if perm.index(0) < perm.index(1) else 3.0
    with pytest.raises(AssertionError, match=f"marginal contribution {first} "):
        independent_player_estimate(game, [1, 2], 5, [RngStream(6, "first-bad"), RngStream(7, "first-bad")])
    with pytest.raises(AssertionError, match="marginal contribution 5.0 "):
        independent_player_estimate(game, [2, 1], 5, [RngStream(7, "first-bad"), RngStream(6, "first-bad")])


def test_independent_player_estimate_validates_its_players():
    game, _ = random_table_game(4, 5)
    streams = [RngStream(0, "a"), RngStream(0, "b")]
    with pytest.raises(ValueError, match="distinct"):
        independent_player_estimate(game, [1, 1], 4, streams)
    with pytest.raises(ValueError, match="out of range"):
        independent_player_estimate(game, [1, 4], 4, streams)
    with pytest.raises(ValueError, match="as many random streams"):
        independent_player_estimate(game, [0, 1, 2], 4, streams)
    with pytest.raises(ValueError, match="as many random streams"):
        independent_player_estimate(game, [0, 1], 4, RngStream(0, "a"))
    with pytest.raises(ValueError, match="at least one player"):
        independent_player_estimate(game, [], 4, [])


def _small_data(seed=0):
    return make_synthetic(24, subclusters=2, overlap=0.3, seed=seed, dim=3)


def test_flat_mcds_equals_singleton_group_shapley():
    data = _small_data()
    cf = CharacteristicFn(data, data.features, lam=0.5)
    flat = flat_mcds(data, cf, 8, RngStream(2, "flat"))
    groups = [PointSet([i]) for i in range(data.n)]
    grouped = group_shapley(data, cf, groups, 8, RngStream(2, "flat"))
    assert np.array_equal(flat.values, grouped.values)
    assert flat.method_tag == "mcds" and grouped.method_tag == "gs"


def test_flat_mcds_is_efficient():
    data = _small_data()
    cf = CharacteristicFn(data, data.features, lam=0.5)
    vv = flat_mcds(data, cf, 8, RngStream(0, "flat-eff"))
    surplus = cf.evaluate(data.all_points()) - cf.evaluate(EMPTY_SET)
    assert abs(vv.values.sum() - surplus) <= 1e-9


def test_an_int_rng_stands_for_its_root_stream():
    data = _small_data()
    cf = CharacteristicFn(data, data.features, lam=0.5)
    a, b = flat_mcds(data, cf, 8, 3), flat_mcds(data, cf, 8, RngStream(3))
    assert a.values.tobytes() == b.values.tobytes() and a.seed == b.seed == 3
    assert random_values(5, 3).values.tobytes() == random_values(5, RngStream(3)).values.tobytes()
    with pytest.raises(TypeError, match="RngStream or int"):
        flat_mcds(data, cf, 8, np.random.default_rng(3))


def test_group_shapley_splits_group_value_evenly():
    data = _small_data()
    cf = CharacteristicFn(data, data.features, lam=0.5)
    groups = [
        PointSet(np.flatnonzero(data.labels == c)) for c in range(data.num_classes)
    ]
    vv = group_shapley(data, cf, groups, 16, RngStream(1, "gs"))
    for g in groups:
        member_values = vv.values[g.indices]
        assert np.allclose(member_values, member_values[0])


def test_group_shapley_requires_a_partition():
    data = _small_data()
    cf = CharacteristicFn(data, data.features, lam=0.5)
    with pytest.raises(ValueError, match="partition"):
        group_shapley(data, cf, [PointSet([0, 1])], 4, RngStream(0, "bad"))


def test_leave_one_out_matches_direct_differences():
    data = _small_data()
    cf = CharacteristicFn(data, data.features, lam=0.5)
    vv = leave_one_out(data, cf)
    full = data.all_points()
    v_full = cf.evaluate(full)
    for i in (0, 5, data.n - 1):
        assert vv.values[i] == pytest.approx(v_full - cf.evaluate(full.without(i)), abs=1e-15)
    assert vv.method_tag == "loo"


def test_random_values_baseline():
    a = random_values(50, RngStream(6, "rand"))
    b = random_values(50, RngStream(6, "rand"))
    assert np.array_equal(a.values, b.values)
    assert a.values.shape == (50,)
    assert np.all((a.values >= 0.0) & (a.values < 1.0))
    assert a.method_tag == "random"


def test_pieces_share_a_payoff_call_while_their_sizes_fit_the_row_budget(monkeypatch):
    class Recorder:
        def __init__(self):
            self.calls = []

        def evaluate_games(self, games):
            self.calls.append(len(games))
            return [np.full(rows.shape[0], 10.0 * len(self.calls) + g) for g, (_, rows) in enumerate(games)]

    payoff = Recorder()
    game = CoalitionGame([PointSet([0]), PointSet([1])], payoff)
    monkeypatch.setattr(shapley, "TEMP_BYTES", 7)
    rows = np.array([[True, False], [False, True], [True, False]])
    pieces = [(game, size, lambda: rows) for size in (3, 3, 3, 5, 1, 9)]
    values = shapley._values_of_pieces(pieces)
    assert payoff.calls == [2, 1, 2, 1]  # 3 + 3, then 3 (3 + 5 > 7), 5 + 1, and 9 alone
    want = [10.0, 11.0, 20.0, 30.0, 31.0, 40.0]
    assert [v.tolist() for v in values] == [[w, w, w] for w in want]
