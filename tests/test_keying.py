"""How ``CharacteristicFn.evaluate_games`` keys the rows of a call.

The rows are deduped by (game, block pattern) first, and only the distinct
patterns get set-hash keys, which are deduped in turn. These tests hold that
keying to a reference kept here: every row keyed on its own, from its own
points, and the keys deduped as 16-byte records by ``np.unique``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcdval import EMPTY_SET, CharacteristicFn, CoalitionGame, PointSet, RngStream, make_synthetic, monte_carlo_shapley
from hcdval import utility
from hcdval.core import coalition_key, point_words


def reference_keying(blocks, rows):
    """Every row's key, the distinct keys (sorted) and the (game, row) of the first row holding each."""
    keys, where = [], []
    for g, (game_blocks, game_rows) in enumerate(zip(blocks, rows)):
        for r, row in enumerate(game_rows):
            points = [game_blocks[j].indices for j in np.flatnonzero(row)]
            keys.append(coalition_key(np.concatenate([np.zeros(0, np.int64)] + points)))
            where.append((g, r))
    records = np.frombuffer(b"".join(keys), dtype=utility._KEY)
    distinct, first = np.unique(records, return_index=True)
    return keys, distinct.tolist(), [where[i] for i in first.tolist()]


def check_keying(blocks, rows):
    """``_distinct_rows`` against ``reference_keying``: key set, each row's key, first (game, row) per key."""
    rows = [np.asarray(r, dtype=bool) for r in rows]
    keys, game, member, inverse = utility._distinct_rows(utility._lay_out(blocks), rows, point_words)
    row_keys, distinct, first = reference_keying(blocks, rows)
    assert sorted(keys) == distinct
    assert [keys[k] for k in inverse.tolist()] == row_keys
    scored = dict(zip(keys, zip(game.tolist(), member)))
    for key, (g, r) in zip(distinct, first):
        got_game, got_row = scored[key]
        K = rows[g].shape[1]
        assert got_game == g
        assert np.array_equal(got_row[:K], rows[g][r]) and not got_row[K:].any()


def random_game(gen: np.random.Generator, n: int, empty_blocks: bool) -> tuple:
    """Disjoint blocks over a random subset of n points (some empty, if asked) and rows drawn from a few patterns."""
    order = gen.permutation(n)[: int(gen.integers(0, n + 1))]
    K = int(gen.integers(0, 6))
    cuts = np.sort(gen.integers(0, order.size + 1, size=max(K - 1, 0)))
    blocks = [PointSet(part) for part in np.split(order, cuts)] if K else []
    if empty_blocks and K:
        blocks.insert(int(gen.integers(0, K + 1)), EMPTY_SET)
    patterns = gen.random((int(gen.integers(1, 4)), len(blocks))) < 0.5
    rows = patterns[gen.integers(0, patterns.shape[0], size=int(gen.integers(0, 8)))]  # repeats, or no row
    return blocks, rows


@settings(deadline=None, max_examples=150)
@given(
    seed=st.integers(0, 100_000),
    n_games=st.integers(1, 5),
    empty_blocks=st.booleans(),
    resplit=st.booleans(),
)
def test_keying_matches_one_key_per_row_and_a_record_unique(seed, n_games, empty_blocks, resplit):
    gen = np.random.default_rng(seed)
    games = [random_game(gen, 12, empty_blocks) for _ in range(n_games)]
    if resplit:  # the union of game 0's blocks, split another way in a game of its own
        members = np.concatenate([EMPTY_SET.indices] + [b.indices for b in games[0][0]])
        halves = np.array_split(gen.permutation(members), 2)
        games.append(([PointSet(h) for h in halves], np.ones((2, 2), bool)))
        games[0] = (games[0][0], np.vstack([games[0][1], np.ones((1, len(games[0][0])), bool)]))
    check_keying([b for b, _ in games], [r for _, r in games])


@pytest.mark.parametrize("widths", [[65], [64, 64], [64], [40, 3, 64]])
def test_keying_is_the_same_whether_or_not_the_codes_fit_in_one_word(widths):
    gen = np.random.default_rng(sum(widths))
    games = []
    for K in widths:
        blocks = [PointSet([i]) for i in gen.permutation(70)[:K]]
        patterns = gen.random((3, K)) < 0.5
        games.append((blocks, patterns[gen.integers(0, 3, size=6)]))
    rows = [r for _, r in games]
    row_game = np.repeat(np.arange(len(rows)), [r.shape[0] for r in rows])
    member = np.zeros((row_game.size, max(widths)), bool)
    codes = utility._pattern_codes(member, row_game, widths)
    assert (codes is None) == (sum(2**K for K in widths) > 2**64)
    check_keying([b for b, _ in games], rows)


def test_distinct_sorts_by_both_words_when_keys_share_a_first_word():
    words = np.array([[5, 1], [5, 2], [3, 7], [5, 1], [3, 7], [5, 2]], np.uint64)
    held, first, inverse = utility._distinct(words, np.array([9, 4, 8, 2, 6, 7]))
    assert len(held) == 3
    assert np.array_equal(words[held][inverse], words)
    least = {tuple(w): min(f for v, f in zip(words.tolist(), [9, 4, 8, 2, 6, 7]) if v == w) for w in words.tolist()}
    assert [least[tuple(w)] for w in words[held].tolist()] == first.tolist()


def test_a_prefix_sweep_keys_each_block_pattern_once(monkeypatch):
    data = make_synthetic(40, seed=0)
    cf = CharacteristicFn(data, data.features, lam=0.5)
    players = [PointSet(range(i, data.n, 4)) for i in range(4)]
    keyed = []
    distinct = utility._distinct

    def spy(words, first_of):
        if words.shape[1] == 2:  # the keys, not the pattern codes
            keyed.append(words.shape[0])
        return distinct(words, first_of)

    monkeypatch.setattr(utility, "_distinct", spy)
    monte_carlo_shapley(CoalitionGame(players, cf), 64, RngStream(0, "sweep"))
    assert cf.lookups == 64 * 5
    assert sum(keyed) <= 2**4


def test_zero_block_games_score_the_empty_coalition():
    data = make_synthetic(40, seed=0)
    cf = CharacteristicFn(data, data.features, lam=0.5)
    empty = cf.evaluate(EMPTY_SET)
    alone = CharacteristicFn(data, data.features, lam=0.5)
    got = alone.evaluate_games([([], np.zeros((2, 0), bool))])
    assert [v.tolist() for v in got] == [[empty, empty]]
    assert (alone.lookups, alone.evaluations) == (2, 1)
    other = ([PointSet([0, 1]), PointSet([2, 3])], np.array([[1, 1], [0, 0]], bool))
    mixed = CharacteristicFn(data, data.features, lam=0.5)
    got = mixed.evaluate_games([([], np.zeros((2, 0), bool)), other])
    assert got[0].tolist() == [empty, empty] and got[1][1] == empty
    assert got[1][0] == cf.evaluate(PointSet([0, 1, 2, 3]))


def test_a_call_of_zero_rows_scores_nothing():
    data = make_synthetic(40, seed=0)
    cf = CharacteristicFn(data, data.features, lam=0.5)
    got = cf.evaluate_games([([PointSet([0]), PointSet([1])], np.zeros((0, 2), bool)), ([], np.zeros((0, 0), bool))])
    assert [v.shape for v in got] == [(0,), (0,)]
    assert (cf.lookups, cf.evaluations) == (0, 0)
