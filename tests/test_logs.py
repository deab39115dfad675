import numpy as np
import pytest

from slateval import LoggedExample, ParseError, SlateError, read_logged_dataset, write_logged_dataset


def test_reward_range_enforced():
    with pytest.raises(SlateError):
        LoggedExample("q", (0, 1), 1.2)
    with pytest.raises(SlateError):
        LoggedExample("q", (0, 1), -1.0000001)


def test_round_trip(tmp_path):
    examples = [
        LoggedExample("q1", (0, 2, 1), 0.125),
        LoggedExample("q1", (2, 1, 0), -1.0),
        LoggedExample("q2", (1, 0, 2), 0.3333333333333333),
    ]
    path = tmp_path / "logs.tsv"
    write_logged_dataset(path, examples)
    assert read_logged_dataset(path) == examples


def test_read_reports_line_numbers(tmp_path):
    path = tmp_path / "logs.tsv"
    path.write_text("q\t0,1\t0.5\nq\t0,1\n")
    with pytest.raises(ParseError, match=":2"):
        read_logged_dataset(path)
    path.write_text("q\t0,x\t0.5\n")
    with pytest.raises(ParseError, match=":1"):
        read_logged_dataset(path)


def test_read_skips_blank_and_comment_lines(tmp_path):
    path = tmp_path / "logs.tsv"
    path.write_text("# header\n\nq\t1,0\t0.25\n")
    logs = read_logged_dataset(path)
    assert logs == [LoggedExample("q", (1, 0), 0.25)]


def test_mean_indicator_mc_fallback_is_reproducible():
    """Above the enumeration cap the mean indicator comes from a fixed
    per-context sample and still normalizes per slot."""
    from slateval import SlateSpace
    from slateval.policies import Policy

    space = SlateSpace.ranking(9, 4)

    class ShuffledPolicy(Policy):
        # uniform sampling without the closed-form moment overrides
        def slate_prob_batch(self, context, actions):
            actions = self.space_of(context).validate_batch(actions, context)
            return np.full(len(actions), 1.0 / self.space_of(context).num_slates())

        def sample_batch(self, context, n, rng):
            keys = rng.random((n, 9))
            return np.argsort(keys, axis=1, kind="stable")[:, :4]

        def sample(self, context, rng):
            return tuple(self.sample_batch(context, 1, rng)[0])

    def build():
        return ShuffledPolicy(space, enumeration_cap=10, mc_mean_samples=20_000, mc_seed=3)

    q1 = build().mean_indicator("q")
    q2 = build().mean_indicator("q")
    np.testing.assert_array_equal(q1, q2)
    for j in range(space.num_slots):
        block = q1[space.offsets[j] : space.offsets[j] + 9]
        assert block.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.abs(block - 1 / 9).max() < 0.02


def test_batch_is_a_sequence_of_example_views():
    from slateval import LoggedBatch

    examples = [
        LoggedExample("a", (0, 2), 0.5),
        LoggedExample("b", (1, 0), -0.25),
        LoggedExample("a", (2, 1), 1.0),
    ]
    batch = LoggedBatch.from_examples(examples)
    assert batch.contexts == ("a", "b")
    np.testing.assert_array_equal(batch.codes, [0, 1, 0])
    np.testing.assert_array_equal(batch.actions, [[0, 2], [1, 0], [2, 1]])
    assert len(batch) == 3 and batch == examples
    assert list(batch) == examples
    assert batch[-1] == examples[-1]
    assert isinstance(batch[1:], LoggedBatch) and batch[1:] == examples[1:]
    assert [(c, rows.tolist()) for c, rows in batch.groups()] == [("a", [0, 2]), ("b", [1])]
    assert LoggedBatch.from_examples(batch) is batch


def test_batch_rejects_ragged_slates_and_bad_rewards():
    from slateval import LoggedBatch

    with pytest.raises(SlateError, match="slots"):
        LoggedBatch.from_examples([LoggedExample("a", (0, 1), 0.0), LoggedExample("a", (0,), 0.0)])
    with pytest.raises(SlateError, match="outside"):
        LoggedBatch(("a",), [0], [[0, 1]], [float("nan")])


def test_read_rejects_slates_of_another_length(tmp_path):
    path = tmp_path / "logs.tsv"
    path.write_text("q\t0,1\t0.5\nq\t0,1,2\t0.5\n")
    with pytest.raises(ParseError, match=":2"):
        read_logged_dataset(path)


def test_read_names_the_line_of_a_bad_reward(tmp_path):
    path = tmp_path / "logs.tsv"
    for text, message in (
        ("q\t0,1\t0.5\nq\t1,0\t1.5\n", ":2: reward 1.5 outside"),
        ("q\t0,1\t0.5\nq\t1,0\tnan\n", ":2: reward nan outside"),
        ("q\t0,1\t0.5\nq\t1,0\thalf\n", ":2: could not convert string to float: 'half'"),
        ("q\t0,1\t0.5\nq\t1,0\t\t\n", ":2: expected 3"),
    ):
        path.write_text(text)
        with pytest.raises(ParseError, match=message):
            read_logged_dataset(path)


def test_read_counts_skipped_lines_in_line_numbers(tmp_path):
    path = tmp_path / "logs.tsv"
    path.write_text("# header\n\n   \nq\t0,1\t0.5\r\n# note\nq\t0,z\t0.5\n")
    with pytest.raises(ParseError, match=r"logs\.tsv:6: invalid literal for int\(\) with base 10: 'z'"):
        read_logged_dataset(path)


def test_read_follows_int_and_float_syntax(tmp_path):
    path = tmp_path / "logs.tsv"
    path.write_text("  q\t+1, 0\t+.5  \nr\t1_0,2\t-1e-1\n")
    logs = read_logged_dataset(path)
    assert logs.contexts == ("q", "r")
    np.testing.assert_array_equal(logs.actions, [[1, 0], [10, 2]])
    np.testing.assert_array_equal(logs.rewards, [0.5, -0.1])
    path.write_text("q\t0,1\t0.5\nq\t0,99999999999999999999\t0.5\n")
    with pytest.raises(ParseError, match=":2: .*int64"):
        read_logged_dataset(path)
