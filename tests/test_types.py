"""The invariants of the shared domain types that no detector input reaches."""

import copy
import pickle

import numpy as np
import pytest

from speechpolarity import InvalidInputError, Polarity, PolarityDecision, Signal


class TestPolarity:
    def test_unknown_name_rejected(self):
        with pytest.raises(InvalidInputError, match="sideways"):
            Polarity.parse("sideways")

    def test_indeterminate_flips_to_itself(self):
        assert Polarity.INDETERMINATE.flipped() is Polarity.INDETERMINATE

    @pytest.mark.parametrize("value,polarity", [
        (2, Polarity.POSITIVE), (-1e-300, Polarity.NEGATIVE), (0, Polarity.INDETERMINATE),
        (0.0, Polarity.INDETERMINATE), (-0.0, Polarity.INDETERMINATE),
        (float("nan"), Polarity.INDETERMINATE), (np.int64(-3), Polarity.NEGATIVE)])
    def test_of_sign(self, value, polarity):
        assert Polarity.of_sign(value) is polarity


class TestSignal:
    def test_compared_and_hashed_by_identity(self):
        # equality once compared the sample arrays and raised; hashing raised too
        a, b = Signal(np.arange(3.0), 8000), Signal(np.arange(3.0), 8000)
        assert a != b
        assert a == a and b == b
        assert len({a, b}) == 2

    @pytest.mark.parametrize("clone", (copy.copy, copy.deepcopy,
                                       lambda s: pickle.loads(pickle.dumps(s))),
                             ids=("copy", "deepcopy", "pickle"))
    def test_copies_keep_read_only_samples(self, clone):
        # a deep copy or a pickle round trip once gave writable samples
        s = Signal(np.arange(5.0), 8000)
        c = clone(s)
        assert c.sample_rate_hz == 8000 and np.array_equal(c.samples, s.samples)
        with pytest.raises(ValueError):
            c.samples[0] = 1.0

    @pytest.mark.parametrize("rate", [16000.7, float("nan"), float("inf"), "16000", True, 0, -5,
                                      0.5, np.float64(8000.5), np.float64("inf"), np.bool_(True)])
    def test_bad_rate_rejected(self, rate):
        # a fractional rate was once truncated, NaN and inf raised a bare ValueError or
        # OverflowError, and a string or True was taken as a number
        with pytest.raises(InvalidInputError, match="sample rate"):
            Signal(np.ones(10), rate)

    @pytest.mark.parametrize("rate", [16000, 16000.0, np.int64(8000), np.float64(48000.0)])
    def test_whole_rate_stored_as_int(self, rate):
        s = Signal(np.ones(10), rate)
        assert s.sample_rate_hz == int(rate) and type(s.sample_rate_hz) is int

    def test_complex_samples_rejected(self):
        # once cast to their real part with a ComplexWarning
        with pytest.raises(InvalidInputError, match="complex"):
            Signal(np.array([1 + 2j, 3]), 8000)


class TestPolarityDecision:
    @pytest.mark.parametrize("votes,match", [
        (dict(positive_votes=-1, anchors_used=1), "non-negative"),
        (dict(negative_votes=-1, anchors_used=1), "non-negative"),
        (dict(anchors_used=-1), "non-negative"),
        (dict(positive_votes=2, negative_votes=2, anchors_used=3), "exceed"),
        (dict(positive_votes=2, anchors_used=1, statistic=0.5), "exceed")])
    def test_bad_vote_counts_rejected(self, votes, match):
        with pytest.raises(InvalidInputError, match=match):
            PolarityDecision(Polarity.POSITIVE, **votes)
