"""The invariants of the shared domain types that no detector input reaches."""

import pytest

from speechpolarity import InvalidInputError, Polarity, PolarityDecision


class TestPolarity:
    def test_unknown_name_rejected(self):
        with pytest.raises(InvalidInputError, match="sideways"):
            Polarity.parse("sideways")

    def test_indeterminate_flips_to_itself(self):
        assert Polarity.INDETERMINATE.flipped() is Polarity.INDETERMINATE


class TestPolarityDecision:
    @pytest.mark.parametrize("votes,match", [
        (dict(positive_votes=-1, anchors_used=1), "non-negative"),
        (dict(negative_votes=-1, anchors_used=1), "non-negative"),
        (dict(anchors_used=-1), "non-negative"),
        (dict(positive_votes=2, negative_votes=2, anchors_used=3), "exceed")])
    def test_bad_vote_counts_rejected(self, votes, match):
        with pytest.raises(InvalidInputError, match=match):
            PolarityDecision(Polarity.POSITIVE, **votes)
