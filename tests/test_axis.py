import pytest
from hypothesis import given
from hypothesis import strategies as st

from ktmap.axis import (Stratum, classify, front_mean, homophily_assortativity,
                        score_documents, translational_score)
from ktmap.errors import InsufficientDataError

from conftest import make_net


class TestScore:
    @pytest.mark.parametrize("basic,clinical,expected", [
        (5, 0, 0.0),
        (0, 5, 1.0),
        (3, 1, 0.25),
    ])
    def test_examples(self, basic, clinical, expected):
        assert translational_score(basic, clinical) == expected

    def test_unscored(self):
        assert translational_score(0, 0) is None

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            translational_score(-1, 2)

    @given(st.integers(0, 1000), st.integers(0, 1000), st.integers(1, 50))
    def test_scale_invariance(self, basic, clinical, factor):
        base = translational_score(basic, clinical)
        scaled = translational_score(basic * factor, clinical * factor)
        if base is None:
            assert scaled is None
        else:
            assert scaled == pytest.approx(base, abs=1e-12)

    @given(st.integers(0, 1000), st.integers(0, 1000))
    def test_symmetry(self, a, b):
        if a + b == 0:
            return
        assert translational_score(a, b) == pytest.approx(
            1.0 - translational_score(b, a), abs=1e-12)


class TestClassify:
    THIRDS = dict(low=1 / 3, high=2 / 3)

    @pytest.mark.parametrize("t,expected", [
        (0.0, Stratum.BASIC),
        (0.5, Stratum.TRANSLATIONAL),
        (1.0, Stratum.CLINICAL),
        (1 / 3, Stratum.TRANSLATIONAL),   # boundary values are translational
        (2 / 3, Stratum.TRANSLATIONAL),
        (None, Stratum.UNSCORED),
    ])
    def test_examples(self, t, expected):
        assert classify(t, **self.THIRDS) is expected

    def test_invalid_thresholds(self):
        with pytest.raises(ValueError):
            classify(0.5, low=0.7, high=0.3)
        with pytest.raises(ValueError):
            classify(0.5, low=-0.1, high=0.5)


class TestAssortativity:
    def test_constant_scores_undefined(self):
        net = make_net([("a", "b"), ("b", "c"), ("c", "a")],
                       terms={k: (1, 1) for k in "abc"})
        assert homophily_assortativity(net, score_documents(net)) is None

    def test_within_block_wiring_is_one(self):
        terms = {"a1": (9, 0), "a2": (7, 0), "b1": (0, 4), "b2": (0, 8)}
        net = make_net([("a1", "a2"), ("a2", "a1"), ("b1", "b2"), ("b2", "b1")],
                       terms=terms)
        r = homophily_assortativity(net, score_documents(net))
        assert r == pytest.approx(1.0)

    def test_complete_bipartite_is_minus_one(self):
        terms = {"a1": (5, 0), "a2": (5, 0), "b1": (0, 5), "b2": (0, 5)}
        edges = [(a, b) for a in ("a1", "a2") for b in ("b1", "b2")]
        edges += [(b, a) for a in ("a1", "a2") for b in ("b1", "b2")]
        net = make_net(edges, terms=terms)
        r = homophily_assortativity(net, score_documents(net))
        assert r == pytest.approx(-1.0)

    def test_no_scored_edges_raises(self):
        net = make_net([("a", "b")])  # both unscored
        with pytest.raises(InsufficientDataError):
            homophily_assortativity(net, score_documents(net))

    def test_unscored_endpoints_excluded(self):
        terms = {"a1": (9, 0), "a2": (7, 0), "b1": (0, 4), "b2": (0, 8)}
        net = make_net([("a1", "a2"), ("a2", "a1"), ("b1", "b2"), ("b2", "b1"),
                        ("u", "a1"), ("b1", "u")], terms=terms)
        r = homophily_assortativity(net, score_documents(net))
        assert r == pytest.approx(1.0)

    def test_affine_rescaling_invariance(self):
        terms = {"a1": (9, 1), "a2": (7, 2), "b1": (1, 4), "b2": (2, 8),
                 "c1": (3, 3)}
        edges = [("a1", "a2"), ("b1", "b2"), ("a1", "b1"), ("c1", "a2"),
                 ("b2", "c1")]
        net = make_net(edges, terms=terms)
        scores = score_documents(net)
        r = homophily_assortativity(net, scores)
        rescaled = {k: (None if t is None else 0.2 + 0.5 * t)
                    for k, t in scores.items()}
        assert homophily_assortativity(net, rescaled) == pytest.approx(r, abs=1e-12)


class TestFrontSummary:
    def test_mean(self):
        mean_t, share_unscored = front_mean("abc", {"a": 0.0, "b": 0.0, "c": 0.3})
        assert mean_t == pytest.approx(0.1)
        assert share_unscored == 0.0

    def test_all_unscored_flagged(self):
        # an all-unscored front is flagged by having no mean
        assert front_mean("ab", {"a": None, "b": None}) == (None, 1.0)

    def test_disjoint_ranges_preserve_order(self):
        scores = {"a": 0.1, "b": 0.2, "x": 0.8, "y": 0.9}
        assert front_mean("ab", scores)[0] < front_mean("xy", scores)[0]

    def test_sums_in_member_order(self):
        scores = {"a": 0.1, "b": 0.2, "c": 0.3, "d": None}
        assert front_mean("abcd", scores) == ((0.1 + 0.2 + 0.3) / 3, 0.25)
        assert front_mean("cbad", scores) == ((0.3 + 0.2 + 0.1) / 3, 0.25)

    def test_missing_score_entry_raises(self):
        with pytest.raises(ValueError, match="no score entry for node 'a'"):
            front_mean("a", {})
