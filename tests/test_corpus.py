import io
import json
import logging

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktmap.corpus import (Document, Lexicon, UGraph, co_citation_projection,
                          count_terms, load_corpus, parse_corpus,
                          write_corpus)
from ktmap.errors import (DuplicateIdError, LexiconOverlapError,
                          MalformedRecordError, SelfLoopError,
                          UnknownEndpointError)

from conftest import make_net


def parse(nodes_text, edges_text, **kwargs):
    return parse_corpus(io.StringIO(nodes_text), io.StringIO(edges_text), **kwargs)


class TestDocument:
    def test_defaults(self):
        doc = Document(id="p1")
        assert doc.kind == "paper"
        assert doc.basic_terms == 0 and doc.clinical_terms == 0

    def test_rejects_empty_id(self):
        with pytest.raises(ValueError):
            Document(id="")

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            Document(id="p1", basic_terms=-1)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            Document(id="p1", kind="novel")


class TestLexicon:
    def test_overlap_rejected(self):
        with pytest.raises(LexiconOverlapError):
            Lexicon(basic=frozenset({"apoptosis", "survival"}),
                    clinical=frozenset({"survival"}))

    def test_load(self, tmp_path):
        (tmp_path / "basic.txt").write_text("Apoptosis\nkinase\n\n")
        (tmp_path / "clin.txt").write_text("survival\ntrial\n")
        lex = Lexicon.load(tmp_path / "basic.txt", tmp_path / "clin.txt")
        assert "apoptosis" in lex.basic  # lowercased on load
        assert lex.clinical == {"survival", "trial"}


class TestCountTerms:
    LEX = Lexicon(basic=frozenset({"apoptosis"}), clinical=frozenset({"survival"}))

    def test_empty_input(self):
        assert count_terms([], self.LEX) == (0, 0)

    def test_multiplicity(self):
        got = count_terms(["apoptosis", "apoptosis", "survival"], self.LEX)
        assert got == (2, 1)

    def test_unknown_ignored(self):
        assert count_terms(["unknownword"], self.LEX) == (0, 0)


class TestParse:
    def test_single_node_no_edges(self):
        net = parse('{"id": "a"}\n', "")
        assert net.n_docs == 1 and net.n_edges == 0

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError, match="a"):
            parse('{"id": "a"}\n', "a,a\n")

    def test_in_degree_and_projection(self):
        net = parse('{"id": "a"}\n{"id": "b"}\n{"id": "c"}\n', "a,b\nc,b\n")
        assert net.in_degree("b") == 2
        assert net.projection.n_edges == 2

    def test_duplicate_id(self):
        with pytest.raises(DuplicateIdError, match="a"):
            parse('{"id": "a"}\n{"id": "a"}\n', "")

    def test_malformed_json_carries_line_number(self):
        with pytest.raises(MalformedRecordError, match="line 2"):
            parse('{"id": "a"}\n{oops\n', "")

    def test_malformed_edge_line(self):
        with pytest.raises(MalformedRecordError, match="line 3"):
            parse('{"id": "a"}\n{"id": "b"}\n', "# c\na,b\na,b,c\n")

    def test_unknown_endpoint(self):
        with pytest.raises(UnknownEndpointError, match="ghost"):
            parse('{"id": "a"}\n', "a,ghost\n")

    def test_lenient_skips_unknown(self, caplog):
        with caplog.at_level(logging.WARNING, logger="ktmap.corpus"):
            net = parse('{"id": "a"}\n{"id": "b"}\n', "a,b\na,ghost\n", lenient=True)
        assert net.n_edges == 1
        assert net.skipped_edges == (("a", "ghost"),)
        assert "skipped 1" in caplog.text

    def test_duplicate_edges_collapsed_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING, logger="ktmap.corpus"):
            net = parse('{"id": "a"}\n{"id": "b"}\n', "a,b\na,b\n")
        assert net.n_edges == 1
        assert "duplicate" in caplog.text

    def test_header_and_comments_ignored(self):
        net = parse('{"id": "a"}\n{"id": "b"}\n', "citing,cited\n# x\n\na,b\n")
        assert net.n_edges == 1

    def test_tab_delimited_edges(self):
        net = parse('{"id": "a"}\n{"id": "b"}\n', "a\tb\n")
        assert net.edges == (("a", "b"),)

    def test_terms_lowercased_and_year(self):
        net = parse('{"id": "a", "year": 1999, "terms": ["HPV", "vaccine"]}\n', "")
        doc = net.docs["a"]
        assert doc.raw_terms == ("hpv", "vaccine")
        assert doc.year == 1999

    def test_bad_year_type(self):
        with pytest.raises(MalformedRecordError, match="year"):
            parse('{"id": "a", "year": "recent"}\n', "")

    def test_patent_kind(self):
        net = parse('{"id": "a", "kind": "patent"}\n', "")
        assert net.docs["a"].kind == "patent"


class TestNetworkInvariants:
    def test_in_degree_sum_equals_edge_count(self):
        net = make_net([("a", "b"), ("c", "b"), ("c", "a"), ("d", "a")])
        assert sum(net.in_degree(i) for i in net.ids) == net.n_edges

    def test_projection_simple_and_bounded(self):
        # a->b and b->a collapse to one undirected edge
        net = make_net([("a", "b"), ("b", "a"), ("c", "b")])
        proj = net.projection
        assert proj.n_edges == 2
        assert proj.n_edges <= net.n_edges

    def test_round_trip(self, tmp_path):
        net = make_net([("a", "b"), ("c", "b")],
                       years={"a": 2001}, terms={"b": (2, 3)})
        write_corpus(net, tmp_path / "n.jsonl", tmp_path / "e.csv")
        back = load_corpus(tmp_path / "n.jsonl", tmp_path / "e.csv")
        assert back.ids == net.ids
        assert back.edges == net.edges
        assert back.docs["b"].clinical_terms == 3
        assert back.docs["a"].year == 2001

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_round_trip_random(self, data, tmp_path_factory):
        n = data.draw(st.integers(2, 8))
        ids = [f"p{i}" for i in range(n)]
        pairs = [(u, v) for u in ids for v in ids if u != v]
        edges = data.draw(st.lists(st.sampled_from(pairs), max_size=12, unique=True))
        net = make_net(edges, nodes=ids)
        tmp = tmp_path_factory.mktemp("rt")
        write_corpus(net, tmp / "n.jsonl", tmp / "e.csv")
        back = load_corpus(tmp / "n.jsonl", tmp / "e.csv")
        assert back.ids == net.ids and back.edges == net.edges


class TestUGraph:
    @pytest.mark.parametrize("w", [0.0, -1.0, float("nan"), float("inf"),
                                   float("-inf")])
    def test_rejects_weight_not_finite_positive(self, w):
        with pytest.raises(ValueError, match="weight"):
            UGraph(["a", "b"], [("a", "b", w)])

    def test_accepts_positive_weights(self):
        g = UGraph(["a", "b", "c"], [("a", "b", 1e-300), ("b", "c", 7.0)])
        assert g.total_weight == pytest.approx(7.0)


class TestCoCitation:
    def test_single_co_citing_source(self):
        net = make_net([("a", "b"), ("a", "c")])
        g = co_citation_projection(net)
        assert g.has_edge("b", "c")
        assert g.adj[g.index["b"]][g.index["c"]] == 1.0

    def test_never_co_cited(self):
        net = make_net([("a", "b"), ("c", "b")])
        g = co_citation_projection(net)
        assert g.n_edges == 0

    def test_weight_two(self):
        net = make_net([("a", "x"), ("a", "y"), ("b", "x"), ("b", "y")])
        g = co_citation_projection(net)
        assert g.adj[g.index["x"]][g.index["y"]] == 2.0

    def test_matches_brute_force(self):
        import numpy as np
        rng = np.random.default_rng(5)
        ids = [f"p{i}" for i in range(12)]
        edges = sorted({(ids[int(a)], ids[int(b)])
                        for a, b in rng.integers(0, 12, size=(40, 2)) if a != b})
        net = make_net(edges, nodes=ids)
        g = co_citation_projection(net)
        for u in g.ids:
            for v in g.ids:
                if u >= v:
                    continue
                expected = sum(1 for w in ids
                               if (w, u) in net.edges and (w, v) in net.edges)
                got = g.adj[g.index[u]].get(g.index[v], 0)
                assert got == expected
