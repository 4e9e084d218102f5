import io
import json
import logging

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktmap.corpus import (CitationNetwork, Document, Lexicon, UGraph,
                          _plain_edge_fields, co_citation_projection,
                          count_terms, iter_edge_records, load_corpus,
                          parse_corpus, write_corpus)
from ktmap.errors import (DuplicateIdError, LexiconOverlapError,
                          MalformedRecordError, SelfLoopError,
                          UnknownEndpointError)

from conftest import StringCitationNetwork, line_edge_records, make_net


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

    def test_header_naming_documents_warns(self, caplog):
        nodes = '{"id": "citing"}\n{"id": "cited"}\n'
        with caplog.at_level(logging.WARNING, logger="ktmap.corpus"):
            net = parse(nodes, "\n# edges\nciting,cited\n")
        assert net.n_edges == 0
        assert len(caplog.records) == 1
        assert "edges line 3" in caplog.text and "header" in caplog.text
        # after a header line the same pair is an edge, so written corpora
        # round-trip (the header line still warns)
        net = parse(nodes, "citing,cited\nciting,cited\n")
        assert net.edges == (("citing", "cited"),)

    def test_header_alone_is_silent(self, caplog):
        with caplog.at_level(logging.WARNING, logger="ktmap.corpus"):
            net = parse('{"id": "citing"}\n{"id": "b"}\n', "Citing,Cited\nciting,b\n")
        assert net.edges == (("citing", "b"),)
        assert not caplog.records

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

    @pytest.mark.parametrize("bad", ["x,y", 'x"y', "x y", "x\ty", " x", "x ",
                                     "#x"])
    def test_id_unfit_for_edge_file_rejected(self, bad):
        nodes = '{"id": "a"}\n' + json.dumps({"id": bad}) + "\n"
        with pytest.raises(MalformedRecordError, match="line 2"):
            parse(nodes, "")

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


# -- int-coded network and whole-file reader against the string oracle ------

# odd ids among them: an inner '#', non-ASCII text, and the header words
ID_POOL = ["a", "b", "c", "p1", "x#y", "\u00e9t\u00e9", "\u65e5\u672c",
           "citing", "cited", "Cited"]
_ids = st.sampled_from(ID_POOL)
_plain_line = st.builds("{},{}".format, _ids, _ids)
# other lines, alone or as a run: other separators, padding, malformed
# lines, comments, blanks and header lines anywhere
_odd_lines = st.one_of(
    st.builds("{}\t{}".format, _ids, _ids),
    st.builds("{} {}".format, _ids, _ids),
    st.builds("{} , {}".format, _ids, _ids),
    st.builds(" {},{} ".format, _ids, _ids),
    st.builds("{},{} {},{}".format, _ids, _ids, _ids, _ids),
    st.builds("{},{},{}".format, _ids, _ids, _ids),
    st.builds("{},".format, _ids),
    st.builds(",{}".format, _ids),
    st.builds("#{},{}".format, _ids, _ids),
    _ids,
    st.sampled_from(["citing,cited", "Citing,Cited", "CITING\tCITED",
                     "# a comment", "", "   "]),
).map(lambda line: [line]) | st.builds(
    "{},{},{}\n{}".format, _ids, _ids, _ids, _ids).map(str.splitlines)


@st.composite
def edge_texts(draw):
    """An edges file of `a,b` lines, maybe under a header, with up to three
    odd lines or runs put in anywhere, LF or CRLF."""
    lines = draw(st.lists(_plain_line, max_size=10))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        lines[at:at] = draw(_odd_lines)
    if draw(st.booleans()):
        lines.insert(0, draw(st.sampled_from(["citing,cited", "Citing,Cited"])))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    final = draw(st.sampled_from([newline, ""]))
    return newline.join(lines) + (final if lines else "")


class _Records(logging.Handler):
    def __init__(self):
        super().__init__(logging.DEBUG)
        self.messages = []

    def emit(self, record):
        self.messages.append((record.levelno, record.getMessage()))


def _outcome(build):
    """(result, exception, log messages of ktmap.corpus) of build()."""
    logger = logging.getLogger("ktmap.corpus")
    handler, level = _Records(), logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        return build(), None, handler.messages
    except Exception as exc:  # compared with the oracle's
        return None, exc, handler.messages
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def _graph_view(graph):
    return graph.ids, list(graph.edges()), [list(nbrs.items()) for nbrs in graph.adj]


def _assert_same_network(net, ref):
    assert net.ids == ref.ids
    assert list(net.docs.items()) == list(ref.docs.items())
    assert net.edges == ref.edges
    assert net.n_edges == len(ref.edges)
    assert net.skipped_edges == ref.skipped_edges
    assert list(net.in_degrees().items()) == list(ref.in_degrees().items())
    for v in ref.ids:
        assert net.in_degree(v) == ref.in_degree(v)
        assert net.out_degree(v) == ref.out_degree(v)
        assert net.citers(v) == ref.citers(v)
        assert net.cited_by(v) == ref.cited_by(v)
    assert _graph_view(net.projection) == _graph_view(ref.projection)
    assert (_graph_view(co_citation_projection(net))
            == _graph_view(ref.co_citation_projection()))


class TestAgainstStringOracle:
    """CitationNetwork and iter_edge_records against the string-keyed
    network and line reader of conftest, on generated edge files."""

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_same_network_errors_and_warnings(self, data, tmp_path_factory):
        doc_ids = data.draw(st.lists(_ids, unique=True))
        docs = [Document(id=v, year=data.draw(st.sampled_from([None, 1, 2])))
                for v in doc_ids]
        if docs and data.draw(st.integers(0, 9)) == 0:
            docs.append(docs[0])
        text = data.draw(edge_texts())
        lenient = data.draw(st.booleans())
        path = tmp_path_factory.mktemp("edges") / "edges.csv"
        path.write_bytes(text.encode("utf-8"))
        known = {doc.id for doc in docs}

        for opener in (lambda: io.StringIO(text),
                       lambda: open(path, encoding="utf-8")):
            with opener() as fh:
                net, exc, logged = _outcome(lambda: CitationNetwork(
                    docs, iter_edge_records(fh, known), lenient=lenient))
            with opener() as fh:
                ref, ref_exc, ref_logged = _outcome(lambda: StringCitationNetwork(
                    docs, line_edge_records(fh, known), lenient=lenient))
            assert logged == ref_logged
            if ref_exc is not None:
                assert type(exc) is type(ref_exc) and str(exc) == str(ref_exc)
                continue
            assert exc is None
            _assert_same_network(net, ref)
            keep = data.draw(st.lists(st.sampled_from(ref.ids))) if ref.ids else []
            _assert_same_network(net.induced(keep), ref.induced(keep))

    @pytest.mark.parametrize("text", [
        "citing,cited\na,b\nb,c\n",
        "a,b\nb,c",
        "a,b\n\n\n",
        "x#y,a\n",
    ])
    def test_plain_text_read_whole(self, text):
        assert _plain_edge_fields(io.StringIO(text)) == text.replace(
            "\n", ",").rstrip(",").split(",")

    @pytest.mark.parametrize("text", [
        "",
        "a,b c,d\n\n",      # two pairs on one line, one blank line
        "a,b,c\nd\n",       # three fields, then one
        "a,b\r\nc,d\r\n",   # CR left in by a StringIO
        "a, b\n",
        " a,b\n",
        "a,b\n\nc,d\n",
        "# c\na,b\n",
        "a,b\n#c,d\n",
        ",b\n",
        "a\tb\n",
    ])
    def test_other_text_rewound_for_the_line_loop(self, text):
        stream = io.StringIO(text)
        assert _plain_edge_fields(stream) is None
        assert stream.tell() == 0

    def test_undecodable_text_read_by_lines(self, tmp_path):
        # the bad byte lies past the first block the text layer decodes, so
        # the line loop meets the unknown endpoint on line 1 first
        path = tmp_path / "edges.csv"
        path.write_bytes(b"a,ghost\n" + b"a,b\n" * 5000 + b"\xff,b\n")
        docs = [Document(id="a"), Document(id="b")]
        for lenient, error in ((False, UnknownEndpointError),
                               (True, UnicodeDecodeError)):
            for reader in (iter_edge_records, line_edge_records):
                with open(path, encoding="utf-8") as fh, pytest.raises(error):
                    CitationNetwork(docs, reader(fh, {"a", "b"}), lenient=lenient)

    def test_unseekable_stream_read_by_lines(self):
        docs = [Document(id="a"), Document(id="b")]
        net = CitationNetwork(docs, iter_edge_records(iter(["a,b\n", "b,a"]),
                                                      {"a", "b"}))
        assert net.edges == (("a", "b"), ("b", "a"))


class TestWithDocuments:
    def test_replaces_documents_and_shares_edges(self):
        net = parse('{"id": "b"}\n{"id": "a"}\n', "a,b\na,ghost\n", lenient=True)
        new = net.with_documents([Document(id="a", basic_terms=3),
                                  Document(id="b", clinical_terms=1)])
        assert new.docs["a"].basic_terms == 3 and net.docs["a"].basic_terms == 0
        assert list(new.docs) == ["a", "b"]
        assert new.edges == net.edges and new.out_adj is net.out_adj
        assert new.skipped_edges == (("a", "ghost"),)

    def test_ids_must_match(self):
        net = parse('{"id": "a"}\n{"id": "b"}\n', "a,b\n")
        with pytest.raises(ValueError, match="ids"):
            net.with_documents([Document(id="a")])
        with pytest.raises(DuplicateIdError, match="a"):
            net.with_documents([Document(id="a"), Document(id="a")])
