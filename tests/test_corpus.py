import io
import itertools
import json
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktmap import corpus
from ktmap.corpus import (CitationNetwork, CorpusText, Document, Lexicon,
                          UGraph, co_citation_projection, count_terms,
                          iter_edge_records, load_corpus, parse_corpus,
                          write_corpus)
from ktmap.errors import (DuplicateIdError, LexiconOverlapError,
                          MalformedRecordError, SelfLoopError,
                          UnknownEndpointError)
from ktmap.report import PipelineConfig, _parse_stage
from ktmap.selection import select_top_cited

from conftest import (StringCitationNetwork, graph_edges, iter_node_records,
                      line_edge_records, line_node_records, make_net,
                      reference_write_corpus)


def parse(nodes_text, edges_text, **kwargs):
    return parse_corpus(io.StringIO(nodes_text), io.StringIO(edges_text), **kwargs)


def _documents(net):
    """The network's Documents, in id order, built from its columns."""
    return [net.document(i) for i in range(net.n_docs)]


class _UnseekableBytes(io.BytesIO):
    def seekable(self):
        return False


def pipe(text):
    """A text stream of `text` (str, or bytes as they are) that cannot seek,
    decoded as a pipe is."""
    data = text if isinstance(text, bytes) else text.encode("utf-8", "surrogatepass")
    return io.TextIOWrapper(_UnseekableBytes(data), encoding="utf-8")


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

    @pytest.mark.parametrize("fields", [
        {"year": True}, {"year": 2001.0}, {"year": np.int64(2001)},
        {"basic_terms": True}, {"basic_terms": np.int64(3)},
        {"clinical_terms": 2.0}, {"ext_citations": "7"}, {"ext_citations": False},
        {"id": "a b"}, {"id": "x,y"}, {"id": 'x"y'}, {"id": "#x"}, {"id": 5},
        {"raw_terms": ["hpv"]}, {"raw_terms": ("HPV",)}, {"raw_terms": (1,)}])
    def test_rejects_what_the_reader_rejects(self, fields):
        with pytest.raises(ValueError):
            Document(**{"id": "a", **fields})


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

    def test_load_lines_split_at_newlines_alone(self, tmp_path):
        # a leading BOM is no part of the first term; \x85 and \u2028 end
        # no line, and are stripped only at a line's ends
        (tmp_path / "basic.txt").write_bytes(
            "\ufeffApoptosis\r\nki\x85nase\rx\u2028y\n\u2028\n".encode("utf-8"))
        (tmp_path / "clin.txt").write_bytes("\ufefftrial\x85\n".encode("utf-8"))
        lex = Lexicon.load(tmp_path / "basic.txt", tmp_path / "clin.txt")
        assert lex.basic == {"apoptosis", "ki\x85nase", "x\u2028y"}
        assert lex.clinical == {"trial"}

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n"])
    def test_undecodable_line_named(self, tmp_path, newline):
        (tmp_path / "basic.txt").write_bytes(b"kinase\n")
        (tmp_path / "clin.txt").write_bytes(newline.join([b"trial", b"", b"x\xffy", b""]))
        with pytest.raises(MalformedRecordError) as exc:
            Lexicon.load(tmp_path / "basic.txt", tmp_path / "clin.txt")
        assert str(exc.value) == "lexicon_clinical line 3: not UTF-8 (invalid start byte)"


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
        assert len(net.in_adj[net.index["b"]]) == 2
        assert net.projection.n_edges == 2

    def test_duplicate_id(self):
        with pytest.raises(DuplicateIdError, match="a"):
            parse('{"id": "a"}\n{"id": "a"}\n', "")

    @pytest.mark.parametrize("stream", [io.StringIO, pipe])
    def test_duplicate_id_names_its_line(self, stream):
        # the first line that repeats an id, before a later malformed line
        nodes = '{"id": "a"}\n\n{"id": "b"}\n{"id": "a"}\n{oops\n'
        with pytest.raises(DuplicateIdError) as exc:
            parse_corpus(stream(nodes), io.StringIO(""))
        assert str(exc.value) == "nodes line 4: duplicate document id 'a'"

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
        doc = net.document(net.index["a"])
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
        assert net.kinds == ["patent"]


class TestNetworkInvariants:
    def test_in_degree_sum_equals_edge_count(self):
        net = make_net([("a", "b"), ("c", "b"), ("c", "a"), ("d", "a")])
        assert sum(map(len, net.in_adj)) == net.n_edges

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
        assert back.clinical_terms[back.index["b"]] == 3
        assert back.years[back.index["a"]] == 2001

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


    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_projection_subgraph_is_induced_projection(self, data):
        # hub detection on a co-citation partition takes the first
        ids = [f"p{i}" for i in range(data.draw(st.integers(2, 12)))]
        pairs = [(u, v) for u in ids for v in ids if u != v]
        edges = data.draw(st.lists(st.sampled_from(pairs), max_size=30, unique=True))
        net = make_net(edges, nodes=ids)
        keep = data.draw(st.lists(st.sampled_from(ids)))
        nodes = sorted({net.index[v] for v in keep})
        sub, ref = net.projection.subgraph(nodes), net.induced(keep).projection
        assert sub.ids == ref.ids
        assert ([list(nbrs.items()) for nbrs in sub.adj]
                == [list(nbrs.items()) for nbrs in ref.adj])
        # in another order, node i is still nodes[i], and its neighbours
        # keep the whole graph's index order
        back = net.projection.subgraph(nodes[::-1])
        assert back.ids == sub.ids[::-1]
        assert ([[(back.ids[j], w) for j, w in nbrs.items()] for nbrs in back.adj]
                == [[(sub.ids[j], w) for j, w in nbrs.items()] for nbrs in sub.adj][::-1])


class TestEdgeStore:
    """The parsed edge lists serve in-degrees, selection and induced
    networks; adjacency is built only where something reads it."""

    def test_selection_leaves_adjacency_unbuilt(self):
        text = "citing,cited\n" + "".join(
            f"d{u},d{v}\n" for u in range(6) for v in range(u) if (u + v) % 3)
        net = parse("".join(f'{{"id": "d{i}"}}\n' for i in range(6)), text)
        core = select_top_cited(net, 0.5)
        # in-degrees 4, 2, 2, 2, 0, 0: d3 ties with d2 at the boundary
        assert net.in_degrees == [4, 2, 2, 2, 0, 0]
        assert core.ids == ("d0", "d1", "d2", "d3")
        assert core.edges == (("d1", "d0"), ("d2", "d0"), ("d3", "d1"), ("d3", "d2"))
        assert not net._adjacency and not core._adjacency
        assert net.out_adj[5] == [0, 2, 3] and net._adjacency

    def test_keeping_every_document_shares_the_edge_store(self):
        net = parse('{"id": "b"}\n{"id": "a"}\n', "a,b\nb,a\n")
        core = net.induced(["b", "a"])
        assert core.ids == net.ids == ("a", "b")
        assert core.years is net.years and core.raw_terms is net.raw_terms
        assert core.edges == net.edges and core.citing is net.citing
        assert core.out_adj is net.out_adj


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
        assert g.ids.index("c") in g.adj[g.ids.index("b")]
        assert g.adj[g.ids.index("b")][g.ids.index("c")] == 1.0

    def test_never_co_cited(self):
        net = make_net([("a", "b"), ("c", "b")])
        g = co_citation_projection(net)
        assert g.n_edges == 0

    def test_weight_two(self):
        net = make_net([("a", "x"), ("a", "y"), ("b", "x"), ("b", "y")])
        g = co_citation_projection(net)
        assert g.adj[g.ids.index("x")][g.ids.index("y")] == 2.0

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
                got = g.adj[g.ids.index(u)].get(g.ids.index(v), 0)
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
    return graph.ids, graph_edges(graph), [list(nbrs.items()) for nbrs in graph.adj]


def _assert_same_network(net, ref):
    assert net.ids == ref.ids
    assert _documents(net) == [ref.docs[v] for v in ref.ids]
    assert net.edges == ref.edges
    assert net.n_edges == len(ref.edges)
    assert net.skipped_edges == ref.skipped_edges
    ids = net.ids
    # so is every node of the edge lists
    assert all(u is net.index[ids[u]] for u in net.citing + net.cited)
    # every adjacency entry is the index's int object for its node
    assert all(u is net.index[ids[u]] for row in net.out_adj + net.in_adj for u in row)
    assert net.in_degrees == [len(net.in_adj[v]) for v in range(net.n_docs)]
    assert [[ids[u] for u in citing] for citing in net.in_adj] == [
        ref.citers(v) for v in ref.ids]
    assert [[ids[v] for v in cited] for cited in net.out_adj] == [
        ref.cited_by(v) for v in ref.ids]
    assert _graph_view(net.projection) == _graph_view(ref.projection)
    assert (_graph_view(co_citation_projection(net))
            == _graph_view(ref.co_citation_projection()))


class TestAgainstStringOracle:
    """CitationNetwork and iter_edge_records against the string-keyed
    network and line reader of conftest, on generated edge files read from
    a StringIO, a file and a stream that cannot seek."""

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

        nodes_text = "".join(json.dumps({"id": doc.id, "year": doc.year}) + "\n"
                             for doc in docs)
        builds = (
            # the string pairs of iter_edge_records
            (lambda fh: CitationNetwork(docs, iter_edge_records(fh, known),
                                        lenient=lenient),
             lambda: docs),
            # the int codes of the whole-file edges path, after the nodes
            # reader, which names the line of a duplicate id
            (lambda fh: parse_corpus(io.StringIO(nodes_text), fh, lenient=lenient),
             lambda: list(line_node_records(io.StringIO(nodes_text)))),
        )
        for opener, (build, ref_docs) in itertools.product(
                (lambda: io.StringIO(text), lambda: open(path, encoding="utf-8"),
                 lambda: pipe(text)),
                builds):
            with opener() as fh:
                net, exc, logged = _outcome(lambda: build(fh))
            with opener() as fh:
                ref, ref_exc, ref_logged = _outcome(lambda: StringCitationNetwork(
                    ref_docs(), line_edge_records(fh, known), lenient=lenient))
            assert logged == ref_logged
            if ref_exc is not None:
                assert type(exc) is type(ref_exc) and str(exc) == str(ref_exc)
                continue
            assert exc is None
            _assert_same_network(net, ref)
            keep = data.draw(st.lists(st.sampled_from(ref.ids))) if ref.ids else []
            _assert_same_network(net.induced(keep), ref.induced(keep))

    @pytest.mark.parametrize("block", [1, 7, corpus._BLOCK])
    @pytest.mark.parametrize("odd", [None, "", " 0,1", "0,ghost", "1,1", "#0,1",
                                     "0,1,2", "0"])
    def test_int_codes_block_by_block(self, monkeypatch, block, odd):
        # a text longer than a block, read in blocks of any size, with an
        # odd line put in near its end
        monkeypatch.setattr(corpus, "_BLOCK", block)
        # ids that stay ids when a digit is lost
        ids = [str(i) for i in range(3000)]
        lines = ["citing,cited"] + [f"{u},{v}" for u, *cited in zip(
            ids, ids[1:], ids[2:], ids[3:]) for v in cited]
        if odd is not None:
            lines.insert(len(lines) - 5, odd)
        text = "\n".join(lines) + "\n"
        assert len(text) > corpus._BLOCK
        nodes = "".join(f'{{"id": "{v}"}}\n' for v in ids)
        net, exc, logged = _outcome(lambda: parse_corpus(
            io.StringIO(nodes), io.StringIO(text), lenient=True))
        ref, ref_exc, ref_logged = _outcome(lambda: StringCitationNetwork(
            [Document(id=v) for v in ids],
            line_edge_records(io.StringIO(text), set(ids)), lenient=True))
        assert logged == ref_logged
        if ref_exc is not None:
            assert type(exc) is type(ref_exc) and str(exc) == str(ref_exc)
        else:
            _assert_same_network(net, ref)

    @pytest.mark.parametrize("shuffled", [False, True])
    def test_one_int_object_per_node(self, shuffled):
        # past 256 nodes, equal ints are distinct objects unless shared, so
        # the sub-network too has more
        ids = [f"d{i:03d}" for i in range(600)]
        pairs = [(u, v) for u, *cited in zip(ids, ids[1:], ids[2:], ids[3:])
                 for v in cited]
        if shuffled:  # out of order, with duplicates
            pairs = pairs[::-1] + pairs[:5]
        docs = [Document(id=v) for v in ids]
        nodes = "".join(f'{{"id": "{v}"}}\n' for v in ids)
        text = "citing,cited\n" + "".join(f"{u},{v}\n" for u, v in pairs)
        ref = StringCitationNetwork(docs, pairs)
        for net in (CitationNetwork(docs, pairs), parse(nodes, text),
                    parse_corpus(pipe(nodes), pipe(text))):
            _assert_same_network(net, ref)
            _assert_same_network(net.induced(ids[::2]), ref.induced(ids[::2]))

    @pytest.mark.parametrize("text", [
        "citing,cited\na,b\nb,c\n",
        "a,b\nb,c",
        "a,b\n\n\n",
        "x#y,a\n",
    ])
    def test_plain_text_read_whole(self, text):
        # the int-code path takes it: one comma per line, every field an id
        index = {v: i for i, v in enumerate(["a", "b", "c", "x#y"])}
        fields = text.rstrip("\n").replace("\n", ",").split(",")
        if fields[:2] == ["citing", "cited"]:
            del fields[:2]
        found = corpus._edge_text_nodes(text.rstrip("\n"), index)
        assert found is not None
        assert found[:2] == ([index[v] for v in fields[::2]],
                             [index[v] for v in fields[1::2]])

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
        # the int-code path leaves it to the line loop, which reads the
        # text from its start, as the reference reader does
        ids = ["a", "b", "c", "d"]
        index = {v: i for i, v in enumerate(ids)}
        found = corpus._edge_text_nodes(text.rstrip("\n"), index)
        assert found is None or None in found[0] + found[1]
        nodes = "".join(f'{{"id": "{v}"}}\n' for v in ids)
        net, exc, logged = _outcome(lambda: parse_corpus(
            io.StringIO(nodes), io.StringIO(text)))
        ref, ref_exc, ref_logged = _outcome(lambda: StringCitationNetwork(
            [Document(id=v) for v in ids],
            line_edge_records(io.StringIO(text), set(ids))))
        assert logged == ref_logged
        if ref_exc is not None:
            assert type(exc) is type(ref_exc) and str(exc) == str(ref_exc)
        else:
            _assert_same_network(net, ref)

    @pytest.mark.parametrize("text", ["a,\ud800\n", "citing,cited\n\ud800,a\n",
                                      "\ud800,b\na,\ud800\n", "a,\ud800,b\n"])
    def test_lone_surrogate_id(self, text):
        # a \ud800 escape in a nodes file gives an id no file can hold (a
        # StringIO could): the nodes line is rejected before any edge is read
        nodes = '{"id": "a"}\n{"id": "b"}\n{"id": "\\ud800"}\n'
        net, exc, logged = _outcome(lambda: parse_corpus(
            io.StringIO(nodes), io.StringIO(text)))
        ref, ref_exc, ref_logged = _outcome(lambda: StringCitationNetwork(
            list(line_node_records(io.StringIO(nodes))),
            line_edge_records(io.StringIO(text), {"a", "b", "\ud800"})))
        assert logged == ref_logged
        assert type(exc) is type(ref_exc) is MalformedRecordError
        assert str(exc) == str(ref_exc) == (
            "nodes line 3: id '\\ud800' holds a lone surrogate, which UTF-8 "
            "cannot encode")
        with pytest.raises(ValueError, match="lone surrogate"):
            Document(id="\ud800")

    def test_undecodable_text_reported_first(self, tmp_path):
        # the text is read whole before any edge is, so the bad byte, far
        # past the first block the text layer decodes, is reported at its
        # line, lenient or not, and not the unknown endpoint on line 1; a
        # file and a pipe, with any line ends, name the same line
        nodes = '{"id": "a"}\n{"id": "b"}\n'
        path = tmp_path / "edges.csv"
        for newline, lenient in itertools.product((b"\n", b"\r\n", b"\r"), (False, True)):
            data = (b"a,ghost\n" + b"a,b\n" * 5000 + b"\xff,b\n").replace(b"\n", newline)
            path.write_bytes(data)
            for opener in (lambda: open(path, encoding="utf-8"), lambda: pipe(data)):
                with opener() as fh, pytest.raises(MalformedRecordError) as exc:
                    parse_corpus(io.StringIO(nodes), fh, lenient=lenient)
                assert str(exc.value) == "edges line 5002: not UTF-8 (invalid start byte)"

    def test_unseekable_stream_read_by_lines(self):
        net, text = parse_corpus(io.StringIO('{"id": "a"}\n{"id": "b"}\n'),
                                 iter(["a,b\n", "b,a"]), keep_text=True)
        assert net.edges == (("a", "b"), ("b", "a")) and text.edges is None


# -- whole-file nodes path against the line loop of conftest ---------------

def _good_or_bad(good, bad):
    """A field's values: mostly right ones, now and then a wrong one."""
    return st.integers(0, 11).flatmap(lambda i: bad if i == 6 else good)


# ids fit for the edges file; ids unfit for it, and of other JSON types
_node_ids = _good_or_bad(
    st.sampled_from(["a", "b", "p1", "x#y", "\u00e9t\u00e9", "A", "\u65e5\u672c"]),
    st.sampled_from(["a\u2028b", "a\x85b", 5, 0, True, 1.5, None, [], "", " x",
                     "#x", "x,y", 'x"y']))
_terms = st.lists(st.sampled_from(["Apoptosis", "trial", "x\u2028y", "\x85",
                                   "\x0b\x0c", "\u00c9t\u00e9", "x},{"]), max_size=3)
# record fields, each with values right and wrong for it
_node_fields = {
    "year": _good_or_bad(st.sampled_from([2001, 0, -3]),
                         st.sampled_from([True, 1.5, "1999", None, [1]])),
    "kind": _good_or_bad(st.sampled_from(["paper", "patent"]),
                         st.sampled_from(["novel", None, ["paper"], 1])),
    "basic_terms": _good_or_bad(st.sampled_from([0, 3]),
                                st.sampled_from([-1, True, 2.0, None, "2"])),
    "clinical_terms": _good_or_bad(st.sampled_from([0, 4]),
                                   st.sampled_from([-2, False, None])),
    "terms": _good_or_bad(_terms, st.sampled_from(["x", None, [1], ["a", 2], {}])),
    "ext_citations": _good_or_bad(st.sampled_from([7, -1]),
                                  st.sampled_from([True, None, 2.5])),
    # a field that is no Document field; some of its values hold "},"
    "title": _good_or_bad(st.sampled_from(["Q", "", {"k": [1]}]),
                          st.sampled_from(["a},b", {"k": [1, {"a": 2}]}, [{}, {}]])),
}


@st.composite
def node_lines(draw):
    """One nodes line: a JSON object with an id and other fields (or not),
    in any order, maybe with a key twice, in one of several layouts."""
    items = [("id", draw(_node_ids))] if draw(st.integers(0, 19)) else []
    items += [(key, draw(values)) for key, values in _node_fields.items()
              if draw(st.integers(0, 2)) == 0]
    items = draw(st.permutations(items))
    if items and draw(st.integers(0, 9)) == 0:  # a duplicate key
        items.append((draw(st.sampled_from(items))[0], draw(_node_ids)))
    item_sep, key_sep = draw(st.sampled_from([(", ", ": "), (",", ":"),
                                              (" ,\t", " : ")]))
    ascii_only = draw(st.booleans())
    return "{" + item_sep.join(
        json.dumps(key) + key_sep + json.dumps(value, ensure_ascii=ascii_only)
        for key, value in items) + "}"


_odd_node_lines = st.one_of(
    st.builds("{},{}".format, node_lines(), node_lines()),
    st.builds("{} ,\t{}".format, node_lines(), node_lines()),
    st.builds("{} {}".format, node_lines(), node_lines()),
    st.builds("\ufeff{}".format, node_lines()),
    st.builds(" \x0c{}\t\x85".format, node_lines()),
    st.sampled_from(["", "   ", "\x0c", "\t\x0b ", "\x85", "\u2028", "[1]", "1",
                     '"x"', "null", "{", '{"id": "a"', "]", "[{}]",
                     '{"id": "d", "x": ' + "[" * 1100 + "]" * 1100 + "}"]),
).map(lambda line: [line]) | st.sampled_from([
    ['{"id": "s1", "x": [1', '2]}'],  # a record across two lines
    ['{"id": "s1", "x": [{}',         # the same, and two records on a line
     '{}]}',
     '{"id": "s2"},{"id": "s3"}'],
])


@st.composite
def node_texts(draw):
    """A nodes file of generated lines with up to three odd lines or runs
    put in anywhere, LF, CRLF or CR line ends, and any final line end."""
    lines = draw(st.lists(node_lines(), max_size=8))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
        at = draw(st.integers(0, len(lines)))
        lines[at:at] = draw(_odd_node_lines)
    # a lone CR ends a line only where a file is read with universal newlines
    newline = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    final = draw(st.sampled_from([newline, "", newline * 2]))
    return newline.join(lines) + (final if lines else "")


def _records(text, stream, reader):
    """reader's documents of `text`, from a StringIO or a file, and their
    field dicts; or the exception it raises."""
    with stream(text) as fh:
        try:
            docs = list(reader(fh))
        except Exception as exc:  # compared with the oracle's
            return exc
    return docs, [list(vars(doc).items()) for doc in docs]


class TestNodesAgainstLineOracle:
    """iter_node_records, which reads its stream whole, against the line
    loop of conftest on generated nodes files, read from a StringIO, a file
    and a stream that cannot seek."""

    @settings(max_examples=400, deadline=None)
    @given(text=node_texts())
    def test_same_documents_or_error(self, text, tmp_path_factory):
        path = tmp_path_factory.mktemp("nodes") / "nodes.jsonl"
        path.write_bytes(text.encode("utf-8", "surrogatepass"))
        for stream in (io.StringIO, lambda _: open(path, encoding="utf-8"), pipe):
            got = _records(text, stream, iter_node_records)
            ref = _records(text, stream, line_node_records)
            if isinstance(ref, Exception):
                assert type(got) is type(ref) and str(got) == str(ref)
            else:
                assert got == ref

    @pytest.mark.parametrize("block", [1, 40])
    @settings(max_examples=150, deadline=None)
    @given(text=node_texts())
    def test_same_documents_or_error_block_by_block(self, block, text):
        # blocks of one line each, or of a few lines, so that an odd line
        # sends only its own block to the line loop
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(corpus, "_BLOCK", block)
            got = _records(text, io.StringIO, iter_node_records)
        ref = _records(text, io.StringIO, line_node_records)
        if isinstance(ref, Exception):
            assert type(got) is type(ref) and str(got) == str(ref)
        else:
            assert got == ref

    @pytest.mark.parametrize("key, value", [
        (key, value) for key, values in (
            ("id", [5, True, 1.5, None, [], "", " x", "#x", "x,y", 'x"y', "a\u2028b"]),
            ("year", [True, 1.5, "1999", [1]]),
            ("kind", ["novel", None, ["paper"], 1]),
            ("basic_terms", [-1, True, 2.0, None, "2"]),
            ("clinical_terms", [-2, False]),
            ("terms", ["x", [1], ["a", 2], {}]),
            ("ext_citations", [True, 2.5, "7"]))
        for value in values])
    def test_each_wrong_value_alone(self, key, value):
        right = ['{"id": "a", "year": 2001, "terms": ["HPV"]}',
                 '{"id": "b", "kind": "patent", "basic_terms": 2, "ext_citations": 1}']
        text = "\n".join(right + [json.dumps({"id": "c", key: value})] + right[:1]) + "\n"
        got = _records(text, io.StringIO, iter_node_records)
        ref = _records(text, io.StringIO, line_node_records)
        if isinstance(ref, Exception):
            assert type(got) is type(ref) and str(got) == str(ref)
        else:  # an id of another JSON type, as its str
            assert key == "id" and got == ref

    @settings(max_examples=100, deadline=None)
    @given(text=node_texts())
    def test_duplicate_ids_as_the_string_network(self, text):
        got = _outcome(lambda: parse_corpus(io.StringIO(text), io.StringIO("")))
        ref = _outcome(lambda: StringCitationNetwork(
            list(line_node_records(io.StringIO(text))), []))
        if ref[1] is not None:
            assert type(got[1]) is type(ref[1]) and str(got[1]) == str(ref[1])
        else:
            assert _documents(got[0]) == [ref[0].docs[v] for v in ref[0].ids]

    def test_undecodable_text_reported_first(self, tmp_path):
        # the text is read whole before any record is, so the bad byte is
        # reported at its line, and not the malformed record on line 2; a
        # file and a pipe, with any line ends, name the same line
        path = tmp_path / "nodes.jsonl"
        for newline in (b"\n", b"\r\n", b"\r"):
            data = (b'{"id": "a"}\n{oops\n' + b'{"id": "b"}\n' * 5000
                    + b"\xff\n").replace(b"\n", newline)
            path.write_bytes(data)
            for opener in (lambda: open(path, encoding="utf-8"), lambda: pipe(data)):
                with opener() as fh, pytest.raises(MalformedRecordError) as exc:
                    list(iter_node_records(fh))
                assert str(exc.value) == "nodes line 5003: not UTF-8 (invalid start byte)"

    def test_unseekable_stream_read_by_lines(self):
        docs = list(iter_node_records(iter(['{"id": "b"}\n', '{"id": "a"}'])))
        assert [doc.id for doc in docs] == ["b", "a"]


# -- Document: what the constructor accepts, the reader reads back ---------

# values wrong for an int field: bool, float, str and numpy values
_not_ints = st.sampled_from([True, False, 2.0, float("nan"), "7", np.int64(3),
                             np.bool_(True), np.float64(1.0)])
_doc_fields = {
    # ids fit for the edges file, and ids the reader rejects or of other types
    "id": _good_or_bad(
        st.text(min_size=1, max_size=4),
        st.sampled_from(["", "a b", "x,y", 'x"y', "#x", "a\u2028", "\x85", 5,
                         np.str_("a"), "\ud800", "a\udfff"])),
    "year": _good_or_bad(st.none() | st.integers(-3000, 3000), _not_ints),
    "kind": _good_or_bad(st.sampled_from(["paper", "patent"]),
                         st.sampled_from(["Paper", "novel", None, 1])),
    "basic_terms": _good_or_bad(st.integers(0, 10**20),
                                _not_ints | st.integers(max_value=-1) | st.none()),
    "clinical_terms": _good_or_bad(st.integers(0, 9), _not_ints | st.just(-1)),
    # lowercase terms; mixed-case ones, lists and non-strings
    "raw_terms": _good_or_bad(
        st.none() | st.lists(st.text(max_size=4).map(str.lower)).map(tuple),
        st.lists(st.text(max_size=4), min_size=1).map(tuple)
        | st.lists(st.sampled_from(["hpv", "HPV"]))
        | st.tuples(st.sampled_from([1, None, b"x", np.str_("x")]))),
    "ext_citations": _good_or_bad(st.none() | st.integers(), _not_ints),
}


class TestDocumentRules:
    """Document states the rules the nodes reader checks, so write_corpus
    writes every Document to files load_corpus reads back."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_accepted_documents_round_trip(self, data, tmp_path_factory):
        docs = {}
        for _ in range(data.draw(st.integers(1, 5))):
            fields = {key: data.draw(values) for key, values in _doc_fields.items()}
            try:
                doc = Document(**fields)
            except ValueError:
                continue
            docs[doc.id] = doc
        ids = sorted(docs)
        edges = data.draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids))
                                   .filter(lambda e: e[0] != e[1]), max_size=4)
                          if len(ids) > 1 else st.just([]))
        net = CitationNetwork(docs.values(), edges)
        tmp = tmp_path_factory.mktemp("doc")
        write_corpus(net, tmp / "n.jsonl", tmp / "e.csv")
        back = load_corpus(tmp / "n.jsonl", tmp / "e.csv")
        assert _documents(back) == _documents(net) == [docs[v] for v in ids]
        assert back.edges == net.edges


# -- corpus.* files: the input text where it is exactly what is written -----

_rec = json.dumps


@st.composite
def corpus_texts(draw):
    """(nodes text, edges text, lenient) of a small corpus, written as
    write_corpus writes it or with one of the differences that keep the
    input text from being copied."""
    ids = sorted(draw(st.lists(st.sampled_from(["a", "b", "c", "p1", "x#y", "Z"]),
                               min_size=2, max_size=6, unique=True)))
    docs = [{"id": v} for v in ids]
    for doc in docs:
        for key, values in (("year", st.integers(-5, 2020)),
                            ("kind", st.just("patent")),
                            ("terms", st.lists(st.sampled_from(["hpv", "trial", ""]),
                                               max_size=2)),
                            ("ext_citations", st.integers(-2, 9))):
            if draw(st.booleans()):
                doc[key] = draw(values)
        doc["basic_terms"] = draw(st.integers(0, 3))
        doc["clinical_terms"] = draw(st.integers(0, 3))
    pairs = sorted({(u, v) for u, v in draw(st.lists(st.tuples(
        st.sampled_from(ids), st.sampled_from(ids)), max_size=8)) if u != v})
    lenient = False
    change = draw(st.sampled_from([
        None, "unsorted", "duplicate", "CITING,CITED", "no header",
        "newlines", "no final newline", "lenient", "kind paper", "key order", "terms case"]))
    if change == "unsorted":
        pairs = draw(st.permutations(pairs))
    elif change == "duplicate" and pairs:
        pairs.append(draw(st.sampled_from(pairs)))
    elif change == "lenient":
        pairs.append((ids[0], "ghost"))
        lenient = True
    elif change == "kind paper":
        draw(st.sampled_from(docs))["kind"] = "paper"
    elif change == "terms case":
        draw(st.sampled_from(docs))["terms"] = ["HPV"]
    order = ["id", "year", "kind", "basic_terms", "clinical_terms", "terms",
             "ext_citations"]
    if change == "key order":
        order.reverse()
    nodes = "".join(_rec({k: doc[k] for k in order if k in doc}) + "\n" for doc in docs)
    header = {"CITING,CITED": "CITING,CITED\n", "no header": ""}.get(
        change, "citing,cited\n")
    edges = header + "".join(f"{u},{v}\n" for u, v in pairs)
    if change == "newlines":
        edges += "\n\n"
    elif change == "no final newline":
        edges = edges.removesuffix("\n")
    return nodes, edges, lenient


class TestWrittenCorpus:
    """write_corpus with the texts of parse_corpus(keep_text=True) writes
    the bytes of the reference writer of conftest, by copy or by encoding."""

    @settings(max_examples=200, deadline=None)
    @given(texts=corpus_texts())
    def test_same_bytes_as_reference_writer(self, texts, tmp_path_factory):
        nodes_text, edges_text, lenient = texts
        tmp = tmp_path_factory.mktemp("written")
        net, text = parse_corpus(io.StringIO(nodes_text), io.StringIO(edges_text),
                                 lenient=lenient, keep_text=True)
        write_corpus(net, tmp / "n.jsonl", tmp / "e.csv", text)
        reference_write_corpus(net, tmp / "ref.n.jsonl", tmp / "ref.e.csv")
        assert (tmp / "n.jsonl").read_bytes() == (tmp / "ref.n.jsonl").read_bytes()
        assert (tmp / "e.csv").read_bytes() == (tmp / "ref.e.csv").read_bytes()
        # the text is kept exactly where it is what the writer writes
        assert text.nodes in (None, nodes_text) and text.edges in (None, edges_text)
        assert (text.nodes == nodes_text) == (
            (tmp / "ref.n.jsonl").read_text(encoding="utf-8") == nodes_text)
        assert (text.edges == edges_text) == (
            (tmp / "ref.e.csv").read_text(encoding="utf-8") == edges_text)

    @pytest.mark.parametrize("nodes, edges, copied", [
        ('{"id": "a", "basic_terms": 0, "clinical_terms": 0}\n'
         '{"id": "b", "basic_terms": 0, "clinical_terms": 0}\n',
         "citing,cited\na,b\nb,a\n", (True, True)),
        ('{"id": "b", "basic_terms": 0, "clinical_terms": 0}\n'
         '{"id": "a", "basic_terms": 0, "clinical_terms": 0}\n',
         "citing,cited\nb,a\na,b\n", (False, False)),  # not in id order
        ('{"id": "a"}\n{"id": "b"}\n', "citing,cited\na,b\n\n", (False, False)),
        ('{"id": "a", "basic_terms": 0, "clinical_terms": 0}',  # no final newline
         "citing,cited\n", (False, True)),
        ('{"id": "a"}\n{"id": "b"}\n', "citing,cited\na,b", (False, False)),
        ('{"id": "a"}\n{"id": "b"}\n', "citing,cited", (False, False)),
    ])
    def test_kept_text(self, nodes, edges, copied):
        net, text = parse_corpus(io.StringIO(nodes), io.StringIO(edges), keep_text=True)
        assert (text.nodes is not None, text.edges is not None) == copied
        assert isinstance(text, CorpusText)
        assert isinstance(parse_corpus(io.StringIO(nodes), io.StringIO(edges)),
                          CitationNetwork)

    def test_counted_terms_written_not_the_input(self, tmp_path):
        # a canonical nodes file whose counts the lexicon fills in: the
        # parse stage writes the counts, and still copies the edges text
        lines = [{"id": v, "basic_terms": 0, "clinical_terms": 0, "terms": [t]}
                 for v, t in (("a", "kinase"), ("b", "trial"), ("c", "other"))]
        paths = {name: tmp_path / name for name in
                 ("nodes.jsonl", "edges.csv", "basic.txt", "clinical.txt")}
        texts = ("".join(json.dumps(rec) + "\n" for rec in lines),
                 "citing,cited\na,b\nc,a\n", "kinase\n", "trial\n")
        for path, text in zip(paths.values(), texts):
            path.write_text(text, encoding="utf-8")
        config = PipelineConfig(nodes=str(paths["nodes.jsonl"]),
                                edges=str(paths["edges.csv"]),
                                lexicon_basic=str(paths["basic.txt"]),
                                lexicon_clinical=str(paths["clinical.txt"]))
        net, _ = _parse_stage(config, tmp_path)
        assert list(zip(net.basic_terms, net.clinical_terms)) == [(1, 0), (0, 1), (0, 0)]
        reference_write_corpus(net, tmp_path / "ref.n.jsonl", tmp_path / "ref.e.csv")
        for part, ref in (("nodes.jsonl", "ref.n.jsonl"), ("edges.csv", "ref.e.csv")):
            assert ((tmp_path / f"corpus.{part}").read_bytes()
                    == (tmp_path / ref).read_bytes())
        assert (tmp_path / "corpus.nodes.jsonl").read_text() != texts[0]
        assert (tmp_path / "corpus.edges.csv").read_text() == texts[1]


class TestColumns:
    """The network keeps one list per document field, indexed like ids."""

    @settings(max_examples=100, deadline=None)
    @given(texts=corpus_texts(), data=st.data())
    def test_file_out_of_order_gives_columns_in_id_order(self, texts, data):
        nodes_text, edges_text, lenient = texts
        shuffled = "".join(data.draw(st.permutations(nodes_text.splitlines(True))))
        ref = sorted(line_node_records(io.StringIO(shuffled)), key=lambda doc: doc.id)
        for stream in (io.StringIO, pipe):
            net, text = parse_corpus(stream(shuffled), io.StringIO(edges_text),
                                     lenient=lenient, keep_text=True)
            assert net.ids == tuple(doc.id for doc in ref)
            for name, field in zip(corpus._COLUMNS, corpus._FIELDS[1:]):
                assert getattr(net, name) == [getattr(doc, field) for doc in ref]
            assert _documents(net) == ref
            if shuffled != nodes_text:  # the ids are distinct and came sorted
                assert text.nodes is None

    @settings(max_examples=100, deadline=None)
    @given(texts=corpus_texts(), data=st.data())
    def test_induced_columns_are_slices(self, texts, data):
        nodes_text, edges_text, lenient = texts
        net = parse(nodes_text, edges_text, lenient=lenient)
        keep = data.draw(st.lists(st.sampled_from(net.ids)))
        sub = net.induced(keep)
        nodes = sorted({net.index[v] for v in keep})
        assert sub.ids == tuple(net.ids[i] for i in nodes)
        for name in corpus._COLUMNS:
            assert getattr(sub, name) == [getattr(net, name)[i] for i in nodes]
        assert _documents(sub) == [net.document(i) for i in nodes]

    @settings(max_examples=100, deadline=None)
    @given(texts=corpus_texts())
    def test_documents_round_trip(self, texts, tmp_path_factory):
        nodes_text, edges_text, lenient = texts
        net = parse(nodes_text, edges_text, lenient=lenient)
        built = CitationNetwork(_documents(net), net.edges)
        tmp = tmp_path_factory.mktemp("columns")
        write_corpus(built, tmp / "n.jsonl", tmp / "e.csv")
        back = load_corpus(tmp / "n.jsonl", tmp / "e.csv")
        assert _documents(back) == _documents(built) == _documents(net)
        assert back.edges == built.edges == net.edges


class TestWithLexicon:
    LEX = Lexicon(basic=frozenset({"kinase"}), clinical=frozenset({"trial"}))

    def test_counts_only_the_count_columns_and_shares_the_rest(self):
        # explicit counts win: c keeps its counts, d has no terms to count
        net = parse('{"id": "b", "terms": ["trial", "kinase", "trial"]}\n'
                    '{"id": "a", "year": 3, "terms": ["Kinase"], "ext_citations": 2}\n'
                    '{"id": "c", "basic_terms": 1, "terms": ["trial"]}\n'
                    '{"id": "d", "kind": "patent"}\n', "a,b\na,ghost\n", lenient=True)
        net.out_adj
        new = net.with_lexicon(self.LEX)
        assert new.basic_terms == [1, 1, 1, 0] and new.clinical_terms == [0, 2, 0, 0]
        assert net.basic_terms == [0, 0, 1, 0] and net.clinical_terms == [0, 0, 0, 0]
        for name in corpus._COLUMNS:
            if name not in ("basic_terms", "clinical_terms"):
                assert getattr(new, name) is getattr(net, name)
        assert new.ids is net.ids and new.index is net.index
        assert new.citing is net.citing and new.out_adj is net.out_adj
        assert new.skipped_edges == (("a", "ghost"),)

    def test_network_itself_when_nothing_to_count(self):
        net = parse('{"id": "a", "basic_terms": 2, "terms": ["trial"]}\n{"id": "b"}\n',
                    "a,b\n")
        assert net.with_lexicon(self.LEX) is net
