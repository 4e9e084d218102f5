"""Corpus data model: documents, lexicons, the directed citation network,
its undirected simple projection, and the weighted co-citation graph.

Input formats
-------------
nodes file : one JSON object per line with fields
    id (string, required), year (int, optional), kind ("paper"|"patent",
    default "paper"), and either basic_terms/clinical_terms (ints) or
    terms (array of strings, lowercased on load). An optional
    ext_citations int may be supplied to rank by external citation counts.
edges file : two-column delimited text ``citing,cited`` (tab or whitespace
    also accepted); ``#`` comments ignored. The first data line is a header,
    and skipped, when its fields are ``citing`` and ``cited`` in any case,
    as ``write_corpus`` writes it. That holds even when both fields are also
    document ids, so an edge between documents with those ids must come
    after a header line; a WARNING gives the line number when a line is
    read as a header although both fields name documents.
lexicon files : one term per line, UTF-8, lowercased on load.

Interned ids
------------
A CitationNetwork numbers its documents once, in sorted id order, and works
on those numbers from then on. It keeps each edge once, in two parallel
node lists sorted by (citing, cited); the in-degrees and the in- and
out-adjacency lists are built from them on first use. Edges that arrive
unordered are sorted as int codes: citing u -> cited v is ``u * n + v`` (n
documents). As the numbering follows the sorted ids, the codes sort
exactly like the (citing, cited) id pairs, so every order derived from
them is the one the string pairs would give. Id strings come back where
something is written or reported: ``ids[i]``, and the ``edges`` pairs,
built on first use.

Whole-file reading
------------------
``parse_corpus`` (and ``load_corpus``) read each seekable stream in one
piece; a stream that cannot seek is read by the line loops. The nodes
text, split on "\n" alone, is decoded by one json.loads over all its
non-blank lines where that provably gives one object per line, and a line
at a time otherwise. Either way each record is checked in line order by
``_check_fields``, the one statement of the ``Document`` rules. When every
line of the edges text is ``a,b`` (as ``write_corpus`` writes it,
optionally under its header) with two known ids and no self-loop, it is
split a block at a time and its ids are looked up straight to node numbers.
Any other edges text, down to one line the line loop would read
differently, is read line by line, and only that loop reports malformed
lines, so errors, warnings and their line numbers do not depend on the
path taken.

``parse_corpus(..., keep_text=True)`` also returns the input texts that
are exactly what ``write_corpus`` would write for the network: the edges
text when its header is ``citing,cited``, its edges come sorted, distinct
and all kept, and it ends in exactly one newline; the nodes text when
every line is in the encoder's form and the ids come in sorted order.
``write_corpus(..., text=...)`` writes those as they are. The report's
parse stage does so, dropping the nodes text when a lexicon changes the
documents, so a corpus that ``write_corpus`` wrote is copied, not
re-encoded.
"""

from __future__ import annotations

import bisect
import copy
import io
import json
import logging
import math
import operator
import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, count, islice, repeat
from typing import Container, Iterable, Iterator, NamedTuple, Sequence

from . import _kernels
from .errors import (
    DuplicateIdError,
    LexiconOverlapError,
    MalformedRecordError,
    SelfLoopError,
    UnknownEndpointError,
)

log = logging.getLogger("ktmap.corpus")

KINDS = ("paper", "patent")

# Ids are written unquoted into edges.csv and the stage CSVs. The edge
# reader splits on commas or whitespace and skips lines starting with '#';
# the stage CSVs are split on commas and not unquoted. An id that either
# would mangle is rejected at parse time, as is an id with a lone surrogate
# (a \ud800 escape in a nodes line), which no UTF-8 file can hold.
_BAD_ID = re.compile(r'[\s,"]|^#')
_SURROGATE = re.compile("[\ud800-\udfff]")


@dataclass(frozen=True)
class Document:
    """One paper or patent node of the corpus. Its fields obey the rules of
    _check_fields, so the nodes reader reads back an equal Document from
    the line write_corpus writes for it."""

    id: str
    year: int | None = None
    kind: str = "paper"
    basic_terms: int = 0
    clinical_terms: int = 0
    raw_terms: tuple[str, ...] | None = None
    ext_citations: int | None = None

    def __post_init__(self):
        _check_fields(self.__dict__)

    @classmethod
    def _trusted(cls, fields: dict) -> "Document":
        """A Document from {field: value} in field order, values already
        passed through _check_fields."""
        doc = object.__new__(cls)
        object.__setattr__(doc, "__dict__", fields)
        return doc


def _check_fields(fields: dict) -> None:
    """The document rules, on {field: value} as a Document holds them.

    The id is a non-empty string that the edges file can hold (_BAD_ID,
    _SURROGATE); year, the term counts and ext_citations are ints, bools
    not included, and the counts are not negative; kind is one of KINDS;
    raw_terms is None or a tuple of lowercase strings. A ValueError names
    the first rule broken, in the order, and with the words, of the nodes
    reader's errors.
    """
    doc_id = fields["id"]
    if type(doc_id) is not str:
        raise ValueError("document id must be a non-empty string")
    if _BAD_ID.search(doc_id):
        raise ValueError(f"id {doc_id!r} contains a comma, a double quote or "
                         "whitespace, or starts with '#'")
    if _SURROGATE.search(doc_id):
        raise ValueError(f"id {doc_id!r} holds a lone surrogate, which UTF-8 "
                         "cannot encode")
    terms = fields["raw_terms"]
    if terms is not None and (type(terms) is not tuple or not all(
            type(term) is str and term == term.lower() for term in terms)):
        raise ValueError("'terms' must be an array of strings")
    basic = fields["basic_terms"]
    if type(basic) is not int:
        raise ValueError("'basic_terms' must be an integer")
    clinical = fields["clinical_terms"]
    if type(clinical) is not int:
        raise ValueError("'clinical_terms' must be an integer")
    year = fields["year"]
    if year is not None and type(year) is not int:
        raise ValueError("'year' must be an integer")
    ext = fields["ext_citations"]
    if ext is not None and type(ext) is not int:
        raise ValueError("'ext_citations' must be an integer")
    if not doc_id:
        raise ValueError("document id must be a non-empty string")
    if fields["kind"] not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {fields['kind']!r}")
    if basic < 0 or clinical < 0:
        raise ValueError(f"term counts must be non-negative ({doc_id})")


@dataclass(frozen=True)
class Lexicon:
    """Two disjoint term sets defining the basic and clinical vocabularies."""

    basic: frozenset[str]
    clinical: frozenset[str]

    def __post_init__(self):
        overlap = self.basic & self.clinical
        if overlap:
            sample = ", ".join(sorted(overlap)[:5])
            raise LexiconOverlapError(
                f"{len(overlap)} term(s) in both lexicons: {sample}")

    @classmethod
    def load(cls, basic_path, clinical_path) -> "Lexicon":
        return cls(basic=_read_terms(basic_path), clinical=_read_terms(clinical_path))


def _read_terms(path) -> frozenset[str]:
    terms = set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            term = line.strip().lower()
            if term:
                terms.add(term)
    return frozenset(terms)


def count_terms(raw_terms: Sequence[str], lexicon: Lexicon) -> tuple[int, int]:
    """Count exact whole-token matches (with multiplicity) against each side.

    Terms in neither lexicon are ignored. Empty input yields (0, 0).
    """
    basic = clinical = 0
    for term in raw_terms:
        if term in lexicon.basic:
            basic += 1
        elif term in lexicon.clinical:
            clinical += 1
    return basic, clinical


class UGraph:
    """Undirected simple graph over string node ids, with optional edge weights.

    Nodes are indexed 0..n-1 in the order given; edges are stored as an
    adjacency map of index -> {index: weight}. Every weight must be finite
    and > 0 (ValueError otherwise). Instances are treated as immutable once
    built, which lets them keep derived values such as triangle counts.
    """

    __slots__ = ("ids", "adj", "_triangles")

    def __init__(self, ids: Sequence[str],
                 edges: Iterable[tuple[str, str, float]] = ()):
        self.ids: tuple[str, ...] = tuple(ids)
        index = {v: i for i, v in enumerate(self.ids)}
        if len(index) != len(self.ids):
            raise DuplicateIdError("duplicate node id in graph")
        self.adj: list[dict[int, float]] = [{} for _ in self.ids]
        for u, v, w in edges:
            iu, iv = index[u], index[v]
            if iu == iv:
                raise SelfLoopError(f"self-loop on {u!r}")
            if iv in self.adj[iu]:
                raise ValueError(f"duplicate edge ({u!r}, {v!r})")
            # the greedy merge is exact only for positive weights
            if not 0.0 < w < math.inf:
                raise ValueError(f"edge ({u!r}, {v!r}) weight {w!r} is not "
                                 "finite and > 0")
            self.adj[iu][iv] = w
            self.adj[iv][iu] = w
        self._triangles: tuple[int, ...] | None = None

    @property
    def n_nodes(self) -> int:
        return len(self.ids)

    @property
    def n_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self.adj) // 2

    @property
    def total_weight(self) -> float:
        return sum(sum(nbrs.values()) for nbrs in self.adj) / 2.0

    def edge_arrays(self) -> tuple[list[int], list[int], list[float]]:
        """Edge list as parallel index/weight arrays, in deterministic order."""
        us, vs, ws = [], [], []
        for i in range(len(self.ids)):
            for j in sorted(self.adj[i]):
                if j > i:
                    us.append(i)
                    vs.append(j)
                    ws.append(self.adj[i][j])
        return us, vs, ws

    def adjacency_sorted(self) -> list[list[int]]:
        return [sorted(nbrs) for nbrs in self.adj]

    def triangle_counts(self) -> tuple[int, ...]:
        """Number of edges among each node's neighbors, by node index.

        Counted on first use and kept, so the metrics table, the C(k) fit
        and hub detection of one graph share a single count.
        """
        if self._triangles is None:
            self._triangles = tuple(
                _kernels.triangle_counts(self.adjacency_sorted()))
        return self._triangles

    def subgraph(self, nodes: Sequence[int]) -> "UGraph":
        """Induced subgraph on the given distinct node indices, which become
        its nodes 0, 1, ... in the order given; each keeps its neighbours in
        ascending index order of this graph."""
        new_of = dict(zip(nodes, range(len(nodes))))
        adj = [{new_of[j]: nbrs[j] for j in sorted(nbrs) if j in new_of}
               for nbrs in map(self.adj.__getitem__, nodes)]
        return UGraph._trusted(list(map(self.ids.__getitem__, nodes)), adj)

    @classmethod
    def _trusted(cls, ids: Sequence[str], adj: list[dict[int, float]]) -> "UGraph":
        """A graph from parts already checked: distinct ids, and a symmetric
        adjacency without self-loops, weights finite and > 0. Each node's
        neighbours must come in the order __init__ would insert them, so
        that iteration order, and every float sum over it, is the same."""
        graph = cls.__new__(cls)
        graph.ids = tuple(ids)
        graph.adj = adj
        graph._triangles = None
        return graph


class CitationNetwork:
    """Directed citation graph plus its derived undirected simple projection.

    Document ids are interned once, in sorted order: node i is document
    ``ids[i]`` and ``index`` maps an id back to i. The edges are stored
    once, in two parallel node lists: ``citing[e]`` cites ``cited[e]``, the
    pairs ascending and distinct, each node the index's own int object;
    ``n_edges`` counts them. The rest is derived on first use and kept:
    ``in_degrees[v]``, the citation count of v within the corpus; the
    ascending adjacency lists ``out_adj[u]`` (the nodes u cites) and
    ``in_adj[v]`` (the nodes citing v); and the string pairs of ``edges``.
    Immutable after construction and safe for concurrent reads.
    """

    def __init__(self, documents: Iterable[Document],
                 edges: Iterable[tuple[str, str]], lenient: bool = False):
        docs, ids, index = _intern(documents)
        citing, cited, skipped = _pair_nodes(index, edges, lenient)
        self._store(docs, ids, index, _code_nodes(index, citing, cited, skipped),
                    skipped)

    @classmethod
    def _from_edges(cls, documents: Iterable[Document], stream: Iterable[str],
                    lenient: bool) -> tuple["CitationNetwork", str | None]:
        """The network of `documents` and an edges stream, and the stream's
        whole text if write_corpus would write it back byte for byte (else
        None).

        A seekable stream is read whole. When every line is ``a,b`` with
        both fields known ids and no self-loop, the fields are looked up in
        the index in bulk, straight to node numbers; as no document id holds
        whitespace or a comma or starts with '#', each is read as the line
        loop reads it. Any other stream or text goes through
        iter_edge_records and the per-pair loop, so its errors and warnings
        are those of __init__.
        """
        text = _read_whole(stream)
        docs, ids, index = _intern(documents)
        found = None if text is None else _edge_text_nodes(text.rstrip("\n"), index)
        pairs = None
        # a node is its index's int object, so `is` finds the self-loops
        if found is not None and not any(map(operator.is_, found[0], found[1])):
            # every field is an id, so the text is plain as iter_edge_records
            # takes it: no blank line, comment, whitespace or empty field
            citing, cited, header = found
            if header is not None and header[0] in index and header[1] in index:
                _warn_header_names_documents(1, ",".join(header))
            skipped: tuple = ()
            if _ascending(citing, cited):
                pairs = citing, cited
        else:
            lines = stream if text is None else io.StringIO(text)
            citing, cited, skipped = _pair_nodes(
                index, iter_edge_records(lines, index), lenient)
        net = cls.__new__(cls)
        net._store(docs, ids, index, pairs or _code_nodes(index, citing, cited, skipped),
                   skipped)
        written = (pairs is not None and text.startswith("citing,cited\n")
                   and text.endswith("\n") and not text.endswith("\n\n"))
        return net, text if written else None

    def _store(self, docs: dict[str, Document], ids: tuple[str, ...],
               index: dict[str, int], pairs: tuple[list[int], list[int]],
               skipped: tuple[tuple[str, str], ...]) -> None:
        """Keep validated parts (ids sorted) and `pairs`, the (citing, cited)
        node lists of the edges in ascending order without duplicates, each
        node the index's int object, as the network's edge store."""
        self.docs = docs
        self.ids = ids
        self.index = index
        self.skipped_edges = skipped
        self.citing, self.cited = pairs
        self.n_edges = len(self.citing)
        # [out_adj, in_adj] once built; with_documents copies share it
        self._adjacency: list[list[list[int]]] = []

    # -- basic accessors -------------------------------------------------

    @property
    def n_docs(self) -> int:
        return len(self.ids)

    @cached_property
    def in_degrees(self) -> list[int]:
        """in_degrees[v]: the number of documents citing v."""
        degrees = [0] * len(self.ids)
        for v in self.cited:
            degrees[v] += 1
        return degrees

    @property
    def out_adj(self) -> list[list[int]]:
        """out_adj[u]: the nodes u cites, ascending."""
        return self._adjacency_lists()[0]

    @property
    def in_adj(self) -> list[list[int]]:
        """in_adj[v]: the nodes citing v, ascending."""
        return self._adjacency_lists()[1]

    def _adjacency_lists(self) -> list[list[list[int]]]:
        """[out_adj, in_adj], built from the edge lists on first use. Every
        entry is the index's int object for its node: one int object per
        node, shared by every list that names it, takes less memory, and
        the kernels walking these lists hit fewer cache lines."""
        adjacency = self._adjacency
        if not adjacency:
            out_adj: list[list[int]] = [[] for _ in self.ids]
            in_adj: list[list[int]] = [[] for _ in self.ids]
            for u, v in zip(self.citing, self.cited):
                out_adj[u].append(v)
                in_adj[v].append(u)
            adjacency += out_adj, in_adj
        return adjacency

    @cached_property
    def edges(self) -> tuple[tuple[str, str], ...]:
        """(citing id, cited id) pairs, sorted."""
        id_of = self.ids.__getitem__
        return tuple(zip(map(id_of, self.citing), map(id_of, self.cited)))

    # -- derived networks and graphs ----------------------------------------

    def with_documents(self, documents: Iterable[Document]) -> "CitationNetwork":
        """This network with each document replaced by one of the same id.

        The documents must carry exactly the network's ids; they are kept
        in the order given. Edge lists, skipped edges and adjacency (also
        when built later) are shared.
        """
        docs, ids, _ = _intern(documents)
        if ids != self.ids:
            raise ValueError("replacement documents must have the network's ids")
        net = copy.copy(self)
        net.docs = docs
        return net

    def induced(self, nodes: Iterable[str]) -> "CitationNetwork":
        """Sub-network induced on the given document ids. With every
        document kept, it shares this network's edge store and adjacency."""
        keep = sorted(set(nodes))
        if tuple(keep) == self.ids:
            sub = copy.copy(self)
            sub.docs = {v: self.docs[v] for v in keep}
            sub.skipped_edges = ()
            return sub
        old = [self.index[v] for v in keep]
        index = dict(zip(keep, range(len(keep))))
        new_of = [None] * self.n_docs
        for i, new in zip(old, index.values()):
            new_of[i] = new
        citing, cited = self.citing, self.cited
        us, vs = [], []
        for new, i in zip(index.values(), old):
            # i's edges are its run of the citing-sorted lists
            start = bisect.bisect_left(citing, i)
            run = cited[start:bisect.bisect_right(citing, i, start)]
            kept = [j for j in map(new_of.__getitem__, run) if j is not None]
            us += repeat(new, len(kept))
            vs += kept
        sub = CitationNetwork.__new__(CitationNetwork)
        sub._store({v: self.docs[v] for v in keep}, tuple(keep), index, (us, vs), ())
        return sub

    @cached_property
    def projection(self) -> UGraph:
        """Undirected simple projection: direction dropped, duplicates merged."""
        adj = [dict.fromkeys(sorted(cited + citing), 1.0)
               for cited, citing in zip(self.out_adj, self.in_adj)]
        return UGraph._trusted(self.ids, adj)


def co_citation_projection(net: CitationNetwork) -> UGraph:
    """Weighted co-citation graph of the cited documents.

    Nodes are the documents cited at least once; the weight of (u, v) is
    the number of documents citing both u and v. Zero-weight pairs are
    absent.
    """
    out_adj, in_adj = net.out_adj, net.in_adj
    nodes = [v for v, citing in enumerate(in_adj) if citing]
    new_of = [-1] * net.n_docs
    for new, v in enumerate(nodes):
        new_of[v] = new
    adj: list[dict[int, float]] = [{} for _ in nodes]
    # the pairs of u with the nodes after it, counted one u at a time and
    # in ascending u, so only one row's counts are alive, and every row is
    # filled in ascending neighbour order: that of the sorted (u, v) pairs
    for u, row in zip(nodes, adj):
        counts: Counter[int] = Counter()
        for w in in_adj[u]:
            cited = out_adj[w]
            counts.update(cited[bisect.bisect_right(cited, u):])
        for v in sorted(counts):
            weight = float(counts[v])
            row[new_of[v]] = weight
            adj[new_of[v]][new_of[u]] = weight
    return UGraph._trusted([net.ids[v] for v in nodes], adj)


def _intern(documents: Iterable[Document]
            ) -> tuple[dict[str, Document], tuple[str, ...], dict[str, int]]:
    """(docs by id in the order given, ids sorted, index id -> node)."""
    docs: dict[str, Document] = {}
    for doc in documents:
        if doc.id in docs:
            raise DuplicateIdError(f"duplicate document id {doc.id!r}")
        docs[doc.id] = doc
    ids = tuple(sorted(docs))
    return docs, ids, {v: i for i, v in enumerate(ids)}


def _pair_nodes(index: dict[str, int], edges: Iterable[tuple[str, str]],
                lenient: bool) -> tuple[list[int], list[int], tuple[tuple[str, str], ...]]:
    """(citing nodes, cited nodes, skipped pairs) of (citing, cited) id
    pairs, in the order given; a self-loop, or an unknown endpoint unless
    lenient, raises."""
    get = index.get
    us: list[int] = []
    vs: list[int] = []
    skipped = []
    for citing, cited in edges:
        u = get(citing)
        v = get(cited)
        if u is None or v is None or u == v:
            if citing == cited:
                raise SelfLoopError(f"self-loop edge ({citing!r}, {cited!r})")
            if lenient:
                skipped.append((citing, cited))
                continue
            missing = citing if u is None else cited
            raise UnknownEndpointError(
                f"edge ({citing!r}, {cited!r}) references unknown id {missing!r}")
        us.append(u)
        vs.append(v)
    return us, vs, tuple(skipped)


def _ascending(citing: list[int], cited: list[int]) -> bool:
    """Whether the (citing, cited) pairs are in strictly ascending order."""
    return all(map(operator.lt, zip(citing, cited),
                   zip(islice(citing, 1, None), islice(cited, 1, None))))


def _code_nodes(index: dict[str, int], citing: list[int], cited: list[int],
                skipped: tuple) -> tuple[list[int], list[int]]:
    """The (citing, cited) node lists of edges in any order, sorted and with
    duplicates dropped, each node the index's int object; with the warnings
    for collapsed duplicates and skipped edges. Edges out of order are
    sorted as int codes ``u * n + v``."""
    if not _ascending(citing, cited):
        n = len(index)
        codes = sorted(map(operator.add, map(operator.mul, citing, repeat(n)), cited))
        n_dup = len(codes)
        codes = list(dict.fromkeys(codes))  # duplicates were side by side
        n_dup -= len(codes)
        if n_dup:
            log.warning("collapsed %d duplicate citation edge(s)", n_dup)
        node = list(index.values())
        citing = list(map(node.__getitem__, map(operator.floordiv, codes, repeat(n))))
        cited = list(map(node.__getitem__, map(operator.mod, codes, repeat(n))))
    if skipped:
        log.warning("skipped %d edge(s) with unknown endpoints (lenient mode)",
                    len(skipped))
    return citing, cited


# -- parsing ---------------------------------------------------------------


class CorpusText(NamedTuple):
    """Input text that write_corpus would write back byte for byte, per
    file; None where it would write other bytes."""

    nodes: str | None
    edges: str | None


def parse_corpus(nodes_stream: Iterable[str], edges_stream: Iterable[str],
                 lenient: bool = False, keep_text: bool = False
                 ) -> CitationNetwork | tuple[CitationNetwork, CorpusText]:
    """Parse node and edge streams into a validated CitationNetwork.

    With keep_text, return (network, CorpusText): the texts, for
    write_corpus, that are exactly what it would write for this network
    (see the module docstring).
    """
    nodes_text, docs = _read_documents(nodes_stream)
    net, edges_text = CitationNetwork._from_edges(docs, edges_stream, lenient)
    if not keep_text:
        return net
    nodes_written = (nodes_text is not None and tuple(net.docs) == net.ids
                     and _is_written_nodes(nodes_text))
    return net, CorpusText(nodes_text if nodes_written else None, edges_text)


def load_corpus(nodes_path, edges_path, lenient: bool = False, keep_text: bool = False
                ) -> CitationNetwork | tuple[CitationNetwork, CorpusText]:
    with open(nodes_path, encoding="utf-8") as nf, \
            open(edges_path, encoding="utf-8") as ef:
        return parse_corpus(nf, ef, lenient=lenient, keep_text=keep_text)


def _read_whole(stream) -> str | None:
    """All the text of a seekable stream; None, the stream rewound, for any
    other stream or an undecodable one (the line loops raise it at its
    line)."""
    try:
        if not stream.seekable():
            return None
        start = stream.tell()
    except (AttributeError, OSError):
        return None
    try:
        return stream.read()
    except ValueError:
        stream.seek(start)
        return None


def iter_node_records(stream: Iterable[str]) -> Iterator[Document]:
    """The documents of a nodes stream, in file order."""
    yield from _read_documents(stream)[1]


def _read_documents(stream: Iterable[str]) -> tuple[str | None, list[Document]]:
    """(whole text, or None if not read whole; documents) of a nodes stream.

    A seekable stream is read in one piece and decoded by _decoded_whole
    where it can; any other stream or text is decoded a line at a time.
    Either way, every record is checked, and its Document built, in line
    order, so errors and their line numbers do not depend on the path.
    """
    text = _read_whole(stream)
    numbered = None if text is None else _decoded_whole(text)
    if numbered is None:
        numbered = _decoded_lines(stream if text is None else text.split("\n"))
    docs = []
    for lineno, rec in numbered:
        try:
            docs.append(_record_document(rec))
        except (ValueError, TypeError) as exc:
            raise MalformedRecordError(f"nodes line {lineno}: {exc}")
    return text, docs


def _decoded_lines(lines: Iterable[str]) -> Iterator[tuple[int, dict]]:
    """(line number, record) of each non-blank nodes line, one json.loads
    a line."""
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MalformedRecordError(f"nodes line {lineno}: invalid JSON ({exc})")
        if not isinstance(rec, dict):
            raise MalformedRecordError(f"nodes line {lineno}: expected an object")
        yield lineno, rec


# a record's closing brace before a comma on the same line
_RECORD_THEN_COMMA = re.compile(r"\}[ \t\r]*,")


def _decoded_whole(text: str) -> Iterator[tuple[int, dict]] | None:
    """_decoded_lines of a nodes text, from one json.loads over all its
    non-blank lines; None where that might not give the same records.

    The array of all non-blank lines has one record per line when it has
    as many records as lines, all objects, and no line holds an object's
    closing brace before a comma: a second record on a line needs one, and
    without it each joining comma ends a record.
    """
    if _RECORD_THEN_COMMA.search(text):
        return None
    stripped = list(map(str.strip, text.split("\n")))
    lines = list(filter(None, stripped))
    try:
        recs = json.loads("[" + ",".join(lines) + "]")
    except (ValueError, RecursionError):
        return None
    if len(recs) != len(lines) or not set(map(type, recs)) <= {dict}:
        return None
    return zip(compress(count(1), stripped), recs)


def _record_document(rec: dict) -> Document:
    """The Document of a decoded nodes record: a missing kind is "paper",
    missing counts are 0, an id of another JSON type is taken as its str
    and terms are lowercased. ValueError if it breaks a rule."""
    get = rec.get
    doc_id = get("id")
    if doc_id is None:
        raise ValueError("missing required field 'id'")
    terms = get("terms")
    if type(terms) is list:
        try:
            terms = tuple(map(str.lower, terms))
        except TypeError:  # a term that is no string: the rules reject the list
            pass
    fields = {"id": str(doc_id), "year": get("year"), "kind": get("kind", "paper"),
              "basic_terms": get("basic_terms", 0),
              "clinical_terms": get("clinical_terms", 0), "raw_terms": terms,
              "ext_citations": get("ext_citations")}
    _check_fields(fields)
    return Document._trusted(fields)


# the line of each document as write_corpus writes it, where its strings
# need no escape (and its terms are lowercase, as they are read); compiled
# on first use, as only a report's parse stage needs it
_WRITTEN_NODE = (
    r'\{"id": "[ !#-\[\]-~]+"'
    r'(?:, "year": (?:0|-?[1-9][0-9]*))?'
    r'(?:, "kind": "patent")?'
    r', "basic_terms": (?:0|[1-9][0-9]*), "clinical_terms": (?:0|[1-9][0-9]*)'
    r'(?:, "terms": \[(?:"[ !#-@\[\]-~]*"(?:, "[ !#-@\[\]-~]*")*)?\])?'
    r'(?:, "ext_citations": (?:0|-?[1-9][0-9]*))?\}')


def _is_written_nodes(text: str) -> bool:
    """Whether every line of a nodes text is exactly the line write_corpus
    writes for the document read from it, with one newline at the end.
    Only the document order remains to be checked."""
    lines = text.split("\n")
    return lines.pop() == "" and all(map(re.compile(_WRITTEN_NODE).fullmatch, lines))


# every byte but the comma and the newline
_NOT_COMMA_OR_NEWLINE = bytes(sorted(set(range(256)) - set(b",\n")))


def _one_comma_per_line(body: str) -> bool:
    """Whether each line of `body` (newline-separated) holds one comma."""
    # surrogatepass: a lone surrogate, from a \ud800 escape in a nodes
    # file, is neither
    skeleton = body.encode("utf-8", "surrogatepass").translate(
        None, _NOT_COMMA_OR_NEWLINE)
    return skeleton == b",\n" * body.count("\n") + b","


# characters per block of edges text: the per-block work is negligible,
# and the field strings of one block take under 1 MB
_BLOCK = 1 << 16


def _edge_text_nodes(body: str, index: dict[str, int]
                     ) -> tuple[list[int], list[int], tuple[str, str] | None] | None:
    """(citing nodes, cited nodes, header) of edges text without its final
    newlines, if each of its lines holds exactly one comma and every field
    is an id; else None. A first line whose fields are citing and cited, in
    any case, is the header and left out.

    The text is split and looked up a block of lines at a time, so only
    one block's field strings are alive at once.
    """
    node = index.__getitem__
    us: list[int] = []
    vs: list[int] = []
    header = None
    start = 0
    while start <= len(body):
        end = body.find("\n", start + _BLOCK)
        end = len(body) if end < 0 else end
        block = body[start:end]
        if not _one_comma_per_line(block):
            return None
        fields = block.replace("\n", ",").split(",")
        if start == 0 and fields[0].lower() == "citing" and fields[1].lower() == "cited":
            header = fields[0], fields[1]
            del fields[:2]
        try:
            us += map(node, islice(fields, 0, None, 2))
            vs += map(node, islice(fields, 1, None, 2))
        except KeyError:
            return None
        start = end + 1
    return us, vs, header


def iter_edge_records(stream: Iterable[str],
                      doc_ids: Container[str]) -> Iterator[tuple[str, str]]:
    """(citing, cited) pairs of an edges stream, one line at a time, without
    header or comments. A header line whose two fields are both in
    `doc_ids` is still skipped, with a WARNING (see the module docstring).
    The only edges reader that reports malformed lines."""
    first_data_line = True
    for lineno, line in enumerate(stream, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "," in line:
            parts = [p.strip() for p in line.split(",")]
        else:
            parts = line.split()
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise MalformedRecordError(
                f"edges line {lineno}: expected two fields, got {line!r}")
        if first_data_line:
            first_data_line = False
            if [p.lower() for p in parts] == ["citing", "cited"]:
                if parts[0] in doc_ids and parts[1] in doc_ids:
                    _warn_header_names_documents(lineno, line)
                continue
        yield parts[0], parts[1]


def _warn_header_names_documents(lineno: int, line: str) -> None:
    log.warning("edges line %d: %r was read as the header although both "
                "fields name documents; an edge between them must follow a "
                "header line", lineno, line)


# -- writing ----------------------------------------------------------------


# json.dumps with its default settings, minus its per-call argument checks
_to_json = json.JSONEncoder().encode


def write_corpus(net: CitationNetwork, nodes_path, edges_path,
                 text: CorpusText | None = None) -> None:
    """Write the standard nodes/edges files; re-parsing round-trips exactly.

    `text` is what parse_corpus(keep_text=True) returned with `net`: each
    text it holds is exactly what would be written, and is written as it
    is. Leave it out, or drop its nodes text, once the network's documents
    are not the ones parsed.
    """
    nodes, edges = text or (None, None)
    if nodes is None:
        docs = net.docs
        nodes = "".join([_to_json(document_to_record(docs[v])) + "\n"
                         for v in net.ids])
    if edges is None:
        id_of = net.ids.__getitem__
        edges = "citing,cited\n" + "".join([
            f"{citing},{cited}\n" for citing, cited in
            zip(map(id_of, net.citing), map(id_of, net.cited))])
    with open(nodes_path, "w", encoding="utf-8") as fh:
        fh.write(nodes)
    with open(edges_path, "w", encoding="utf-8") as fh:
        fh.write(edges)


def document_to_record(doc: Document) -> dict:
    rec: dict = {"id": doc.id}
    if doc.year is not None:
        rec["year"] = doc.year
    if doc.kind != "paper":
        rec["kind"] = doc.kind
    rec["basic_terms"] = doc.basic_terms
    rec["clinical_terms"] = doc.clinical_terms
    if doc.raw_terms is not None:
        rec["terms"] = list(doc.raw_terms)
    if doc.ext_citations is not None:
        rec["ext_citations"] = doc.ext_citations
    return rec
