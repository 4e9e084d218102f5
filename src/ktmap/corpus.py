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

Interned ids and document columns
---------------------------------
A CitationNetwork numbers its documents once, in sorted id order, and works
on those numbers from then on. It keeps no object per document: each
field but the id is one list indexed by node (``years``, ``kinds``, ...),
and ``document(i)`` builds a Document on demand. It keeps each edge once,
in two parallel node lists sorted by (citing, cited); the in-degrees and
the in- and out-adjacency lists are built from them on first use. Edges
that arrive unordered are sorted as int codes: citing u -> cited v is
``u * n + v`` (n documents). As the numbering follows the sorted ids, the
codes sort exactly like the (citing, cited) id pairs, so every order
derived from them is the one the string pairs would give. Id strings come
back where something is written or reported: ``ids[i]``, and the
``edges`` pairs, built on first use.

Whole-file reading
------------------
``parse_corpus`` (and ``load_corpus``) read each seekable stream in one
piece; a stream that cannot seek is read by the line loops. Both texts
are then read a block of lines at a time, so that only one block's
strings and records are alive at once. The nodes text, split on "\n"
alone, is decoded by one json.loads over each block's non-blank lines
where that provably gives one object per line, and that block a line at a
time otherwise. Either way each record is checked in line order by
``_check_fields``, the one statement of the ``Document`` rules, and its
values are appended to the columns; an id seen on an earlier line is an
error at its line. The columns are put into id order once, and only when
the file is out of order. When every line of the edges text is ``a,b`` (as
``write_corpus`` writes it, optionally under its header) with two known
ids and no self-loop, its ids are looked up straight to node numbers, and
no copy of the text is made. Any other edges text, down to one line the
line loop would read differently, is read line by line, and only that loop
reports malformed lines, so errors, warnings and their line numbers do not
depend on the path taken.

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
from dataclasses import dataclass, fields as dataclass_fields
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
        _check_fields(_field_values(self))

    @classmethod
    def _trusted(cls, values: Sequence) -> "Document":
        """A Document from its field values in _FIELDS order, already passed
        through _check_fields."""
        doc = object.__new__(cls)
        object.__setattr__(doc, "__dict__", dict(zip(_FIELDS, values)))
        return doc


# the Document fields, and the network's column of each field after the id
_FIELDS = tuple(field.name for field in dataclass_fields(Document))
_COLUMNS = ("years", "kinds", "basic_terms", "clinical_terms", "raw_terms",
            "ext_citations")
_field_values = operator.attrgetter(*_FIELDS)
_columns = operator.attrgetter(*_COLUMNS)


def _check_fields(values: Sequence) -> None:
    """The document rules, on a Document's field values in _FIELDS order.

    The id is a non-empty string that the edges file can hold (_BAD_ID,
    _SURROGATE); year, the term counts and ext_citations are ints, bools
    not included, and the counts are not negative; kind is one of KINDS;
    raw_terms is None or a tuple of lowercase strings. A ValueError names
    the first rule broken, in the order, and with the words, of the nodes
    reader's errors.
    """
    doc_id, year, kind, basic, clinical, terms, ext = values
    if type(doc_id) is not str:
        raise ValueError("document id must be a non-empty string")
    if _BAD_ID.search(doc_id):
        raise ValueError(f"id {doc_id!r} contains a comma, a double quote or "
                         "whitespace, or starts with '#'")
    if _SURROGATE.search(doc_id):
        raise ValueError(f"id {doc_id!r} holds a lone surrogate, which UTF-8 "
                         "cannot encode")
    if terms is not None and (type(terms) is not tuple or not all(
            type(term) is str and term == term.lower() for term in terms)):
        raise ValueError("'terms' must be an array of strings")
    if type(basic) is not int:
        raise ValueError("'basic_terms' must be an integer")
    if type(clinical) is not int:
        raise ValueError("'clinical_terms' must be an integer")
    if year is not None and type(year) is not int:
        raise ValueError("'year' must be an integer")
    if ext is not None and type(ext) is not int:
        raise ValueError("'ext_citations' must be an integer")
    if not doc_id:
        raise ValueError("document id must be a non-empty string")
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
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
    ``ids[i]`` and ``index`` maps an id back to i. The other document
    fields are kept as columns indexed like ``ids``: ``years``, ``kinds``,
    ``basic_terms``, ``clinical_terms``, ``raw_terms`` and
    ``ext_citations``; ``document(i)`` builds node i's Document. The edges
    are stored once, in two parallel node lists: ``citing[e]`` cites
    ``cited[e]``, the pairs ascending and distinct, each node the index's
    own int object; ``n_edges`` counts them. The rest is derived on first
    use and kept: ``in_degrees[v]``, the citation count of v within the
    corpus; the ascending adjacency lists ``out_adj[u]`` (the nodes u
    cites) and ``in_adj[v]`` (the nodes citing v); and the string pairs of
    ``edges``. Immutable after construction (callers must not change the
    lists) and safe for concurrent reads.
    """

    years: list[int | None]
    kinds: list[str]
    basic_terms: list[int]
    clinical_terms: list[int]
    raw_terms: list[tuple[str, ...] | None]
    ext_citations: list[int | None]

    def __init__(self, documents: Iterable[Document],
                 edges: Iterable[tuple[str, str]], lenient: bool = False):
        ids, index, columns = _in_id_order(*_document_columns(documents))
        citing, cited, skipped = _pair_nodes(index, edges, lenient)
        self._store(ids, index, columns,
                    _code_nodes(index, citing, cited, skipped), skipped)

    @classmethod
    def _from_edges(cls, ids: tuple[str, ...], index: dict[str, int],
                    columns: tuple[list, ...], stream: Iterable[str], lenient: bool
                    ) -> tuple["CitationNetwork", str | None]:
        """The network of documents in id order (as _in_id_order returns
        them) and an edges stream, and the stream's whole text if
        write_corpus would write it back byte for byte (else None).

        A seekable stream is read whole. When every line is ``a,b`` with
        both fields known ids and no self-loop, the fields are looked up in
        the index in bulk, straight to node numbers; as no document id holds
        whitespace or a comma or starts with '#', each is read as the line
        loop reads it. Any other stream or text goes through
        iter_edge_records and the per-pair loop, so its errors and warnings
        are those of __init__.
        """
        text = _read_whole(stream)
        found = None if text is None else _edge_text_nodes(text, index)
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
        net._store(ids, index, columns,
                   pairs or _code_nodes(index, citing, cited, skipped), skipped)
        written = (pairs is not None and text.startswith("citing,cited\n")
                   and text.endswith("\n") and not text.endswith("\n\n"))
        return net, text if written else None

    def _store(self, ids: tuple[str, ...], index: dict[str, int],
               columns: tuple[list, ...], pairs: tuple[list[int], list[int]],
               skipped: tuple[tuple[str, str], ...]) -> None:
        """Keep validated parts: ids sorted, the document columns in id
        order (as _COLUMNS names them), and `pairs`, the (citing, cited)
        node lists of the edges in ascending order without duplicates, each
        node the index's int object, as the network's edge store."""
        self.ids = ids
        self.index = index
        self.__dict__.update(zip(_COLUMNS, columns))
        self.skipped_edges = skipped
        self.citing, self.cited = pairs
        self.n_edges = len(self.citing)
        # [out_adj, in_adj] once built; with_lexicon copies share it
        self._adjacency: list[list[list[int]]] = []

    # -- basic accessors -------------------------------------------------

    @property
    def n_docs(self) -> int:
        return len(self.ids)

    def document(self, i: int) -> Document:
        """The Document of node i, built from the columns."""
        return Document._trusted(
            (self.ids[i], *[column[i] for column in _columns(self)]))

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

    def with_lexicon(self, lexicon: Lexicon) -> "CitationNetwork":
        """This network with the term counts of every document that has raw
        terms and no counts taken from `lexicon` (count_terms): explicit
        counts win. The network itself if no document has such terms; else
        a copy with new count columns that shares everything else: the
        other columns, the edge lists, the skipped edges and the adjacency
        (also when built later)."""
        basic, clinical = self.basic_terms[:], self.clinical_terms[:]
        counted = False
        for i, terms in enumerate(self.raw_terms):
            if terms is not None and basic[i] == 0 and clinical[i] == 0:
                basic[i], clinical[i] = count_terms(terms, lexicon)
                counted = True
        if not counted:
            return self
        net = copy.copy(self)
        net.basic_terms, net.clinical_terms = basic, clinical
        return net

    def induced(self, nodes: Iterable[str]) -> "CitationNetwork":
        """Sub-network induced on the given document ids, its columns the
        slices of this network's. With every document kept, it shares this
        network's columns, edge store and adjacency."""
        keep = sorted(set(nodes))
        if tuple(keep) == self.ids:
            sub = copy.copy(self)
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
        sub._store(tuple(keep), index, _taken(_columns(self), old), (us, vs), ())
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


def _document_columns(documents: Iterable[Document]
                      ) -> tuple[dict[str, int], tuple[list, ...]]:
    """(index id -> position, the columns of _COLUMNS) of documents in the
    order given; DuplicateIdError at the first id given twice."""
    index: dict[str, int] = {}
    docs = []
    for doc in documents:
        if doc.id in index:
            raise DuplicateIdError(f"duplicate document id {doc.id!r}")
        index[doc.id] = len(index)
        docs.append(doc)
    return index, tuple(list(map(operator.attrgetter(field), docs))
                        for field in _FIELDS[1:])


def _in_id_order(index: dict[str, int], columns: tuple[list, ...]
                 ) -> tuple[tuple[str, ...], dict[str, int], tuple[list, ...]]:
    """(ids sorted, index id -> node, columns in id order) of documents
    whose `index` numbers them 0, 1, ... in the order of `columns`. When the
    ids come sorted, that index and those columns are returned as they are;
    else both are built once, in id order."""
    ids = tuple(index)
    if all(map(operator.lt, ids, islice(ids, 1, None))):
        return ids, index, columns
    ids = tuple(sorted(ids))
    return (ids, dict(zip(ids, range(len(ids)))),
            _taken(columns, list(map(index.__getitem__, ids))))


def _taken(columns: Iterable[list], nodes: list[int]) -> tuple[list, ...]:
    """Each column's entries at `nodes`, in that order."""
    return tuple(list(map(column.__getitem__, nodes)) for column in columns)


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
    nodes_text, read_index, columns = _read_columns(nodes_stream)
    ids, index, columns = _in_id_order(read_index, columns)
    net, edges_text = CitationNetwork._from_edges(ids, index, columns, edges_stream,
                                                  lenient)
    if not keep_text:
        return net
    # the reader's own index is kept only where the file came in id order
    nodes_written = (nodes_text is not None and index is read_index
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
    """The documents of a nodes stream, in file order; as in parse_corpus,
    an id repeated on a later line raises DuplicateIdError at that line."""
    _, index, columns = _read_columns(stream)
    yield from map(Document._trusted, zip(index, *columns))


def _read_columns(stream: Iterable[str]
                  ) -> tuple[str | None, dict[str, int], tuple[list, ...]]:
    """(whole text, or None if not read whole; index id -> position; the
    columns of _COLUMNS) of the documents of a nodes stream, in file order.

    A seekable stream is read in one piece and decoded by _decoded_blocks;
    any other stream is decoded a line at a time. Either way, every record
    is checked, and its values appended to the columns, in line order, so
    errors and their line numbers do not depend on the path. An id seen on
    an earlier line raises DuplicateIdError.
    """
    text = _read_whole(stream)
    numbered = _decoded_lines(stream) if text is None else _decoded_blocks(text)
    index: dict[str, int] = {}
    columns = tuple([] for _ in _COLUMNS)
    years, kinds, basic_terms, clinical_terms, raw_terms, ext_citations = columns
    # json.loads makes an int object per value; a corpus has few years
    year_of: dict[int | None, int | None] = {}
    for lineno, rec in numbered:
        try:
            doc_id, year, kind, basic, clinical, terms, ext = _record_values(rec)
        except (ValueError, TypeError) as exc:
            raise MalformedRecordError(f"nodes line {lineno}: {exc}")
        if doc_id in index:
            raise DuplicateIdError(
                f"nodes line {lineno}: duplicate document id {doc_id!r}")
        index[doc_id] = len(index)
        years.append(year_of.setdefault(year, year))
        kinds.append(kind)
        basic_terms.append(basic)
        clinical_terms.append(clinical)
        raw_terms.append(terms)
        ext_citations.append(ext)
    return text, index, columns


def _decoded_lines(lines: Iterable[str], first: int = 1) -> Iterator[tuple[int, dict]]:
    """(line number, record) of each non-blank nodes line, one json.loads
    a line; the lines are numbered from `first`."""
    for lineno, line in enumerate(lines, start=first):
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


def _decoded_blocks(text: str) -> Iterator[tuple[int, dict]]:
    """_decoded_lines of a nodes text, split on "\n" alone, a block of
    lines at a time: one json.loads over the block's non-blank lines where
    that provably gives the same records, else a line at a time. Only one
    block's lines and records are alive at once.

    The array of a block's non-blank lines has one record per line when it
    has as many records as lines, all objects, and no line holds an
    object's closing brace before a comma: a second record on a line needs
    one, and without it each joining comma ends a record.
    """
    first = 1
    for block in _blocks(text, len(text)):
        stripped = list(map(str.strip, block.split("\n")))
        lines = list(filter(None, stripped))
        recs = None
        if not _RECORD_THEN_COMMA.search(block):
            try:
                recs = json.loads("[" + ",".join(lines) + "]")
            except (ValueError, RecursionError):
                pass
        if (recs is not None and len(recs) == len(lines)
                and set(map(type, recs)) <= {dict}):
            yield from zip(compress(count(first), stripped), recs)
        else:
            yield from _decoded_lines(stripped, first)
        first += len(stripped)


def _record_values(rec: dict) -> tuple:
    """The Document field values, in _FIELDS order, of a decoded nodes
    record: a missing kind is "paper", missing counts are 0, an id of
    another JSON type is taken as its str and terms are lowercased.
    ValueError if they break a rule."""
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
    values = (str(doc_id), get("year"), get("kind", "paper"), get("basic_terms", 0),
              get("clinical_terms", 0), terms, get("ext_citations"))
    _check_fields(values)
    return values


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


# characters per block of a nodes or edges text: the per-block work is
# negligible, and the strings and records of one block take under 1 MB
_BLOCK = 1 << 16


def _blocks(text: str, stop: int) -> Iterator[str]:
    """text[:stop] a block of whole lines at a time, split at the first
    newline _BLOCK or more characters into each block; the blocks leave
    out the newlines they are split at."""
    start = 0
    while start <= stop:
        end = text.find("\n", start + _BLOCK, stop)
        end = stop if end < 0 else end
        yield text[start:end]
        start = end + 1


def _edge_text_nodes(text: str, index: dict[str, int]
                     ) -> tuple[list[int], list[int], tuple[str, str] | None] | None:
    """(citing nodes, cited nodes, header) of edges text, its final
    newlines left out, if each of its lines holds exactly one comma and
    every field is an id; else None. A first line whose fields are citing
    and cited, in any case, is the header and left out.

    The text is split and looked up a block of lines at a time, so only
    one block's field strings are alive at once.
    """
    node = index.__getitem__
    us: list[int] = []
    vs: list[int] = []
    header = None
    stop = len(text)
    while text.endswith("\n", 0, stop):
        stop -= 1
    for number, block in enumerate(_blocks(text, stop)):
        if not _one_comma_per_line(block):
            return None
        fields = block.replace("\n", ",").split(",")
        if number == 0 and fields[0].lower() == "citing" and fields[1].lower() == "cited":
            header = fields[0], fields[1]
            del fields[:2]
        try:
            us += map(node, islice(fields, 0, None, 2))
            vs += map(node, islice(fields, 1, None, 2))
        except KeyError:
            return None
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
        nodes = "".join([_to_json(record) + "\n" for record in
                         map(_node_record, net.ids, *_columns(net))])
    if edges is None:
        id_of = net.ids.__getitem__
        edges = "citing,cited\n" + "".join([
            f"{citing},{cited}\n" for citing, cited in
            zip(map(id_of, net.citing), map(id_of, net.cited))])
    with open(nodes_path, "w", encoding="utf-8") as fh:
        fh.write(nodes)
    with open(edges_path, "w", encoding="utf-8") as fh:
        fh.write(edges)


def _node_record(doc_id: str, year: int | None, kind: str, basic_terms: int,
                 clinical_terms: int, raw_terms: tuple[str, ...] | None,
                 ext_citations: int | None) -> dict:
    """The nodes-file record of one document's field values."""
    rec: dict = {"id": doc_id}
    if year is not None:
        rec["year"] = year
    if kind != "paper":
        rec["kind"] = kind
    rec["basic_terms"] = basic_terms
    rec["clinical_terms"] = clinical_terms
    if raw_terms is not None:
        rec["terms"] = list(raw_terms)
    if ext_citations is not None:
        rec["ext_citations"] = ext_citations
    return rec
