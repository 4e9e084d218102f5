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
on those numbers from then on. The edge citing u -> cited v is the int code
``u * n + v`` (n documents), and the in- and out-adjacency are ascending
int lists. As the numbering follows the sorted ids, the codes sort exactly
like the (citing, cited) id pairs, so every order derived from them is the
one the string pairs would give. Id strings come back where something is
written or reported: ``ids[i]``, and the ``edges`` pairs, built on first
use.

The edges reader takes a seekable stream whose every line is ``a,b`` (as
``write_corpus`` writes it, optionally under its header) in one read and a
few whole-text splits. Any other stream is read line by line, and only that
path reports malformed lines, so errors, warnings and their line numbers do
not depend on the path taken.
"""

from __future__ import annotations

import copy
import itertools
import json
import logging
import math
import operator
import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Container, Iterable, Iterator, Mapping, Sequence

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
# would mangle is rejected at parse time.
_BAD_ID = re.compile(r'[\s,"]|^#')


@dataclass(frozen=True)
class Document:
    """One paper or patent node of the corpus."""

    id: str
    year: int | None = None
    kind: str = "paper"
    basic_terms: int = 0
    clinical_terms: int = 0
    raw_terms: tuple[str, ...] | None = None
    ext_citations: int | None = None

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id:
            raise ValueError("document id must be a non-empty string")
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.basic_terms < 0 or self.clinical_terms < 0:
            raise ValueError(f"term counts must be non-negative ({self.id})")
        if self.year is not None and not isinstance(self.year, int):
            raise ValueError(f"year must be an integer ({self.id})")


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

    __slots__ = ("ids", "index", "adj", "_triangles")

    def __init__(self, ids: Sequence[str],
                 edges: Iterable[tuple[str, str, float]] = ()):
        self.ids: tuple[str, ...] = tuple(ids)
        self.index: dict[str, int] = {v: i for i, v in enumerate(self.ids)}
        if len(self.index) != len(self.ids):
            raise DuplicateIdError("duplicate node id in graph")
        self.adj: list[dict[int, float]] = [{} for _ in self.ids]
        for u, v, w in edges:
            iu, iv = self.index[u], self.index[v]
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

    def degree(self, node: str) -> int:
        return len(self.adj[self.index[node]])

    def neighbors(self, node: str) -> list[str]:
        return [self.ids[j] for j in sorted(self.adj[self.index[node]])]

    def has_edge(self, u: str, v: str) -> bool:
        return self.index[v] in self.adj[self.index[u]]

    def edges(self) -> Iterator[tuple[str, str, float]]:
        """Yield each edge once as (u, v, weight) with index(u) < index(v),
        in edge_arrays order."""
        for i, j, w in zip(*self.edge_arrays()):
            yield self.ids[i], self.ids[j], w

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

    def subgraph(self, nodes: Iterable[str]) -> "UGraph":
        """Induced subgraph on the given nodes (kept in sorted id order)."""
        keep = sorted(set(nodes))
        old = [self.index[v] for v in keep]
        new_of = dict(zip(old, range(len(old))))
        adj = [{new_of[j]: nbrs[j] for j in sorted(nbrs) if j in new_of}
               for nbrs in map(self.adj.__getitem__, old)]
        return UGraph._trusted(keep, adj)

    @classmethod
    def _trusted(cls, ids: Sequence[str], adj: list[dict[int, float]],
                 index: dict[str, int] | None = None) -> "UGraph":
        """A graph from parts already checked: distinct ids, and a symmetric
        adjacency without self-loops, weights finite and > 0. Each node's
        neighbours must come in the order __init__ would insert them, so
        that iteration order, and every float sum over it, is the same."""
        graph = cls.__new__(cls)
        graph.ids = tuple(ids)
        graph.index = ({v: i for i, v in enumerate(graph.ids)}
                       if index is None else index)
        graph.adj = adj
        graph._triangles = None
        return graph


class CitationNetwork:
    """Directed citation graph plus its derived undirected simple projection.

    Document ids are interned once, in sorted order: node i is document
    ``ids[i]`` and ``index`` maps an id back to i. With n documents, the
    edge citing u -> cited v is the int code ``u * n + v``; ``codes`` holds
    them ascending and without duplicates, which is the order of the sorted
    (citing id, cited id) pairs. ``out_adj[u]`` lists the nodes u cites and
    ``in_adj[v]`` the nodes citing v, both ascending. The string pairs of
    ``edges`` are built on first use. Immutable after construction and
    safe for concurrent reads. in_degree(v) is the citation count of v
    within the corpus.
    """

    def __init__(self, documents: Iterable[Document],
                 edges: Iterable[tuple[str, str]], lenient: bool = False):
        docs: dict[str, Document] = {}
        for doc in documents:
            if doc.id in docs:
                raise DuplicateIdError(f"duplicate document id {doc.id!r}")
            docs[doc.id] = doc
        ids = tuple(sorted(docs))
        index = {v: i for i, v in enumerate(ids)}
        n = len(ids)

        get = index.get
        codes: list[int] = []
        add = codes.append
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
            add(u * n + v)
        # sorted, duplicates sit side by side; sorting is nearly free on the
        # already sorted edges files write_corpus writes
        codes.sort()
        n_dup = len(codes)
        if any(map(operator.eq, codes, itertools.islice(codes, 1, None))):
            codes = list(dict.fromkeys(codes))
        n_dup -= len(codes)
        if n_dup:
            log.warning("collapsed %d duplicate citation edge(s)", n_dup)
        if skipped:
            log.warning("skipped %d edge(s) with unknown endpoints (lenient mode)",
                        len(skipped))
        self._store(docs, ids, index, codes, tuple(skipped))

    def _store(self, docs: dict[str, Document], ids: tuple[str, ...],
               index: dict[str, int], codes: list[int],
               skipped: tuple[tuple[str, str], ...]) -> None:
        """Keep validated parts (ids sorted, codes ascending and distinct)
        and derive the adjacency lists from the codes."""
        self.docs = docs
        self.ids = ids
        self.index = index
        self.codes = codes
        self.skipped_edges = skipped
        n = len(ids)
        out_adj: list[list[int]] = [[] for _ in ids]
        in_adj: list[list[int]] = [[] for _ in ids]
        # one int object per node, shared by every list that names it: less
        # memory, and the kernels walking these lists hit fewer cache lines
        node = list(range(n))
        for code in codes:
            u, v = divmod(code, n)
            out_adj[u].append(node[v])
            in_adj[v].append(node[u])
        self.out_adj = out_adj
        self.in_adj = in_adj

    # -- basic accessors -------------------------------------------------

    @property
    def n_docs(self) -> int:
        return len(self.ids)

    @property
    def n_edges(self) -> int:
        return len(self.codes)

    @cached_property
    def edges(self) -> tuple[tuple[str, str], ...]:
        """(citing id, cited id) pairs, sorted."""
        ids = self.ids
        return tuple((ids[u], ids[v])
                     for u, cited in enumerate(self.out_adj) for v in cited)

    def document(self, node: str) -> Document:
        return self.docs[node]

    def __contains__(self, node: str) -> bool:
        return node in self.docs

    def in_degree(self, node: str) -> int:
        return len(self.in_adj[self.index[node]])

    def out_degree(self, node: str) -> int:
        return len(self.out_adj[self.index[node]])

    def citers(self, node: str) -> list[str]:
        """Documents citing `node`, sorted."""
        ids = self.ids
        return [ids[u] for u in self.in_adj[self.index[node]]]

    def cited_by(self, node: str) -> list[str]:
        """Documents cited by `node`, sorted."""
        ids = self.ids
        return [ids[v] for v in self.out_adj[self.index[node]]]

    def in_degrees(self) -> dict[str, int]:
        return {i: self.in_degree(i) for i in self.docs}

    # -- derived networks and graphs ----------------------------------------

    def with_documents(self, documents: Iterable[Document]) -> "CitationNetwork":
        """This network with each document replaced by one of the same id.

        The documents must carry exactly the network's ids; they are kept
        in the order given. Edges, skipped edges and adjacency are shared.
        """
        docs: dict[str, Document] = {}
        for doc in documents:
            if doc.id in docs:
                raise DuplicateIdError(f"duplicate document id {doc.id!r}")
            docs[doc.id] = doc
        if docs.keys() != self.docs.keys():
            raise ValueError("replacement documents must have the network's ids")
        net = copy.copy(self)
        net.docs = docs
        return net

    def induced(self, nodes: Iterable[str]) -> "CitationNetwork":
        """Sub-network induced on the given document ids."""
        keep = sorted(set(nodes))
        old = [self.index[v] for v in keep]
        m = len(keep)
        new_of = [-1] * self.n_docs
        for new, i in enumerate(old):
            new_of[i] = new
        codes: list[int] = []
        for new, i in enumerate(old):
            base = new * m
            codes.extend([base + j for j in map(new_of.__getitem__, self.out_adj[i])
                          if j >= 0])
        sub = CitationNetwork.__new__(CitationNetwork)
        sub._store({v: self.docs[v] for v in keep}, tuple(keep),
                   dict(zip(keep, range(m))), codes, ())
        return sub

    @cached_property
    def projection(self) -> UGraph:
        """Undirected simple projection: direction dropped, duplicates merged."""
        adj = [dict.fromkeys(sorted(cited + citing), 1.0)
               for cited, citing in zip(self.out_adj, self.in_adj)]
        return UGraph._trusted(self.ids, adj, self.index)


def co_citation_projection(net: CitationNetwork) -> UGraph:
    """Weighted co-citation graph of the cited documents.

    Nodes are the documents cited at least once; the weight of (u, v) is
    the number of documents citing both u and v. Zero-weight pairs are
    absent.
    """
    n = net.n_docs
    weights: Counter[int] = Counter()
    for cited in net.out_adj:
        if len(cited) > 1:
            weights.update([u * n + v for u, v in itertools.combinations(cited, 2)])
    nodes = [v for v, citing in enumerate(net.in_adj) if citing]
    new_of = [-1] * n
    for new, v in enumerate(nodes):
        new_of[v] = new
    adj: list[dict[int, float]] = [{} for _ in nodes]
    # ascending codes: the order of the sorted (u, v) id pairs
    for code in sorted(weights):
        u, v = divmod(code, n)
        w = float(weights[code])
        adj[new_of[u]][new_of[v]] = w
        adj[new_of[v]][new_of[u]] = w
    return UGraph._trusted([net.ids[v] for v in nodes], adj)


# -- parsing ---------------------------------------------------------------


def parse_corpus(nodes_stream: Iterable[str], edges_stream: Iterable[str],
                 lenient: bool = False) -> CitationNetwork:
    """Parse node and edge streams into a validated CitationNetwork."""
    docs = list(iter_node_records(nodes_stream))
    edges = iter_edge_records(edges_stream, {doc.id for doc in docs})
    return CitationNetwork(docs, edges, lenient=lenient)


def load_corpus(nodes_path, edges_path, lenient: bool = False) -> CitationNetwork:
    with open(nodes_path, encoding="utf-8") as nf, \
            open(edges_path, encoding="utf-8") as ef:
        return parse_corpus(nf, ef, lenient=lenient)


def iter_node_records(stream: Iterable[str]) -> Iterator[Document]:
    for lineno, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MalformedRecordError(f"nodes line {lineno}: invalid JSON ({exc})")
        if not isinstance(rec, dict):
            raise MalformedRecordError(f"nodes line {lineno}: expected an object")
        try:
            yield _record_to_document(rec)
        except (ValueError, TypeError) as exc:
            raise MalformedRecordError(f"nodes line {lineno}: {exc}")


def _record_to_document(rec: Mapping) -> Document:
    raw_id = rec.get("id")
    if raw_id is None:
        raise ValueError("missing required field 'id'")
    doc_id = str(raw_id)
    if _BAD_ID.search(doc_id):
        raise ValueError(f"id {doc_id!r} contains a comma, a double quote or "
                         "whitespace, or starts with '#'")

    terms = rec.get("terms")
    if terms is not None:
        if not isinstance(terms, list) or not all(isinstance(t, str) for t in terms):
            raise ValueError("'terms' must be an array of strings")
        terms = tuple(t.lower() for t in terms)

    basic = rec.get("basic_terms", 0)
    clinical = rec.get("clinical_terms", 0)
    for name, val in (("basic_terms", basic), ("clinical_terms", clinical)):
        if not isinstance(val, int) or isinstance(val, bool):
            raise ValueError(f"'{name}' must be an integer")

    year = rec.get("year")
    if year is not None and (not isinstance(year, int) or isinstance(year, bool)):
        raise ValueError("'year' must be an integer")

    ext = rec.get("ext_citations")
    if ext is not None and (not isinstance(ext, int) or isinstance(ext, bool)):
        raise ValueError("'ext_citations' must be an integer")

    return Document(id=doc_id, year=year, kind=rec.get("kind", "paper"),
                    basic_terms=basic, clinical_terms=clinical,
                    raw_terms=terms, ext_citations=ext)


def iter_edge_records(stream: Iterable[str],
                      doc_ids: Container[str]) -> Iterator[tuple[str, str]]:
    """(citing, cited) pairs of an edges stream, without header or comments.

    A header line whose two fields are both in `doc_ids` is still skipped,
    with a WARNING (see the module docstring).

    A seekable stream in which every line is ``a,b`` is read and split in
    one piece; any other stream, or one that fails that test, is rewound
    and read line by line, and only that path reports malformed lines.
    """
    fields = _plain_edge_fields(stream)
    if fields is None:
        yield from _edge_lines(stream, doc_ids)
        return
    pairs = iter(fields)
    if fields[0].lower() == "citing" and fields[1].lower() == "cited":
        citing, cited = next(pairs), next(pairs)
        if citing in doc_ids and cited in doc_ids:
            _warn_header_names_documents(1, f"{citing},{cited}")
    yield from zip(pairs, pairs)


def _plain_edge_fields(stream) -> list[str] | None:
    """The flat [citing, cited, citing, cited, ...] fields of a seekable
    stream whose every line is one ``a,b`` with no whitespace, blank line
    or comment (trailing newlines aside); else None, the stream rewound."""
    try:
        if not stream.seekable():
            return None
        start = stream.tell()
    except (AttributeError, OSError):
        return None
    try:
        text = stream.read()
    except ValueError:  # undecodable: the line loop raises it at its line
        stream.seek(start)
        return None
    tokens = text.split()
    fields = ",".join(tokens).split(",")
    if (len(fields) == 2 * len(tokens) and "" not in fields
            and "\n".join(tokens) == text.rstrip("\n")
            and not text.startswith("#") and "\n#" not in text
            and all(map(str.__contains__, tokens, itertools.repeat(",")))):
        return fields
    stream.seek(start)
    return None


def _edge_lines(stream: Iterable[str],
                doc_ids: Container[str]) -> Iterator[tuple[str, str]]:
    """iter_edge_records, one line at a time."""
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


def write_corpus(net: CitationNetwork, nodes_path, edges_path) -> None:
    """Write the standard nodes/edges files; re-parsing round-trips exactly."""
    ids, docs = net.ids, net.docs
    with open(nodes_path, "w", encoding="utf-8") as fh:
        write = fh.write
        for doc_id in ids:
            write(_to_json(document_to_record(docs[doc_id])) + "\n")
    with open(edges_path, "w", encoding="utf-8") as fh:
        write = fh.write
        write("citing,cited\n")
        for citing, cited in zip(ids, net.out_adj):
            for v in cited:
                write(f"{citing},{ids[v]}\n")


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
