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
    also accepted); optional header line; ``#`` comments ignored.
lexicon files : one term per line, UTF-8, lowercased on load.
"""

from __future__ import annotations

import json
import logging
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    DuplicateIdError,
    LexiconOverlapError,
    MalformedRecordError,
    SelfLoopError,
    UnknownEndpointError,
)

log = logging.getLogger("ktmap.corpus")

KINDS = ("paper", "patent")


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
    built.
    """

    __slots__ = ("ids", "index", "adj")

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
        """Yield each edge once as (u, v, weight) with index(u) < index(v)."""
        for i in range(len(self.ids)):
            for j in sorted(self.adj[i]):
                if j > i:
                    yield self.ids[i], self.ids[j], self.adj[i][j]

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

    def subgraph(self, nodes: Iterable[str]) -> "UGraph":
        """Induced subgraph on the given nodes (kept in sorted id order)."""
        keep = sorted(set(nodes))
        keep_idx = {self.index[v] for v in keep}
        edges = []
        for i in sorted(keep_idx):
            for j in sorted(self.adj[i]):
                if j > i and j in keep_idx:
                    edges.append((self.ids[i], self.ids[j], self.adj[i][j]))
        return UGraph(keep, edges)


class CitationNetwork:
    """Directed citation graph plus its derived undirected simple projection.

    Edges are (citing id, cited id) pairs. Immutable after construction and
    safe for concurrent reads. in_degree(v) is the citation count of v
    within the corpus.
    """

    def __init__(self, documents: Iterable[Document],
                 edges: Iterable[tuple[str, str]], lenient: bool = False):
        self.docs: dict[str, Document] = {}
        for doc in documents:
            if doc.id in self.docs:
                raise DuplicateIdError(f"duplicate document id {doc.id!r}")
            self.docs[doc.id] = doc

        seen: set[tuple[str, str]] = set()
        n_dup = 0
        skipped = []
        for citing, cited in edges:
            if citing == cited:
                raise SelfLoopError(f"self-loop edge ({citing!r}, {cited!r})")
            if citing not in self.docs or cited not in self.docs:
                if lenient:
                    skipped.append((citing, cited))
                    continue
                missing = citing if citing not in self.docs else cited
                raise UnknownEndpointError(
                    f"edge ({citing!r}, {cited!r}) references unknown id {missing!r}")
            if (citing, cited) in seen:
                n_dup += 1
                continue
            seen.add((citing, cited))
        if n_dup:
            log.warning("collapsed %d duplicate citation edge(s)", n_dup)
        if skipped:
            log.warning("skipped %d edge(s) with unknown endpoints (lenient mode)",
                        len(skipped))

        self.edges: tuple[tuple[str, str], ...] = tuple(sorted(seen))
        self.skipped_edges: tuple[tuple[str, str], ...] = tuple(skipped)

        self._in: dict[str, list[str]] = {i: [] for i in self.docs}
        self._out: dict[str, list[str]] = {i: [] for i in self.docs}
        for citing, cited in self.edges:
            self._out[citing].append(cited)
            self._in[cited].append(citing)

    # -- basic accessors -------------------------------------------------

    @property
    def n_docs(self) -> int:
        return len(self.docs)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(sorted(self.docs))

    def document(self, node: str) -> Document:
        return self.docs[node]

    def __contains__(self, node: str) -> bool:
        return node in self.docs

    def in_degree(self, node: str) -> int:
        return len(self._in[node])

    def out_degree(self, node: str) -> int:
        return len(self._out[node])

    def citers(self, node: str) -> list[str]:
        """Documents citing `node`, sorted."""
        return sorted(self._in[node])

    def cited_by(self, node: str) -> list[str]:
        """Documents cited by `node`, sorted."""
        return sorted(self._out[node])

    def in_degrees(self) -> dict[str, int]:
        return {i: len(self._in[i]) for i in self.docs}

    # -- derived graphs ---------------------------------------------------

    @cached_property
    def projection(self) -> UGraph:
        """Undirected simple projection: direction dropped, duplicates merged."""
        pairs = {(min(u, v), max(u, v)) for u, v in self.edges}
        return UGraph(self.ids, ((u, v, 1.0) for u, v in sorted(pairs)))

    def induced(self, nodes: Iterable[str]) -> "CitationNetwork":
        """Sub-network induced on the given document ids."""
        keep = set(nodes)
        docs = [self.docs[i] for i in sorted(keep)]
        edges = [(u, v) for u, v in self.edges if u in keep and v in keep]
        return CitationNetwork(docs, edges)


def co_citation_projection(net: CitationNetwork) -> UGraph:
    """Weighted co-citation graph of the cited documents.

    Nodes are the documents cited at least once; the weight of (u, v) is
    the number of documents citing both u and v. Zero-weight pairs are
    absent.
    """
    weights: Counter[tuple[str, str]] = Counter()
    cited_nodes = set()
    for citer in net.ids:
        cited = net.cited_by(citer)
        cited_nodes.update(cited)
        for a_pos in range(len(cited)):
            for b_pos in range(a_pos + 1, len(cited)):
                weights[(cited[a_pos], cited[b_pos])] += 1
    edges = [(u, v, float(w)) for (u, v), w in sorted(weights.items())]
    return UGraph(sorted(cited_nodes), edges)


# -- parsing ---------------------------------------------------------------


def parse_corpus(nodes_stream: Iterable[str], edges_stream: Iterable[str],
                 lenient: bool = False) -> CitationNetwork:
    """Parse node and edge streams into a validated CitationNetwork."""
    return CitationNetwork(iter_node_records(nodes_stream),
                           iter_edge_records(edges_stream), lenient=lenient)


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


def iter_edge_records(stream: Iterable[str]) -> Iterator[tuple[str, str]]:
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
                continue  # header
        yield parts[0], parts[1]


# -- writing ----------------------------------------------------------------


def write_corpus(net: CitationNetwork, nodes_path, edges_path) -> None:
    """Write the standard nodes/edges files; re-parsing round-trips exactly."""
    with open(nodes_path, "w", encoding="utf-8") as fh:
        for doc_id in net.ids:
            fh.write(json.dumps(document_to_record(net.docs[doc_id])) + "\n")
    with open(edges_path, "w", encoding="utf-8") as fh:
        fh.write("citing,cited\n")
        for citing, cited in net.edges:
            fh.write(f"{citing},{cited}\n")


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
