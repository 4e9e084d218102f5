"""Annotated graph export: GraphML for interchange, dot for rendering.

Node attributes carried on export: front path, translational score, stratum,
and the hub flag.
"""

from __future__ import annotations

from typing import Mapping

from .corpus import CitationNetwork

FORMATS = ("graphml", "dot")

_GRAPHML_NS = "http://graphml.graphdrawing.org/xmlns"


def export_graph(net: CitationNetwork, path, fmt: str,
                 front_paths: Mapping[str, str] | None = None,
                 scores: Mapping[str, float | None] | None = None,
                 strata: Mapping[str, str] | None = None,
                 hub_ids: set[str] | None = None) -> None:
    """Write the citation graph with analysis annotations as node attributes."""
    if fmt == "graphml":
        text = to_graphml(net, front_paths, scores, strata, hub_ids)
    elif fmt == "dot":
        text = to_dot(net, front_paths, scores, strata, hub_ids)
    else:
        raise ValueError(f"unknown format {fmt!r}; supported: {', '.join(FORMATS)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def to_graphml(net: CitationNetwork,
               front_paths: Mapping[str, str] | None = None,
               scores: Mapping[str, float | None] | None = None,
               strata: Mapping[str, str] | None = None,
               hub_ids: set[str] | None = None) -> str:
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<graphml xmlns="{_GRAPHML_NS}">',
        '  <key id="d_year" for="node" attr.name="year" attr.type="int"/>',
        '  <key id="d_kind" for="node" attr.name="kind" attr.type="string"/>',
        '  <key id="d_front" for="node" attr.name="front" attr.type="string"/>',
        '  <key id="d_t" for="node" attr.name="t" attr.type="double"/>',
        '  <key id="d_stratum" for="node" attr.name="stratum" attr.type="string"/>',
        '  <key id="d_hub" for="node" attr.name="hub" attr.type="boolean"/>',
        '  <graph id="G" edgedefault="directed">',
    ]
    for doc_id, year, kind in zip(net.ids, net.years, net.kinds):
        lines.append(f'    <node id="{_escape(doc_id)}">')
        if year is not None:
            lines.append(f'      <data key="d_year">{year}</data>')
        lines.append(f'      <data key="d_kind">{kind}</data>')
        if front_paths and doc_id in front_paths:
            lines.append(f'      <data key="d_front">{_escape(front_paths[doc_id])}</data>')
        if scores is not None and scores.get(doc_id) is not None:
            lines.append(f'      <data key="d_t">{scores[doc_id]!r}</data>')
        if strata and doc_id in strata:
            lines.append(f'      <data key="d_stratum">{strata[doc_id]}</data>')
        lines.append(f'      <data key="d_hub">'
                     f'{"true" if hub_ids and doc_id in hub_ids else "false"}</data>')
        lines.append('    </node>')
    for citing, cited in net.edges:
        lines.append(f'    <edge source="{_escape(citing)}" target="{_escape(cited)}"/>')
    lines.append('  </graph>')
    lines.append('</graphml>')
    return "\n".join(lines) + "\n"


def _escape(text: str) -> str:
    """Escape &, < and > for XML character data and quoted attributes (ids
    never carry quotes: the corpus reader rejects them)."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def to_dot(net: CitationNetwork,
           front_paths: Mapping[str, str] | None = None,
           scores: Mapping[str, float | None] | None = None,
           strata: Mapping[str, str] | None = None,
           hub_ids: set[str] | None = None) -> str:
    lines = ["digraph citations {", "  node [shape=circle];"]
    for doc_id in net.ids:
        parts = []
        if front_paths and doc_id in front_paths:
            parts.append(f'front="{front_paths[doc_id]}"')
        if scores is not None and scores.get(doc_id) is not None:
            parts.append(f't="{scores[doc_id]!r}"')
        if strata and doc_id in strata:
            parts.append(f'stratum="{strata[doc_id]}"')
        if hub_ids and doc_id in hub_ids:
            parts.append('hub="true"')
            parts.append("shape=doublecircle")
        attr = (" [" + ", ".join(parts) + "]") if parts else ""
        lines.append(f'  "{doc_id}"{attr};')
    for citing, cited in net.edges:
        lines.append(f'  "{citing}" -> "{cited}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
