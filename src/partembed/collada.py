"""COLLADA (.dae) subset parser: nested nodes, instanced triangle geometry.

Supported: ``node`` nesting with name/id attributes, ``instance_geometry``,
``triangles`` and ``polylist`` made of triangles with a POSITION input, and
per-node matrix/translate/rotate/scale transforms composed down to leaves.
Materials, units, up-axis and everything else in the format are ignored;
the file is treated purely as a hierarchy+geometry carrier.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError, UndefinedReferenceError, UnsupportedPrimitiveError

_PRIMITIVE_TAGS = {"lines", "linestrips", "polygons", "trifans", "tristrips", "spline"}


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _children(el, name: str):
    return [c for c in el if _local(c.tag) == name]


def _floats(text: str) -> np.ndarray:
    return np.array(text.split(), dtype=np.float64)


def _ints(text: str) -> np.ndarray:
    return np.array(text.split(), dtype=np.int64)


def _parse_sources(mesh_el) -> dict[str, np.ndarray]:
    """id -> (count, 3) position array for every <source> in a mesh."""
    out = {}
    for src in _children(mesh_el, "source"):
        arrays = _children(src, "float_array")
        if not arrays:
            continue
        data = _floats(arrays[0].text or "")
        stride = 3
        for tc in _children(src, "technique_common"):
            for acc in _children(tc, "accessor"):
                stride = int(acc.get("stride", "3"))
        if stride < 3 or len(data) % stride:
            raise ParseError(f"source {src.get('id')}: bad float_array length for stride {stride}")
        out[src.get("id")] = data.reshape(-1, stride)[:, :3]
    return out


def _resolve_position_source(prim_el, mesh_el, sources) -> tuple[np.ndarray, int, int]:
    """Returns (positions, vertex_offset, index_stride) for a primitive."""
    inputs = _children(prim_el, "input")
    if not inputs:
        raise ParseError("primitive has no <input> elements")
    stride = 1 + max(int(i.get("offset", "0")) for i in inputs)
    for inp in inputs:
        sem = inp.get("semantic", "")
        ref = (inp.get("source") or "").lstrip("#")
        off = int(inp.get("offset", "0"))
        if sem == "VERTEX":
            for verts in _children(mesh_el, "vertices"):
                if verts.get("id") == ref:
                    for vin in _children(verts, "input"):
                        if vin.get("semantic") == "POSITION":
                            pref = (vin.get("source") or "").lstrip("#")
                            if pref not in sources:
                                raise UndefinedReferenceError(f"POSITION source '#{pref}' undefined")
                            return sources[pref], off, stride
            raise UndefinedReferenceError(f"vertices '#{ref}' undefined or lacks POSITION input")
        if sem == "POSITION":
            if ref not in sources:
                raise UndefinedReferenceError(f"POSITION source '#{ref}' undefined")
            return sources[ref], off, stride
    raise ParseError("primitive has no VERTEX/POSITION input")


def _parse_geometry(geom_el) -> tuple[np.ndarray, np.ndarray]:
    """One <geometry> -> (vertices, triangles). Raises on non-triangle data."""
    meshes = _children(geom_el, "mesh")
    if not meshes:
        kinds = sorted(_local(c.tag) for c in geom_el)
        raise UnsupportedPrimitiveError(
            f"geometry {geom_el.get('id')}: unsupported geometry kind {kinds or 'empty'}")
    mesh_el = meshes[0]
    for child in mesh_el:
        if _local(child.tag) in _PRIMITIVE_TAGS:
            raise UnsupportedPrimitiveError(
                f"geometry {geom_el.get('id')}: unsupported primitive <{_local(child.tag)}>")
    sources = _parse_sources(mesh_el)

    all_tris = []
    verts = None
    for prim in list(_children(mesh_el, "triangles")) + list(_children(mesh_el, "polylist")):
        positions, off, stride = _resolve_position_source(prim, mesh_el, sources)
        if verts is None:
            verts = positions
        elif verts is not positions:
            raise ParseError(
                f"geometry {geom_el.get('id')}: primitives reference different POSITION sources")
        idx_chunks = [_ints(p.text or "") for p in _children(prim, "p")]
        idx = np.concatenate(idx_chunks) if idx_chunks else np.zeros(0, dtype=np.int64)
        if _local(prim.tag) == "polylist":
            vcounts = np.concatenate([_ints(v.text or "") for v in _children(prim, "vcount")]) \
                if _children(prim, "vcount") else np.zeros(0, dtype=np.int64)
            if len(vcounts) and not (vcounts == 3).all():
                bad = int(vcounts[vcounts != 3][0])
                raise UnsupportedPrimitiveError(
                    f"geometry {geom_el.get('id')}: unsupported primitive <polylist> with {bad}-gons")
        if len(idx) % (3 * stride):
            raise ParseError(f"geometry {geom_el.get('id')}: index count not a multiple of triangle stride")
        tri = idx.reshape(-1, 3, stride)[:, :, off]
        all_tris.append(tri)
    if verts is None:
        verts = np.zeros((0, 3))
    tris = np.vstack(all_tris) if all_tris else np.zeros((0, 3), dtype=np.int64)
    if len(tris) and (tris.min() < 0 or tris.max() >= len(verts)):
        raise ParseError(f"geometry {geom_el.get('id')}: triangle index out of range")
    return np.asarray(verts, dtype=np.float64), tris.astype(np.int64)


def _node_transform(node_el) -> np.ndarray:
    m = np.eye(4)
    for child in node_el:
        tag = _local(child.tag)
        if tag == "matrix":
            m = m @ _floats(child.text or "").reshape(4, 4)
        elif tag == "translate":
            t = np.eye(4)
            t[:3, 3] = _floats(child.text or "")
            m = m @ t
        elif tag == "rotate":
            x, y, z, deg = _floats(child.text or "")
            axis = np.array([x, y, z])
            norm = np.linalg.norm(axis)
            if norm > 0:
                axis = axis / norm
                a = np.deg2rad(deg)
                k = np.array([[0, -axis[2], axis[1]],
                              [axis[2], 0, -axis[0]],
                              [-axis[1], axis[0], 0]])
                r = np.eye(4)
                r[:3, :3] = np.eye(3) + np.sin(a) * k + (1 - np.cos(a)) * (k @ k)
                m = m @ r
        elif tag == "scale":
            s = np.eye(4)
            s[:3, :3] = np.diag(_floats(child.text or ""))
            m = m @ s
    return m


@dataclass
class _RawNode:
    name: str
    geom_ref: str | None = None          # set on geometry leaves
    world: np.ndarray | None = None
    children: list["_RawNode"] = field(default_factory=list)


def _walk(node_el, parent_world: np.ndarray) -> _RawNode:
    name = node_el.get("name") or node_el.get("id") or "node"
    world = parent_world @ _node_transform(node_el)
    raw = _RawNode(name=name)
    geom_refs = [(ig.get("url") or "").lstrip("#") for ig in _children(node_el, "instance_geometry")]
    child_nodes = [_walk(c, world) for c in _children(node_el, "node")]
    if len(geom_refs) == 1 and not child_nodes:
        raw.geom_ref = geom_refs[0]
        raw.world = world
        return raw
    for ref in geom_refs:
        raw.children.append(_RawNode(name=name, geom_ref=ref, world=world))
    raw.children.extend(child_nodes)
    return raw


def _prune_empty(raw: _RawNode, geometries: dict) -> _RawNode | None:
    """Drop leaves whose geometry has no triangles and groups left childless."""
    if raw.geom_ref is not None:
        if raw.geom_ref not in geometries:
            raise UndefinedReferenceError(f"instance_geometry references undefined geometry '#{raw.geom_ref}'")
        if len(geometries[raw.geom_ref][1]) == 0:
            return None
        return raw
    kept = []
    for c in raw.children:
        p = _prune_empty(c, geometries)
        if p is not None:
            kept.append(p)
    raw.children = kept
    return raw if kept else None


def parse_collada_tree(data: bytes):
    """Parse raw bytes into (root _RawNode, geometry dict). Internal."""
    try:
        root_el = ET.fromstring(data)
    except ET.ParseError as exc:
        line, col = exc.position
        raise ParseError(f"malformed XML at line {line}, column {col}: {exc.msg}") from exc

    geometries = {}
    for lib in root_el.iter():
        if _local(lib.tag) != "library_geometries":
            continue
        for geom in _children(lib, "geometry"):
            geometries[geom.get("id")] = _parse_geometry(geom)

    scenes = [el for el in root_el.iter() if _local(el.tag) == "visual_scene"]
    if not scenes:
        raise ParseError("no <visual_scene> found")
    scene = scenes[0]
    top = [_walk(n, np.eye(4)) for n in _children(scene, "node")]
    if not top:
        raise ParseError("visual scene contains no nodes")
    if len(top) == 1:
        root = top[0]
    else:
        root = _RawNode(name=scene.get("name") or scene.get("id") or "scene", children=top)
    root = _prune_empty(root, geometries)
    if root is None:
        raise ParseError("scene contains no triangle geometry")
    return root, geometries
