"""COLLADA (.dae) subset parser: nested nodes, instanced triangle geometry.

Supported: ``node`` nesting with name/id attributes, ``instance_geometry``,
``triangles`` and ``polylist`` made of triangles with a POSITION input, and
per-node matrix/translate/rotate/scale transforms composed down to leaves.
Materials, units, up-axis and everything else in the format are ignored;
the file is treated purely as a hierarchy+geometry carrier.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

import numpy as np

from .errors import ParseError

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
    offsets = [int(i.get("offset", "0")) for i in inputs]
    if min(offsets) < 0:
        raise ParseError(f"primitive <input> offset {min(offsets)} is negative")
    stride = 1 + max(offsets)
    for inp, off in zip(inputs, offsets):
        sem = inp.get("semantic", "")
        ref = (inp.get("source") or "").lstrip("#")
        if sem == "VERTEX":
            for verts in _children(mesh_el, "vertices"):
                if verts.get("id") == ref:
                    for vin in _children(verts, "input"):
                        if vin.get("semantic") == "POSITION":
                            pref = (vin.get("source") or "").lstrip("#")
                            if pref not in sources:
                                raise ParseError(f"POSITION source '#{pref}' undefined")
                            return sources[pref], off, stride
            raise ParseError(f"vertices '#{ref}' undefined or lacks POSITION input")
        if sem == "POSITION":
            if ref not in sources:
                raise ParseError(f"POSITION source '#{ref}' undefined")
            return sources[ref], off, stride
    raise ParseError("primitive has no VERTEX/POSITION input")


def _parse_geometry(geom_el) -> tuple[np.ndarray, np.ndarray]:
    """One <geometry> -> (vertices, triangles). Raises on non-triangle data."""
    meshes = _children(geom_el, "mesh")
    if not meshes:
        kinds = sorted(_local(c.tag) for c in geom_el)
        raise ParseError(
            f"geometry {geom_el.get('id')}: unsupported geometry kind {kinds or 'empty'}")
    mesh_el = meshes[0]
    for child in mesh_el:
        if _local(child.tag) in _PRIMITIVE_TAGS:
            raise ParseError(
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
                raise ParseError(
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


def _visit(el, parent, parent_world: np.ndarray, geometries: dict, out: tuple,
           fallback: str = "node") -> None:
    """Append the subtree of ``el`` in preorder to ``out`` = (nodes, vertices,
    triangles, tri_leaf), a node being (parent, name). Each
    instanced geometry is a leaf named after its node and baked with the
    node's world transform; a node with one geometry and no child nodes is
    that leaf itself. Leaves without triangles are skipped and a group left
    without leaves is cut back off."""
    nodes, verts, tris, tri_leaf = out
    name = el.get("name") or el.get("id") or fallback
    world = parent_world @ _node_transform(el)
    refs = [(ig.get("url") or "").lstrip("#") for ig in _children(el, "instance_geometry")]
    kids = _children(el, "node")
    here = len(nodes)
    group = len(refs) != 1 or bool(kids)
    if group:
        nodes.append((parent, name))
        parent = here
    for ref in refs:
        if ref not in geometries:
            raise ParseError(f"instance_geometry references undefined geometry '#{ref}'")
        v, t = geometries[ref]
        if len(t):
            tris.append(t + sum(map(len, verts)))
            verts.append(v @ world[:3, :3].T + world[:3, 3])
            tri_leaf.append(np.full(len(t), len(nodes), dtype=np.int64))
            nodes.append((parent, name))
    for kid in kids:
        _visit(kid, parent, world, geometries, out)
    if group and len(nodes) == here + 1:
        del nodes[here:]


def parse_collada_tree(data: bytes):
    """Parse raw bytes in one walk of the scene graph into (parents, names,
    vertices, triangles, tri_leaf): one entry per node in document
    preorder, root first, and the world-space mesh with each triangle's leaf
    id. Several top nodes get the visual scene as their root. A malformed
    number raises ParseError, as the other faults checked here do."""
    try:
        root_el = ET.fromstring(data)
    except ET.ParseError as exc:
        line, col = exc.position
        raise ParseError(f"malformed XML at line {line}, column {col}: {exc.msg}") from exc
    except LookupError as exc:   # an encoding the XML declaration names but Python lacks
        raise ParseError(f"malformed XML: {exc}") from exc
    out: tuple = ([], [], [], [])
    try:
        geometries = {geom.get("id"): _parse_geometry(geom) for lib in root_el.iter()
                      if _local(lib.tag) == "library_geometries"
                      for geom in _children(lib, "geometry")}
        scenes = [el for el in root_el.iter() if _local(el.tag) == "visual_scene"]
        if not scenes:
            raise ParseError("no <visual_scene> found")
        top = _children(scenes[0], "node")
        if not top:
            raise ParseError("visual scene contains no nodes")
        # an infinite or huge number bakes into NaN or inf coordinates without
        # a warning; filter_shape rejects the mesh as degenerate
        with np.errstate(invalid="ignore", over="ignore"):
            if len(top) == 1:
                _visit(top[0], None, np.eye(4), geometries, out)
            else:
                _visit(scenes[0], None, np.eye(4), geometries, out, fallback="scene")
    except ParseError:
        raise
    except (ValueError, OverflowError) as exc:
        raise ParseError(f"malformed number: {exc}") from exc
    nodes, verts, tris, tri_leaf = out
    if not nodes:
        raise ParseError("scene contains no triangle geometry")
    parents, names = zip(*nodes)
    return parents, names, np.vstack(verts), np.vstack(tris), np.concatenate(tri_leaf)
